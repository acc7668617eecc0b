"""Ablation: pair-chunk size in the vectorized engine.

The chunk bounds every NumPy temporary (the guides' cache-effects
advice): too small and per-chunk Python overhead dominates; too large
and the working set falls out of cache.  This ablation sweeps the chunk
across three orders of magnitude on a DL join — the method with the
heaviest per-pair arrays — and confirms results are chunk-invariant.
"""

from _common import save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.parallel.chunked import VectorEngine


def test_ablation_chunk_size(benchmark):
    n = min(table_n(), 400)
    dp = dataset_for_family("LN", n, seed=77)
    protocol = TimingProtocol(runs=3)

    rows = []
    counts = set()
    times = {}
    for chunk in (1 << 8, 1 << 12, 1 << 16, 1 << 20):
        join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha",
                           chunk=chunk, kernels="numpy")
        timing, res = time_callable(lambda j=join: j.run("DL"), protocol)
        counts.add((res.match_count, res.diagonal_matches))
        times[chunk] = timing.mean_ms
        rows.append([f"2^{chunk.bit_length() - 1}", round(timing.mean_ms, 1)])
    table = format_table(
        ["chunk (pairs)", "DL ms"],
        rows,
        title=f"Ablation — chunk size, LN n={n}",
    )
    save_result("ablation_chunk_size", table)

    # Chunking is purely an execution detail: identical results.
    assert len(counts) == 1
    # Tiny chunks pay real per-chunk overhead.
    assert times[1 << 8] > times[1 << 16]

    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha")
    benchmark.pedantic(lambda: join.run("DL"), rounds=3, iterations=1)
