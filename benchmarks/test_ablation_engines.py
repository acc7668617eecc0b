"""Ablation: execution engines — scalar vs vectorized.

Same FPDL workload through the two in-process drivers.  This quantifies
the calibration note in DESIGN.md: interpreted per-pair Python loses the
paper's constant factors; NumPy vectorization buys back orders of
magnitude.  Both must return identical counts (also pinned by the
integration tests).
"""

from _common import save_result, table_n

from repro.core.join import _scalar_join
from repro.core.matchers import build_matcher
from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.parallel.chunked import VectorEngine


def test_ablation_engines(benchmark):
    n = min(table_n(), 300)
    dp = dataset_for_family("SSN", n, seed=33)
    protocol = TimingProtocol(runs=3)

    def scalar():
        matcher = build_matcher("FPDL", k=1, scheme="numeric")
        return _scalar_join(dp.clean, dp.error, matcher)

    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="numeric")

    def vectorized():
        return join.run("FPDL")

    t_scalar, r_scalar = time_callable(scalar, protocol)
    t_vec, r_vec = time_callable(vectorized, protocol)

    rows = [
        ["scalar reference", round(t_scalar.mean_ms, 1), 1.0],
        [
            "vectorized (NumPy)",
            round(t_vec.mean_ms, 1),
            round(t_scalar.mean_ms / t_vec.mean_ms, 2),
        ],
    ]
    table = format_table(
        ["engine", "ms", "speedup vs scalar"],
        rows,
        title=f"Ablation — FPDL engines, SSN n={n}",
    )
    save_result("ablation_engines", table)

    # Identical answers.
    counts = {(r.match_count, r.diagonal_matches) for r in (r_scalar, r_vec)}
    assert len(counts) == 1
    # Vectorization dominates the scalar loop.
    assert t_vec.mean_ms < t_scalar.mean_ms / 5

    benchmark(vectorized)
