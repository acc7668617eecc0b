"""Ablation: the zero-copy hybrid backend vs. the vectorized one.

The same dense FPDL last-names join through both drivers.  The
`vectorized` backend pays one interpreter; `hybrid` publishes the
encodings once through shared memory and runs the same vectorized
chunk kernels inside persistent pool workers.

Besides the wall-clock table (``ablation_hybrid_backend.txt``) this
writes the machine-readable trajectory ``BENCH_hybrid.json`` — one
record per backend with n, method, wall-clock and pairs/s — and pins
the zero-copy claim: a second hybrid join on the same planner re-ships
no dataset bytes (pool reuse + cached shared segments).

Scale with ``REPRO_HYBRID_N`` (the committed artifact uses 10000) and
``REPRO_HYBRID_WORKERS`` (default 4).
"""

import json
import os

from _common import RESULTS_DIR, save_result

from repro.core.plan import JoinPlanner
from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.obs import StatsCollector
from repro.parallel.shm import close_shared_pools

N = int(os.environ.get("REPRO_HYBRID_N", "2000"))
WORKERS = int(os.environ.get("REPRO_HYBRID_WORKERS", "4"))


def _planner(left, right, *, workers=None, collector=None):
    # collapse="off": backend-vs-backend timing should not depend on
    # how many sampled last names happen to repeat.
    return JoinPlanner(
        left, right, k=1, workers=workers, collapse="off",
        collector=collector,
    )


def test_ablation_hybrid_backend(benchmark):
    dp = dataset_for_family("LN", N, seed=5)
    left, right = dp.clean, dp.error

    vec_planner = _planner(left, right)
    hyb_planner = _planner(left, right, workers=WORKERS)

    def vectorized():
        return vec_planner.run("FPDL", generator="all-pairs", backend="vectorized")

    def hybrid():
        return hyb_planner.run("FPDL", generator="all-pairs", backend="hybrid")

    t_vec, r_vec = time_callable(vectorized, TimingProtocol(runs=3))
    t_hyb, r_hyb = time_callable(hybrid, TimingProtocol(runs=3))

    # Identical answers from both backends.
    counts = {
        (r.match_count, r.diagonal_matches, r.verified_pairs)
        for r in (r_vec, r_hyb)
    }
    assert len(counts) == 1, counts

    product = len(left) * len(right)
    records = []
    rows = []
    for label, timing, workers in (
        ("vectorized (NumPy)", t_vec, 1),
        (f"hybrid x{WORKERS}", t_hyb, WORKERS),
    ):
        wall_s = timing.best_ms / 1000.0
        rows.append(
            [
                label,
                round(timing.best_ms, 1),
                f"{product / wall_s:,.0f}",
                round(t_vec.best_ms / timing.best_ms, 2),
            ]
        )
        records.append(
            {
                "n": N,
                "method": "FPDL",
                "backend": label.split(" ")[0],
                "workers": workers,
                "wall_s": round(wall_s, 4),
                "pairs_per_s": round(product / wall_s, 1),
            }
        )
    table = format_table(
        ["backend", "ms (best)", "pairs/s", "speedup vs vectorized"],
        rows,
        title=f"Ablation — FPDL backends, LN n={N}, workers={WORKERS}",
    )
    save_result("ablation_hybrid_backend", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    bench_path = RESULTS_DIR / "BENCH_hybrid.json"
    bench_path.write_text(
        json.dumps(
            {
                "workload": {
                    "family": "LN",
                    "n": N,
                    "method": "FPDL",
                    "k": 1,
                    "generator": "all-pairs",
                    "pairs": product,
                },
                "results": records,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"[saved to {bench_path}]")

    # The pool amortizes at scale.
    if N >= 8000:
        assert t_hyb.best_ms * 1.5 <= t_vec.best_ms, (t_hyb.best_ms, t_vec.best_ms)

    benchmark(hybrid)


def test_hybrid_ships_datasets_once():
    """Two hybrid joins on one planner: the encodings cross the process
    boundary once; the second run pickles only task metadata."""
    dp = dataset_for_family("LN", min(N, 2000), seed=5)
    collector = StatsCollector("hybrid-bytes")
    planner = _planner(dp.clean, dp.error, workers=WORKERS, collector=collector)

    planner.run("FPDL", generator="fbf-index", backend="hybrid")
    data_bytes = planner.shared_datasets().bytes_shared
    after_first = dict(collector.counters)
    assert after_first["shm_bytes_shared"] >= data_bytes

    planner.run("FPDL", generator="fbf-index", backend="hybrid")
    shared_delta = collector.counters["shm_bytes_shared"] - after_first["shm_bytes_shared"]
    pickled_delta = collector.counters["shm_bytes_pickled"] - after_first["shm_bytes_pickled"]
    # No dataset re-publication: the second run shares only its own
    # candidate-index segments, and pickles far less than the encodings.
    assert shared_delta < data_bytes, (shared_delta, data_bytes)
    assert pickled_delta < data_bytes // 4, (pickled_delta, data_bytes)
    assert collector.counters["shm_pool_reuse_hits"] >= 1


def teardown_module(module):
    close_shared_pools()
