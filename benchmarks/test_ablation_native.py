"""Ablation: the compiled kernel tier vs. the interpreted tiers.

The same dense FPDL last-names join through the full tier
trajectory — scalar reference, the in-process backend pinned to NumPy
(``kernels="numpy"``), the hybrid shared-memory pool, and the
in-process backend on the compiled kernels (``kernels="auto"``) —
extending the ``BENCH_hybrid.json`` story with the fourth tier.  The
records keep the tier labels ``vectorized`` (NumPy) and ``native``
(compiled).

The scalar loop cannot survive the full product (per-pair Python at
n=1e4 is minutes), so it runs at a reduced ``scalar_n`` and its record
carries its own ``n``; equivalence at that scale is asserted against a
vectorized run on the same reduced inputs.  The three array tiers run
the full product and must agree exactly.

Writes ``BENCH_native.json``: one record per tier plus the headline
``speedup_native_vs_vectorized`` the CI smoke job pins at >= 2.0 on
the full workload.  Scale with ``REPRO_NATIVE_N`` (the committed
artifact uses 10000) and ``REPRO_NATIVE_WORKERS`` (default 4).

Skips (rather than silently benchmarking the fallback) when no
compiled provider loads.
"""

import json
import os

import pytest
from _common import RESULTS_DIR, prepared_pair, save_result

from repro import native
from repro.core.plan import JoinPlanner
from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.parallel.shm import close_shared_pools

N = int(os.environ.get("REPRO_NATIVE_N", "10000"))
WORKERS = int(os.environ.get("REPRO_NATIVE_WORKERS", "4"))
SCALAR_N = min(max(N // 10, 200), 1500)


def _planner(left, right, *, workers=None, kernels="auto"):
    # Prepared sides run the plain product, whatever the values repeat.
    return JoinPlanner(
        *prepared_pair(left, right), k=1, workers=workers, kernels=kernels
    )


@pytest.mark.skipif(
    not native.available(), reason="no compiled kernel provider"
)
def test_ablation_native_tier(benchmark):
    dp = dataset_for_family("LN", N, seed=5)
    left, right = dp.clean, dp.error
    small = dataset_for_family("LN", SCALAR_N, seed=5)

    scalar_planner = _planner(small.clean, small.error)
    small_vec_planner = _planner(small.clean, small.error, kernels="numpy")
    vec_planner = _planner(left, right, kernels="numpy")
    hyb_planner = _planner(left, right, workers=WORKERS)
    nat_planner = _planner(left, right)

    def scalar():
        return scalar_planner.run(
            "FPDL", generator="all-pairs", backend="scalar"
        )

    def vectorized():
        return vec_planner.run(
            "FPDL", generator="all-pairs", backend="vectorized"
        )

    def hybrid():
        return hyb_planner.run(
            "FPDL", generator="all-pairs", backend="hybrid"
        )

    def compiled():
        return nat_planner.run(
            "FPDL", generator="all-pairs", backend="vectorized"
        )

    t_sc, r_sc = time_callable(scalar, TimingProtocol(runs=1))
    t_vec, r_vec = time_callable(vectorized, TimingProtocol(runs=3))
    t_hyb, r_hyb = time_callable(hybrid, TimingProtocol(runs=3))
    t_nat, r_nat = time_callable(compiled, TimingProtocol(runs=3))

    # Exactness: the three full-product tiers agree with each other,
    # the scalar reference agrees with vectorized at its own scale.
    counts = {
        (r.match_count, r.diagonal_matches, r.verified_pairs)
        for r in (r_vec, r_hyb, r_nat)
    }
    assert len(counts) == 1, counts
    r_small = small_vec_planner.run(
        "FPDL", generator="all-pairs", backend="vectorized"
    )
    scalar_equivalent = (
        r_sc.match_count == r_small.match_count
        and r_sc.diagonal_matches == r_small.diagonal_matches
    )
    assert scalar_equivalent, (r_sc.match_count, r_small.match_count)

    product = len(left) * len(right)
    scalar_product = SCALAR_N * SCALAR_N
    records = []
    rows = []
    for label, timing, run_n, pairs, workers, matches in (
        ("scalar", t_sc, SCALAR_N, scalar_product, 1, r_sc.match_count),
        ("vectorized", t_vec, N, product, 1, r_vec.match_count),
        ("hybrid", t_hyb, N, product, WORKERS, r_hyb.match_count),
        ("native", t_nat, N, product, 1, r_nat.match_count),
    ):
        wall_s = timing.best_ms / 1000.0
        rows.append(
            [
                f"{label} (n={run_n})",
                round(timing.best_ms, 1),
                f"{pairs / wall_s:,.0f}",
            ]
        )
        records.append(
            {
                "backend": label,
                "n": run_n,
                "method": "FPDL",
                "workers": workers,
                "wall_s": round(wall_s, 4),
                "pairs_per_s": round(pairs / wall_s, 1),
                "matches": matches,
            }
        )
    speedup = round(t_vec.best_ms / t_nat.best_ms, 2)
    table = format_table(
        ["backend", "ms (best)", "pairs/s"],
        rows,
        title=(
            f"Ablation — FPDL tiers, LN n={N} "
            f"(scalar at n={SCALAR_N}), provider={native.kind()}, "
            f"native vs vectorized: {speedup}x"
        ),
    )
    save_result("ablation_native_tier", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    bench_path = RESULTS_DIR / "BENCH_native.json"
    bench_path.write_text(
        json.dumps(
            {
                "workload": {
                    "family": "LN",
                    "n": N,
                    "scalar_n": SCALAR_N,
                    "method": "FPDL",
                    "k": 1,
                    "generator": "all-pairs",
                    "pairs": product,
                },
                "provider": native.kind(),
                "records": records,
                "scalar_equivalent": scalar_equivalent,
                "speedup_native_vs_vectorized": speedup,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"[saved to {bench_path}]")

    # The issue's acceptance bar: >= 2x the pure-NumPy tier on the
    # full candidate+verify workload.
    if N >= 8000:
        assert speedup >= 2.0, (t_nat.best_ms, t_vec.best_ms)

    benchmark(compiled)


def teardown_module(module):
    close_shared_pools()
