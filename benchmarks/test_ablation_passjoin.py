"""Ablation: sub-quadratic candidate generation (PASS-JOIN vs the product).

The same warm FPDL last-names join through the planner's two lossless
generators — ``pass-join`` (segment partition index) and ``all-pairs``
(the paper's dense product, pruned pair by pair by the FBF filter) —
plus a measured check of the cost model's pick:

* at ``k=1`` and ``k=2`` the auto plan's best-of-3 wall must be within
  ``AUTO_SLACK`` of the faster forced generator, with identical match
  counts.  This is the property the cost model exists for; which
  generator it names at ``k=2`` may change when the constants are
  recalibrated (at ``k=1`` the partition index must win the pick);
* head to head at ``k=1`` the partition probe touches a few hash
  buckets per window: forced ``pass-join`` must beat forced
  ``all-pairs`` (>= 5x at n >= 100,000).

Every run is on the NumPy tier (``backend="vectorized"``) so the
generator is the only difference.  Artefacts: ``ablation_passjoin.txt``
and the machine-readable ``BENCH_passjoin.json`` (one record per
generator at k = 1 with wall-clock, emitted candidates and matches,
plus the auto picks and auto-vs-best walls at k = 1 and 2).  The
committed artifacts and CI smoke both run the default n = 10,000
(``REPRO_PASSJOIN_N``).  The funnel conserves for every forced plan.
"""

import json
import os

from _common import RESULTS_DIR, prepared_pair, save_result

from repro.core.plan import JoinPlanner
from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.obs import StatsCollector

N = int(os.environ.get("REPRO_PASSJOIN_N", "10000"))
GENERATORS = ("pass-join", "all-pairs")
#: auto's wall may exceed the faster forced generator's by this factor
AUTO_SLACK = 1.5
BEST_OF_3 = TimingProtocol(runs=3)


def _best_of_3(planner, generator):
    def run():
        return planner.run("FPDL", generator=generator, backend="vectorized")

    timing, result = time_callable(run, BEST_OF_3)
    return timing.best_ms, result.match_count


def test_ablation_passjoin(benchmark):
    dp = dataset_for_family("LN", N, seed=5)
    left, right = dp.error, dp.clean
    product = len(left) * len(right)

    # -- auto against the faster forced generator, k = 1 and 2 ---------------
    picks = {}
    auto_vs_best = {}
    for k in (1, 2):
        planner = JoinPlanner(*prepared_pair(left, right), k=k)
        planner.prepare("vectorized")
        planner.passjoin_index()
        plan = planner.plan("FPDL")
        picks[k] = plan.generator.name
        print(f"k={k}: auto -> {plan.generator.name} ({plan.reason})")
        t_auto, m_auto = _best_of_3(planner, None)
        forced = {gen: _best_of_3(planner, gen) for gen in GENERATORS}
        best = min(GENERATORS, key=lambda gen: forced[gen][0])
        auto_vs_best[k] = {
            "auto_ms": round(t_auto, 1),
            **{f"{gen}_ms": round(forced[gen][0], 1) for gen in GENERATORS},
            "ratio": round(t_auto / forced[best][0], 3),
        }
        assert {m_auto} == {m for _, m in forced.values()}, (k, forced)
        if N >= 10_000:
            assert t_auto <= AUTO_SLACK * forced[best][0], (
                f"k={k}: auto ({picks[k]}, {t_auto:.0f} ms) is more than "
                f"{AUTO_SLACK}x the best forced plan ({best}, "
                f"{forced[best][0]:.0f} ms)"
            )
    if N >= 10_000:
        assert picks[1] == "pass-join", picks

    # -- head-to-head at k=1, warm planner state ----------------------------
    planner = JoinPlanner(*prepared_pair(left, right), k=1)
    planner.prepare("vectorized")
    planner.passjoin_index()

    best_ms = {}
    matches = {}
    funnels = {}
    for gen in GENERATORS:
        best_ms[gen], matches[gen] = _best_of_3(planner, gen)
        # One instrumented run for the funnel; counters, not the clock.
        c = StatsCollector(gen)
        r = planner.run(
            "FPDL", generator=gen, backend="vectorized", collector=c
        )
        assert c.conserved, f"{gen} leaked pairs"
        assert c.pairs_considered == product
        # The dense product has no generator stage: it emits every pair.
        stage = c.stages.get(gen)
        funnels[gen] = product if stage is None else stage.passed
        assert stage is None or stage.tested == product
        assert r.match_count == matches[gen]

    # Exact generators: identical match sets, zero false negatives.
    assert len(set(matches.values())) == 1, matches

    t_pj = best_ms["pass-join"]
    t_all = best_ms["all-pairs"]
    if N >= 100_000:
        assert t_pj * 5 <= t_all, (
            f"pass-join ({t_pj:.0f} ms) must be >= 5x faster than "
            f"all-pairs ({t_all:.0f} ms) at n={N:,}"
        )
    elif N >= 10_000:
        assert t_pj < t_all, (t_pj, t_all)

    # -- artefacts -----------------------------------------------------------
    records = []
    rows = []
    for gen in GENERATORS:
        wall_s = best_ms[gen] / 1000.0
        emitted = funnels[gen]
        rows.append(
            [
                gen,
                round(best_ms[gen], 1),
                f"{emitted:,}",
                f"{100.0 * emitted / product:.2f}%",
                round(t_all / best_ms[gen], 2),
            ]
        )
        records.append(
            {
                "n": N,
                "method": "FPDL",
                "k": 1,
                "generator": gen,
                "wall_s": round(wall_s, 4),
                "candidates": int(emitted),
                "candidate_fraction": round(emitted / product, 6),
                "matches": matches[gen],
                "pairs_per_s": round(product / wall_s, 1),
            }
        )
    for k, walls in auto_vs_best.items():
        rows.append(
            [
                f"auto k={k} ({picks[k]})",
                walls["auto_ms"],
                "",
                "",
                f"{walls['ratio']:.2f}x best",
            ]
        )
    table = format_table(
        ["generator", "ms (best)", "candidates", "of product",
         "speedup vs all-pairs"],
        rows,
        title=f"Ablation — FPDL candidate generators, LN n={N}, k=1",
    )
    save_result("ablation_passjoin", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    bench_path = RESULTS_DIR / "BENCH_passjoin.json"
    bench_path.write_text(
        json.dumps(
            {
                "workload": {
                    "family": "LN",
                    "n": N,
                    "method": "FPDL",
                    "k": 1,
                    "backend": "vectorized",
                    "pairs": product,
                },
                "auto_picks": {f"k={k}": name for k, name in picks.items()},
                "auto_vs_best": {
                    f"k={k}": walls for k, walls in auto_vs_best.items()
                },
                "auto_slack": AUTO_SLACK,
                "results": records,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"[saved to {bench_path}]")

    # Timing distribution: the partition-index join at a bounded scale.
    small_n = min(N, 10_000)
    small = JoinPlanner(
        *prepared_pair(left[:small_n], right[:small_n]), k=1
    )
    small.prepare("vectorized")
    small.passjoin_index()
    benchmark(lambda: small.run("FPDL", generator="pass-join"))
