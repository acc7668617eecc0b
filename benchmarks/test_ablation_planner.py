"""Ablation: the join planner — plan picks by scale, and the payoff.

Two artefacts:

* the cost model's picks for FPDL (and the unprunable Jaro) at
  n = 100 / 1,000 / 10,000 on the Table-3 last-names family, showing
  the all-pairs -> index-backed progression on the in-process tier
  (the PASS-JOIN partition index wins at this scale and k=1);
* a head-to-head at n = 10,000: the auto plan (partition-index
  candidate generation) against the forced all-pairs vectorized join, both warm
  (prepared state built outside the clock).  The index-backed plan must
  win — that reduction is the point of planning — and must return the
  identical match count.
"""

from _common import save_result

from repro import native
from repro.core.plan import JoinPlanner
from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable

PICK_NS = (100, 1_000, 10_000)
HEAD_TO_HEAD_N = 10_000


def test_ablation_planner(benchmark):
    dp = dataset_for_family("LN", HEAD_TO_HEAD_N, seed=5)

    # -- plan picks by scale (plan() never builds state: slicing is free)
    pick_rows = []
    picks = {}
    for n in PICK_NS:
        p = JoinPlanner(dp.clean[:n], dp.error[:n], k=1)
        for method in ("FPDL", "Jaro"):
            plan = p.plan(method)
            picks[(n, method)] = (plan.generator.name, plan.backend.name)
            pick_rows.append(
                [f"{n:,}", method, plan.generator.name, plan.backend.name]
            )
    # Every size runs on the in-process tier of the loaded provider: the
    # scalar loop only takes products of a few dozen pairs.
    tier = "native" if native.available() else "vectorized"
    assert picks[(100, "FPDL")] == ("all-pairs", tier)
    assert picks[(1_000, "FPDL")] == ("all-pairs", tier)
    assert picks[(10_000, "FPDL")] == ("pass-join", tier)
    # Jaro bounds neither length nor signature bits: never pruned.
    for n in PICK_NS:
        assert picks[(n, "Jaro")][0] == "all-pairs"

    # -- head-to-head at n = 10,000, warm on both sides
    planner = JoinPlanner(dp.clean, dp.error, k=1)
    planner.prepare("vectorized")
    planner.passjoin_index()

    def auto_plan():
        return planner.run("FPDL")

    def forced_all_pairs():
        return planner.run("FPDL", generator="all-pairs", backend="vectorized")

    t_auto, r_auto = time_callable(auto_plan, TimingProtocol.QUICK)
    t_full, r_full = time_callable(forced_all_pairs, TimingProtocol.QUICK)

    product = HEAD_TO_HEAD_N * HEAD_TO_HEAD_N
    rows = [
        *pick_rows,
        [
            f"{HEAD_TO_HEAD_N:,}",
            "FPDL auto (pass-join)",
            f"{r_auto.pairs_compared:,} pairs verified",
            f"{t_auto.mean_ms:.0f} ms",
        ],
        [
            f"{HEAD_TO_HEAD_N:,}",
            "FPDL forced all-pairs",
            f"{product:,} pairs walked",
            f"{t_full.mean_ms:.0f} ms",
        ],
    ]
    table = format_table(
        ["n", "method / plan", "generator -> backend / work", "backend / time"],
        rows,
        title="Ablation — planner picks and payoff, LN k=1",
    )
    save_result("ablation_planner", table)

    assert r_auto.match_count == r_full.match_count
    assert r_auto.pairs_compared < 0.2 * product
    assert t_auto.mean_ms < t_full.mean_ms, (
        f"index-backed plan ({t_auto.mean_ms:.0f} ms) should beat "
        f"all-pairs ({t_full.mean_ms:.0f} ms) at n={HEAD_TO_HEAD_N:,}"
    )

    # Timing distribution: the planned join at the vectorized scale.
    small = JoinPlanner(dp.clean[:1_000], dp.error[:1_000], k=1)
    small.prepare("vectorized")
    small.passjoin_index()
    benchmark(lambda: small.run("FPDL", generator="pass-join"))
