"""Ablation: multiplicity-aware joins on duplicate-heavy data.

A Zipfian last-name roster (names drawn with replacement under a
1/rank weight — the shape real demographic columns take) self-joined
with FPDL k=1, across three cells:

* the full n x n product — the roster as one prepared side, which the
  planner never collapses; the baseline every earlier benchmark
  measured;
* triangular enumeration only — the roster as a list with the collapse
  rule patched off (no argument turns it off), on the PASS-JOIN plan
  the planner picks here, whose probe cuts the triangle in place;
* collapse + triangle — the planner's auto pick for this input.

A collapse without the triangle is not a plan the planner makes on a
self-join, so the grid has no such cell.  Every cell must return the
identical weighted match count (collapse and triangular enumeration are
execution strategy, not semantics), and the fully-collapsed cell must
enumerate at least 2x fewer pairs than the baseline — on Zipfian data
the unique count grows like n/log n, so the reduction compounds
quadratically.

``make bench-quick`` runs exactly this file as the CI smoke job.
"""

import random
from contextlib import nullcontext
from unittest import mock

from _common import prepared_pair, save_result

from repro.core import plan as plan_module
from repro.core.plan import JoinPlanner
from repro.data.names import sample_zipfian_roster
from repro.eval.scale import scaled
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable

N = scaled(1_500, 10_000)
#: (label, collapse, self-join): the cells of the grid
GRID = [
    ("full product", "off", "off"),
    ("triangle", "off", "on"),
    ("collapse + triangle", "on", "on"),
]


def _planner(label: str, roster: list[str]) -> JoinPlanner:
    if label == "full product":
        return JoinPlanner(*prepared_pair(roster, roster), k=1)
    return JoinPlanner(roster, roster, k=1, scheme="alpha")


def test_ablation_collapse(benchmark):
    roster = sample_zipfian_roster(N, random.Random(42))
    n_unique = len(set(roster))

    rows = []
    results = {}
    for label, collapse, self_join in GRID:
        planner = _planner(label, roster)
        rule = (
            mock.patch.object(plan_module, "_COLLAPSE_AUTO_RATIO", -1.0)
            if collapse == "off"
            else nullcontext()
        )
        with rule:
            assert planner.collapse_active() == (collapse == "on"), label
            t, r = time_callable(
                lambda p=planner: p.run("FPDL"), TimingProtocol.QUICK
            )
            print(f"{label}: {planner.plan('FPDL').describe()}")
        results[label] = r
        rows.append(
            [
                label,
                collapse,
                self_join,
                f"{r.pairs_compared:,}",
                f"{r.match_count:,}",
                f"{t.best_ms:.0f} ms",
            ]
        )

    table = format_table(
        ["cell", "collapse", "self-join", "pairs enumerated", "matches", "time"],
        rows,
        title=(
            f"Ablation — multiplicity grid, Zipfian LN self-join, "
            f"FPDL k=1, n={N:,} ({n_unique:,} unique)"
        ),
    )
    save_result("ablation_collapse", table)

    # Semantics: every cell returns the identical weighted match count.
    counts = {r.match_count for r in results.values()}
    assert len(counts) == 1, f"grid cells disagree on match count: {counts}"
    baseline = results["full product"]
    best = results["collapse + triangle"]
    assert baseline.diagonal_matches == best.diagonal_matches

    # Payoff: the collapsed triangle enumerates >= 2x fewer pairs.
    assert best.pairs_compared * 2 <= baseline.pairs_compared, (
        f"collapsed self-join enumerated {best.pairs_compared:,} pairs; "
        f"expected <= half of the baseline's {baseline.pairs_compared:,}"
    )
    # And the collapsed run reports the unique-value workload it ran on.
    assert best.unique_left == n_unique

    # Timing distribution: the auto (fully collapsed) plan.
    auto = JoinPlanner(roster, roster, k=1, scheme="alpha")
    benchmark(lambda: auto.run("FPDL"))
