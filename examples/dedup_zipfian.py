"""Deduplicate a Zipfian roster: the multiplicity layer's home turf.

Scenario: a census-style last-name column where a handful of common
names cover most rows (names drawn with replacement under a 1/rank
weight).  The same FPDL self-join runs two ways — the plain full
product, asked for by handing the planner the roster as one prepared
side, and the planner's auto pick over the list, which collapses the
roster to its distinct names and enumerates the pair triangle — and
both must return the identical weighted match count and exact-duplicate
mass while the auto run verifies far fewer pairs.

Run:  python examples/dedup_zipfian.py [n]
"""

import random
import sys
import time

from repro import JoinPlanner
from repro.data.names import sample_zipfian_roster
from repro.parallel.prepared import PreparedSide


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    rng = random.Random(11)
    roster = sample_zipfian_roster(n, rng)
    n_unique = len(set(roster))
    print(f"roster: {n} entries, {n_unique} distinct names "
          f"(top name covers {roster.count(max(set(roster), key=roster.count))} rows)\n")

    prepared = PreparedSide(roster, "alpha")
    cells = [
        ("full product (prepared side)", JoinPlanner(prepared, prepared, k=1)),
        ("auto (collapse + triangle)",
         JoinPlanner(roster, roster, k=1, scheme="alpha")),
    ]
    results = []
    for label, planner in cells:
        start = time.perf_counter()
        result = planner.run("FPDL")
        elapsed = time.perf_counter() - start
        results.append(result)
        uniq = "" if result.unique_left is None else (
            f"  unique={result.unique_left}"
        )
        print(f"[{label:>28}] {elapsed*1e3:8.1f} ms  "
              f"verified={result.pairs_compared:>9,}  "
              f"matches={result.match_count:,}  "
              f"exact-dupes={result.diagonal_matches:,}{uniq}")

    answers = {(r.match_count, r.diagonal_matches) for r in results}
    assert len(answers) == 1, f"the cells disagree: {answers}"
    print(
        "\nBoth cells agree on the weighted match count; the collapsed\n"
        "run did the work once per distinct pair and multiplied by the\n"
        "pair's multiplicity.  diagonal_matches counts value-identity\n"
        "pairs — the exact-duplicate mass a dedup caller wants."
    )


if __name__ == "__main__":
    main()
