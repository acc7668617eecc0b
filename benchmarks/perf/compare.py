"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records written by ``bench.py --out DIR``
(found recursively as ``record.json``); traced records are ignored.
Make at least ten runs per side, alternating which side runs first,
with the same seeds on both sides.

For every workload and end-to-end metric it prints one row: each side's
median and quartiles, the change's win share over paired runs (runs
pair by seed, then in order; ties count for neither side) and a
verdict, using the bounds in ``BENCHMARK.json``:

* ``improved`` — the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own spread (Q3 - Q1);
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's spread is wider than the bound, and not
  every run of the change reads better than every run of the parent;
* ``unchanged`` — otherwise.

It refuses smoke-scale records and records whose environment
fingerprints differ (cores, CPU affinity, workers, compiled-kernel
status, Python, NumPy, machine, run length).  Exit status: 0, 1 when a
pairing is worse, 2 when the records cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import COMPARABLE, load_spec, quartiles

#: share of pairs the change must win to claim an improvement
WIN_SHARE = 0.9


def load_records(directory: Path) -> list[dict]:
    return [
        json.loads(p.read_text())
        for p in sorted(directory.rglob("record.json"))
    ]


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs of the same seed pair up in start order; when the sides
    share no seed, all runs pair up in start order."""

    def in_order(runs):
        return sorted(runs, key=lambda r: r["started"])

    pairs = []
    for seed in sorted({r["seed"] for r in parent}):
        pairs.extend(zip(in_order(r for r in parent if r["seed"] == seed),
                         in_order(r for r in change if r["seed"] == seed)))
    return pairs or list(zip(in_order(parent), in_order(change)))


def verdict(pv, cv, pairs, better: str, bound: float) -> tuple[str, float]:
    """(verdict, win share) for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(pv)
    _, cm, _ = quartiles(cv)
    gain = sign * (cm - pm)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if pairs and share >= WIN_SHARE and gain > p3 - p1:
        return "improved", share
    if -gain > bound * abs(pm):
        return "worse", share
    all_better = all(sign * (c - p) > 0 for c in cv for p in pv)
    if p3 - p1 > bound * abs(pm) and not all_better:
        return "unresolved", share
    return "unchanged", share


def refuse(message: str) -> int:
    print(f"compare: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Compare parent and change benchmark runs."
    )
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = load_spec()
    parent, change = load_records(args.parent), load_records(args.change)
    smoke = [r for r in parent + change
             if r["fingerprint"]["scale"] != "full"]
    if smoke:
        return refuse(f"{len(smoke)} record(s) are smoke-scale; "
                      "smoke runs test the harness and measure nothing")
    parent = [r for r in parent if not r["trace"]]
    change = [r for r in change if not r["trace"]]
    if not parent or not change:
        return refuse("each side needs at least one untraced run record")
    for w in spec["workloads"]:
        prints = {
            json.dumps({k: r["fingerprint"].get(k) for k in COMPARABLE},
                       sort_keys=True)
            for r in parent + change if r["workload"] == w["name"]
        }
        if len(prints) > 1:
            return refuse(f"{w['name']}: environment fingerprints differ:\n  "
                          + "\n  ".join(sorted(prints)))

    def fmt(values) -> str:
        q1, q2, q3 = quartiles(values)
        return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':<14} {'metric':<12} {'parent median [Q1, Q3]':<34} "
          f"{'change median [Q1, Q3]':<34} {'wins':>9}  verdict")
    worse = False
    for w in spec["workloads"]:
        ps = [r for r in parent if r["workload"] == w["name"]]
        cs = [r for r in change if r["workload"] == w["name"]]
        if not ps or not cs:
            print(f"{w['name']:<14} (no runs on "
                  f"{'parent' if not ps else 'change'} side)")
            continue
        pairs = pair_runs(ps, cs)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["end_to_end"][name]["value"] for r in ps]
            cv = [r["end_to_end"][name]["value"] for r in cs]
            pair_values = [(p["end_to_end"][name]["value"],
                            c["end_to_end"][name]["value"]) for p, c in pairs]
            v, share = verdict(pv, cv, pair_values, m["better"], m["bound"])
            worse |= v == "worse"
            wins = f"{share:.0%} of {len(pairs)}"
            print(f"{w['name']:<14} {name:<12} {fmt(pv):<34} {fmt(cv):<34} "
                  f"{wins:>9}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
