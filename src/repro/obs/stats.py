"""Funnel counters for the filter-and-verify pipeline.

The paper's whole argument is a funnel: of the ``|S| x |T|`` candidate
pairs, the length filter rejects some, the FBF rejects most of the rest,
and only the survivors pay the O(mn) dynamic program (Tables 1-5 are
built from exactly these per-stage counts).  :class:`StatsCollector`
makes that funnel observable at runtime:

``pairs_considered``
    every pair the join looked at (the funnel's mouth);
``stages``
    one :class:`StageStat` per filter position, in evaluation order —
    each stage's ``tested`` equals the previous stage's ``passed``;
``survivors``
    pairs that passed every filter;
``verified``
    survivors handed to the verifier (equals ``survivors`` for
    verifier-backed stacks, 0 for filter-only stacks like FBF/LF);
``matched``
    pairs declared matches;
``verifier_counters``
    the verifier's internal shortcuts — ``length_pruned`` (PDL step 1
    rejections before any DP work) and ``early_exit`` (band rows that
    exceeded ``k``, the paper's ``x <= 0`` termination).

Plans the planner runs through its multiplicity layer
(:mod:`repro.core.multiplicity`: the unique-value product, the
self-join triangle) push *weighted* counts — each enumerated pair
counts for the original pairs it stands for, ``count(i) * count(j)``,
doubled off the diagonal of a triangle — so every counter here stays
in original-pair units and the conservation invariant holds against
the full ``n_left * n_right`` baseline.

The conservation invariant every correctly-wired join satisfies::

    pairs_considered == sum(stage.rejected) + survivors

is exposed as :attr:`StatsCollector.conserved` and asserted by the
funnel-invariant test suite.

Collectors are *passive*: producers push counts in, so the default
(no collector) costs one attribute load and truthiness test per pair on
scalar paths and nothing at all on vectorized paths.
:data:`NULL_COLLECTOR` is an API-compatible, *falsy* no-op — hot loops
branch it away with ``if collector:`` while chunk-level callers may
invoke it unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import NULL_SPAN, Tracer

__all__ = ["StageStat", "StatsCollector", "NullStatsCollector", "NULL_COLLECTOR"]


@dataclass
class StageStat:
    """Pass/reject accounting for one funnel stage."""

    name: str
    tested: int = 0
    passed: int = 0

    @property
    def rejected(self) -> int:
        return self.tested - self.passed

    @property
    def pass_rate(self) -> float:
        return self.passed / self.tested if self.tested else 0.0

    @property
    def filtration_ratio(self) -> float:
        """Share of tested pairs discarded (the paper's effectiveness %)."""
        return 1.0 - self.pass_rate if self.tested else 0.0


class StatsCollector:
    """Accumulates one join's funnel counters, span timings and children.

    One collector per logical operation; composite pipelines (the
    linkage engine, multi-method experiments) hang one child per
    component off :meth:`child`.  All counters are plain ``int``
    attributes so scalar hot loops may increment them directly
    (``c.pairs_considered += 1``) instead of through method calls.
    """

    enabled = True

    def __init__(self, name: str = "join"):
        self.name = name
        self.tracer = Tracer()
        self.pairs_considered = 0
        self.survivors = 0
        self.verified = 0
        self.matched = 0
        #: stage name -> StageStat, in first-recorded (= evaluation) order
        self.stages: dict[str, StageStat] = {}
        #: verifier-internal tallies: work the verifier itself avoided
        self.verifier_counters: dict[str, int] = {
            "length_pruned": 0,
            "early_exit": 0,
        }
        #: free-form named tallies for producers outside the funnel
        #: proper — the serve layer's cache hits/misses, compactions,
        #: queries served, ... — rendered by the exporters alongside the
        #: verifier shortcuts
        self.counters: dict[str, int] = {}
        self.children: dict[str, "StatsCollector"] = {}
        #: free-form context (method name, k, dataset sizes, ...)
        self.meta: dict[str, object] = {}

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"StatsCollector({self.name!r}, considered={self.pairs_considered}, "
            f"matched={self.matched})"
        )

    # -- recording ---------------------------------------------------------

    def stage(self, name: str) -> StageStat:
        """The named stage's accumulator, created on first use."""
        stat = self.stages.get(name)
        if stat is None:
            stat = self.stages[name] = StageStat(name)
        return stat

    def add_pairs(self, n: int = 1) -> None:
        self.pairs_considered += n

    def add_stage(self, name: str, tested: int, passed: int) -> None:
        """Bulk stage record (the vectorized engines' per-sweep totals)."""
        stat = self.stage(name)
        stat.tested += tested
        stat.passed += passed

    def add_survivors(self, n: int = 1) -> None:
        self.survivors += n

    def add_verified(self, n: int = 1) -> None:
        self.verified += n

    def add_matched(self, n: int = 1) -> None:
        self.matched += n

    def add_counter(self, name: str, n: int = 1) -> None:
        """Bump a free-form named counter (created on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str):
        """Time a pipeline stage: ``with collector.span("fbf.filter"):``."""
        return self.tracer.span(name)

    def child(self, name: str) -> "StatsCollector":
        """A named sub-collector (per field, per method, per worker)."""
        c = self.children.get(name)
        if c is None:
            c = self.children[name] = StatsCollector(name)
        return c

    def merge(self, other: "StatsCollector") -> None:
        """Fold another collector (e.g. a per-chunk or per-worker one) in."""
        self.pairs_considered += other.pairs_considered
        self.survivors += other.survivors
        self.verified += other.verified
        self.matched += other.matched
        for name, stat in other.stages.items():
            self.add_stage(name, stat.tested, stat.passed)
        for key, n in other.verifier_counters.items():
            self.verifier_counters[key] = self.verifier_counters.get(key, 0) + n
        for key, n in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + n
        self.tracer.merge(other.tracer)
        for name, sub in other.children.items():
            self.child(name).merge(sub)
        for key, value in other.meta.items():
            self.meta.setdefault(key, value)

    # -- invariants & views ------------------------------------------------

    @property
    def total_rejected(self) -> int:
        return sum(s.rejected for s in self.stages.values())

    @property
    def conserved(self) -> bool:
        """Funnel conservation: considered = per-stage rejections + survivors."""
        return self.pairs_considered == self.total_rejected + self.survivors

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot of the whole collector tree."""
        return {
            "name": self.name,
            "pairs_considered": self.pairs_considered,
            "stages": [
                {
                    "name": s.name,
                    "tested": s.tested,
                    "passed": s.passed,
                    "rejected": s.rejected,
                }
                for s in self.stages.values()
            ],
            "survivors": self.survivors,
            "verified": self.verified,
            "matched": self.matched,
            "verifier": dict(self.verifier_counters),
            "counters": dict(self.counters),
            "conserved": self.conserved,
            "spans": self.tracer.as_dict(),
            "meta": dict(self.meta),
            "children": {
                name: c.as_dict() for name, c in self.children.items()
            },
        }


class NullStatsCollector:
    """API-compatible no-op collector.

    *Falsy*, so per-pair hot loops branch it away entirely
    (``if collector:``); chunk- or call-level code may instead hold one
    and call it unconditionally — every method discards its input.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def stage(self, name: str) -> StageStat:
        return StageStat(name)  # throwaway

    def add_pairs(self, n: int = 1) -> None:
        pass

    def add_stage(self, name: str, tested: int, passed: int) -> None:
        pass

    def add_survivors(self, n: int = 1) -> None:
        pass

    def add_verified(self, n: int = 1) -> None:
        pass

    def add_matched(self, n: int = 1) -> None:
        pass

    def add_counter(self, name: str, n: int = 1) -> None:
        pass

    def span(self, name: str):
        return NULL_SPAN

    def child(self, name: str) -> "NullStatsCollector":
        return self

    def merge(self, other: object) -> None:
        pass

    @property
    def meta(self) -> dict[str, object]:
        return {}  # fresh throwaway: writes vanish

    @property
    def verifier_counters(self) -> dict[str, int]:
        return {}

    @property
    def counters(self) -> dict[str, int]:
        return {}  # fresh throwaway: writes vanish


#: shared no-op instance for unconditional call sites
NULL_COLLECTOR = NullStatsCollector()
