"""The 14 method stacks of the paper's evaluation, behind one registry.

Section 5 evaluates every combination of {no filter, FBF, length filter,
length-then-FBF} wrapping {DL, PDL, nothing}, plus the Jaro, Jaro-Winkler,
Hamming and (Tables 7-8) Soundex baselines:

====== =========================================== ==================
name   stack                                       paper table rows
====== =========================================== ==================
DL     Damerau-Levenshtein, full DP                baseline everywhere
PDL    prefix-pruned DL (banded + early exit)      Tables 1-4
Jaro   Jaro similarity >= theta                    Tables 1-4
Wink   Jaro-Winkler similarity >= theta            Tables 1-4
Ham    Hamming distance <= k                       Tables 1-4
FDL    FBF filter -> DL                            Tables 1-4
FPDL   FBF filter -> PDL                           Tables 1-5
FBF    FBF filter only                             Tables 1-4
LDL    length filter -> DL                         Tables 12, 14
LPDL   length filter -> PDL                        Tables 12, 14
LF     length filter only                          Tables 12, 14
LFDL   length filter -> FBF -> DL                  Tables 12, 14
LFPDL  length filter -> FBF -> PDL                 Tables 12, 14
LFBF   length filter -> FBF only                   Tables 12, 14
SDX    Soundex code equality                       Tables 7-8
====== =========================================== ==================

:func:`build_matcher` constructs any of them as a :class:`PreparedMatcher`
ready for the join driver and the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.filters import FBFFilter, FilterChain, LengthFilter, PairFilter
from repro.core.signatures import SignatureScheme
from repro.distance.bitparallel import MAX_PATTERN, osa_bitparallel_bounded
from repro.distance.damerau import damerau_levenshtein
from repro.distance.hamming import hamming_matcher
from repro.distance.jaro import jaro_matcher, jaro_winkler_matcher
from repro.distance.pruned import pdl, pdl_matcher
from repro.distance.soundex import soundex_matcher

__all__ = [
    "PreparedMatcher",
    "MethodSpec",
    "METHOD_NAMES",
    "method_registry",
    "build_matcher",
]


class PreparedMatcher:
    """A (filters -> verifier) stack bound to two prepared datasets.

    Usage::

        m = build_matcher("FPDL", k=1, scheme=scheme_for("numeric"))
        m.prepare(left, right)
        m.matches(i, j)   # does left[i] match right[j]?

    ``filters`` may be empty (bare verifier) and ``verifier`` may be
    ``None`` (filter-only method, e.g. the FBF row of Table 1 that counts
    every filter pass as a match).

    Attaching a :class:`repro.obs.StatsCollector` (the ``collector``
    argument, or assignment any time) routes every decision through the
    funnel accounting: considered, per-filter rejections, verified and
    matched pairs.  With no collector the decision path is the original
    branch-free one (one attribute test per pair).  Collector accounting
    supersedes the legacy ``collect_stats`` chain counters when both are
    enabled.
    """

    def __init__(
        self,
        name: str,
        filters: Sequence[PairFilter] = (),
        verifier: Callable[[str, str], bool] | None = None,
        *,
        collect_stats: bool = False,
        collector=None,
    ):
        if not filters and verifier is None:
            raise ValueError(f"method {name!r} has neither filters nor a verifier")
        self.name = name
        self.chain = FilterChain(list(filters), collect_stats=collect_stats)
        self.verifier = verifier
        self._left: Sequence[str] = ()
        self._right: Sequence[str] = ()
        self.verified_pairs = 0  # how many pairs reached the verifier
        self._obs_stages: list = []
        #: multiplicity weights (plan layer): funnel counters scale by
        #: ``weighter.weight(i, j)`` so collapsed joins conserve against
        #: the uncollapsed baseline.  None = every pair weighs 1.
        self.weighter = None
        self.collector = collector

    @property
    def collector(self):
        """The attached stats collector (None or falsy = not observing)."""
        return self._collector

    @collector.setter
    def collector(self, collector) -> None:
        self._collector = collector
        # One StageStat per filter position, resolved once so the
        # per-pair loop touches no dicts.  Stats accumulate across
        # prepares by design (a collector outlives one join).
        self._obs_stages = (
            [collector.stage(f.name) for f in self.chain.filters]
            if collector
            else []
        )

    def prepare(self, left: Sequence[str], right: Sequence[str]) -> None:
        """Precompute filter state (signatures, lengths) for the datasets."""
        self._left = left
        self._right = right
        self.verified_pairs = 0
        self.chain.prepare(left, right)

    def matches(self, i: int, j: int) -> bool:
        """Full stack decision for pair ``(left[i], right[j])``."""
        collector = self._collector
        if collector:
            return self._matches_observed(i, j, collector)
        if not self.chain.passes(i, j):
            return False
        if self.verifier is None:
            return True
        self.verified_pairs += 1
        return self.verifier(self._left[i], self._right[j])

    def _matches_observed(self, i: int, j: int, collector) -> bool:
        """The decision path with full funnel accounting.

        With a ``weighter`` attached every counter moves by the pair's
        multiplicity weight instead of 1 — the unique-space pair stands
        for that many original pairs.
        """
        w = 1 if self.weighter is None else self.weighter.weight(i, j)
        collector.pairs_considered += w
        for f, stage in zip(self.chain.filters, self._obs_stages):
            stage.tested += w
            if not f.passes(i, j):
                return False
            stage.passed += w
        collector.survivors += w
        if self.verifier is None:
            collector.matched += w
            return True
        self.verified_pairs += 1
        collector.verified += w
        if self.verifier(self._left[i], self._right[j]):
            collector.matched += w
            return True
        return False

    @property
    def filter_stats(self):
        """Per-filter pass/reject counts (when ``collect_stats`` is on)."""
        return self.chain.stats


@dataclass(frozen=True)
class MethodSpec:
    """Registry entry: how to build one named method stack."""

    name: str
    #: which filters precede the verifier, in order
    filters: tuple[str, ...]  # subset of ("length", "fbf")
    #: "dl" | "pdl" | "jaro" | "wink" | "ham" | "sdx" | None (filter-only)
    verifier: str | None
    description: str

    @property
    def needs_scheme(self) -> bool:
        return "fbf" in self.filters

    @property
    def uses_length(self) -> bool:
        return "length" in self.filters


_SPECS = [
    MethodSpec("DL", (), "dl", "Damerau-Levenshtein edit distance (Alg. 1)"),
    MethodSpec("PDL", (), "pdl", "Prefix-pruned DL (Alg. 2)"),
    MethodSpec("Jaro", (), "jaro", "Jaro similarity threshold"),
    MethodSpec("Wink", (), "wink", "Jaro-Winkler similarity threshold"),
    MethodSpec("Ham", (), "ham", "Hamming distance threshold"),
    MethodSpec("FDL", ("fbf",), "dl", "FBF filter wrapping DL"),
    MethodSpec("FPDL", ("fbf",), "pdl", "FBF filter wrapping PDL"),
    MethodSpec("FBF", ("fbf",), None, "FBF filter alone"),
    MethodSpec("LDL", ("length",), "dl", "Length filter wrapping DL (Alg. 3)"),
    MethodSpec("LPDL", ("length",), "pdl", "Length filter wrapping PDL"),
    MethodSpec("LF", ("length",), None, "Length filter alone"),
    MethodSpec("LFDL", ("length", "fbf"), "dl", "Length then FBF wrapping DL"),
    MethodSpec("LFPDL", ("length", "fbf"), "pdl", "Length then FBF wrapping PDL"),
    MethodSpec("LFBF", ("length", "fbf"), None, "Length then FBF alone"),
    MethodSpec("SDX", (), "sdx", "Soundex code equality"),
]


def method_registry() -> dict[str, MethodSpec]:
    """Name -> spec for every method stack in the evaluation."""
    return {spec.name: spec for spec in _SPECS}


#: All method names in the paper's table order.
METHOD_NAMES = tuple(spec.name for spec in _SPECS)

_REGISTRY = method_registry()


def _make_verifier(
    kind: str | None,
    k: int,
    theta: float,
    counters: dict[str, int] | None = None,
) -> Callable | None:
    if kind is None:
        return None
    if kind == "dl":
        # The paper's baseline: full DP, then compare to k.
        def dl_verify(s: str, t: str, _k: int = k) -> bool:
            return damerau_levenshtein(s, t) <= _k

        return dl_verify
    if kind == "pdl":
        if counters is None:
            # Fast path: one-word bit-parallel OSA for patterns that fit
            # a machine word, banded DP beyond.  Only taken when nobody
            # asked for the DP's pruning tallies — observed runs keep
            # the banded DP so length_pruned/early_exit stay populated.
            def pdl_verify(s: str, t: str, _k: int = k) -> bool:
                if not s or not t:
                    return False
                if len(s) > MAX_PATTERN:
                    return pdl(s, t, _k)
                return osa_bitparallel_bounded(s, t, _k) is not None

            pdl_verify.__name__ = f"pdl_bitparallel_k{k}"
            return pdl_verify
        return pdl_matcher(k, counters=counters)
    if kind == "jaro":
        return jaro_matcher(theta)
    if kind == "wink":
        return jaro_winkler_matcher(theta)
    if kind == "ham":
        return hamming_matcher(k)
    if kind == "sdx":
        return soundex_matcher()
    raise ValueError(f"unknown verifier kind {kind!r}")


def build_matcher(
    name: str,
    k: int = 1,
    theta: float = 0.8,
    scheme: SignatureScheme | str | None = None,
    *,
    collect_stats: bool = False,
    collector=None,
) -> PreparedMatcher:
    """Construct any registered method stack.

    Parameters
    ----------
    name:
        One of :data:`METHOD_NAMES` (case-sensitive, as in the paper's
        tables).
    k:
        Edit-distance threshold for DL/PDL/Ham and the filters.
    theta:
        Similarity floor for Jaro/Wink (the paper uses 0.8, or 0.75 for
        first names).
    scheme:
        FBF signature scheme (or its kind string) for methods containing
        the FBF filter; auto-detected from the data when omitted.
    collect_stats:
        Record per-filter pass/reject counts (the paper's "FBF removed N
        comparisons" numbers) at a small per-pair cost.
    collector:
        A :class:`repro.obs.StatsCollector` receiving the full funnel
        accounting.  Building with the collector (rather than assigning
        ``matcher.collector`` later) additionally wires the PDL
        verifier's internal tallies (``length_pruned``/``early_exit``)
        into ``collector.verifier_counters``.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown method {name!r}; expected one of {METHOD_NAMES}")
    filters: list[PairFilter] = []
    for f in spec.filters:
        if f == "length":
            filters.append(LengthFilter(k))
        elif f == "fbf":
            filters.append(FBFFilter(k, scheme))
    counters = collector.verifier_counters if collector else None
    verifier = _make_verifier(spec.verifier, k, theta, counters)
    return PreparedMatcher(
        spec.name, filters, verifier, collect_stats=collect_stats,
        collector=collector,
    )
