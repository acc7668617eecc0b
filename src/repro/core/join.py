"""Algorithm 7: ``MatchStrings`` — the all-pairs similarity join.

The paper's driver compares every pair of the Cartesian product
``S x T``, first through the filter chain, then (for survivors) the
verifier, and declares *match* or *unmatch*.  This module holds the
faithful sequential reference loop, :func:`_scalar_join`: the *scalar
execution backend* of :mod:`repro.core.plan`, which composes it (or the
vectorized and hybrid backends) with a candidate generator.
Call :func:`repro.join` for the planned entry point, or
``repro.join(..., generator="all-pairs", backend="scalar")`` for the
reference answer; code that holds a hand-built matcher calls
:func:`_scalar_join` directly.

The evaluation's ground truth is positional — ``left[i]`` is the clean
twin of ``right[i]`` — so :class:`JoinResult` carries both the match set
and, when asked, only its confusion summary (true/false positive counts)
to keep memory flat when a sloppy method matches millions of pairs.

Pass a :class:`repro.obs.StatsCollector` to watch the filter funnel in
flight: per-stage rejections, verified pairs, and wall-time spans for
the prepare and pair-loop phases.  Without one, the driver runs the
original uninstrumented path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.matchers import PreparedMatcher
from repro.obs.log import get_logger

__all__ = ["JoinResult", "match_rows"]

_log = get_logger("core.join")


def match_rows(
    parts_i: Sequence[np.ndarray] = (), parts_j: Sequence[np.ndarray] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(left rows, right rows)`` ``int64`` arrays of the match
    parts a kernel emitted (none: two empty arrays)."""
    if not parts_i:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        np.concatenate(parts_i).astype(np.int64, copy=False),
        np.concatenate(parts_j).astype(np.int64, copy=False),
    )


@dataclass
class JoinResult:
    """Outcome of one similarity join.

    ``match_rows`` (and its tuple view ``matches``) is populated only
    when the join is run with ``record_matches=True``; the counters are
    always correct either way.
    ``pairs_compared`` counts the pairs the driver actually iterated —
    the full ``n_left * n_right`` product, an explicit ``pairs`` subset,
    or (under an index-backed or multiplicity-collapsed plan) the
    candidate pairs actually enumerated.  ``generator`` / ``backend``
    name the plan that produced the result; the legacy drivers leave
    them at their implicit defaults.

    **Diagonal semantics.**  For two *different* datasets,
    ``diagonal_matches`` counts matches with ``i == j`` — hits against
    the evaluation's positional ground truth.  For a *self-join*
    (``left is right``, or equal content), position is an accident of
    ordering, so the diagonal counts matches by **value identity**
    (``left[i] == right[j]``) instead: the pairs that are literal
    duplicates rather than near-misses.  Every engine applies the same
    rule, so cross-engine equivalence holds on both kinds of input.

    ``unique_left`` / ``unique_right`` expose the distinct-value counts
    when the multiplicity layer collapsed the join (``None`` when the
    join ran uncollapsed); ``verified_pairs`` and ``pairs_compared``
    then count *unique-space* work (the cost that was actually paid)
    while ``match_count`` / ``diagonal_matches`` stay in original-pair
    units.
    """

    method: str
    n_left: int
    n_right: int
    match_count: int = 0
    #: positional (``i == j``) hits — or value-identity hits on self-joins
    diagonal_matches: int = 0
    verified_pairs: int = 0
    pairs_compared: int = 0
    #: matched (left row, right row) pairs, in the backend's order
    match_rows: tuple[np.ndarray, np.ndarray] = field(
        default_factory=match_rows, repr=False, compare=False
    )
    #: candidate generator that produced the pair stream (plan layer)
    generator: str = "all-pairs"
    #: execution backend that verified the candidates (plan layer)
    backend: str = "scalar"
    #: distinct left/right values under unique-string collapse (else None)
    unique_left: int | None = None
    unique_right: int | None = None

    @property
    def matches(self) -> list[tuple[int, int]]:
        """``match_rows`` as ``(i, j)`` tuples, for the CLI, linkage and
        tests: built on first access, rebuilt only if ``match_rows`` is
        replaced."""
        rows = self.match_rows
        view = self.__dict__.get("_matches_view")
        if view is None or view[0] is not rows:
            ii, jj = rows
            view = (rows, list(zip(ii.tolist(), jj.tolist())))
            self.__dict__["_matches_view"] = view
        return view[1]

    @property
    def off_diagonal_matches(self) -> int:
        """Matches the positional ground truth calls false positives."""
        return self.match_count - self.diagonal_matches


def _scalar_join(
    left: Sequence[str],
    right: Sequence[str],
    matcher: PreparedMatcher,
    *,
    record_matches: bool = False,
    pairs: Iterable[tuple[int, int]] | None = None,
    collector=None,
    weighter=None,
    self_join: bool | None = None,
) -> JoinResult:
    """The scalar reference loop (the plan layer's scalar backend body).

    ``matcher`` is a method stack from
    :func:`repro.core.matchers.build_matcher`; it is prepared here.
    ``record_matches`` keeps the matched pairs (off by default: a
    sloppy comparator can match millions of pairs).  ``pairs`` restricts
    the join to those index pairs; the default is the full product.
    ``collector`` (a :class:`repro.obs.StatsCollector`) is attached to
    the matcher for funnel counters and phase spans.
    ``weighter`` (a :class:`repro.core.multiplicity.PairWeighter`)
    scales match counts and funnel counters by per-pair multiplicity —
    the collapsed-plan contract.  ``self_join`` switches the diagonal to
    value identity; ``None`` auto-detects it from content equality, so
    direct callers get the right semantics without the plan layer.

    >>> from repro.core.matchers import build_matcher
    >>> m = build_matcher("FPDL", k=1, scheme="numeric")
    >>> r = _scalar_join(["123456789"], ["123456780"], m)
    >>> (r.match_count, r.diagonal_matches)
    (1, 1)
    """
    if collector:
        matcher.collector = collector
    else:
        collector = getattr(matcher, "collector", None)
    if weighter is not None:
        matcher.weighter = weighter
    if self_join is None:
        self_join = left is right or (
            len(left) == len(right) and list(left) == list(right)
        )
    if collector:
        collector.meta.setdefault("method", matcher.name)
        collector.meta["n_left"] = len(left)
        collector.meta["n_right"] = len(right)
    span = collector.span if collector else (lambda name: nullcontext())
    with span("join.prepare"):
        matcher.prepare(left, right)
    result = JoinResult(matcher.name, len(left), len(right))
    matches: list[tuple[int, int]] | None = [] if record_matches else None
    match_count = 0
    diagonal = 0
    compared = 0
    mfn = matcher.matches
    if self_join:
        def on_diag(i: int, j: int) -> bool:
            return left[i] == right[j]
    else:
        def on_diag(i: int, j: int) -> bool:
            return i == j
    with span("join.pairs"):
        if pairs is None:
            compared = len(left) * len(right)
            for i in range(len(left)):
                for j in range(len(right)):
                    if mfn(i, j):
                        w = 1 if weighter is None else weighter.weight(i, j)
                        match_count += w
                        if on_diag(i, j):
                            diagonal += w
                        if matches is not None:
                            matches.append((i, j))
        else:
            for i, j in pairs:
                compared += 1
                if mfn(i, j):
                    w = 1 if weighter is None else weighter.weight(i, j)
                    match_count += w
                    if on_diag(i, j):
                        diagonal += w
                    if matches is not None:
                        matches.append((i, j))
    if matches:
        pairs = np.array(matches, dtype=np.int64)
        result.match_rows = (pairs[:, 0], pairs[:, 1])
    result.match_count = match_count
    result.diagonal_matches = diagonal
    result.verified_pairs = matcher.verified_pairs
    result.pairs_compared = compared
    _log.debug(
        "%s: %d matches over %d pairs (%d verified)",
        matcher.name, match_count, compared, result.verified_pairs,
    )
    return result
