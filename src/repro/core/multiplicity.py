"""The multiplicity layer: duplicate values, join symmetry, memoization.

The paper's workloads are demographic strings whose value distributions
are heavily Zipfian (census last names: SMITH alone covers ~1% of the
population), so an ``n x n`` join spends most of its time re-filtering
and re-verifying the *same* string pairs.  This module holds the three
composable pieces that make plan cost proportional to the number of
*distinct* pairs instead — with bit-identical results:

* **unique-string collapse** — :class:`CollapsedSide` factors a dataset
  into its unique values plus multiplicity and inverse-index vectors;
  the whole generator x backend funnel then runs on the
  ``u_left x u_right`` problem and :func:`expand_rows` maps matches
  back to original indices on demand.  :class:`PairWeighter` scales
  every funnel counter by ``count(i) * count(j)`` so conservation still
  holds against the uncollapsed ``n_left * n_right`` baseline.
* **triangular self-join** — when both sides are the same dataset, only
  the ``i <= j`` triangle of the unique product is enumerated; a match
  ``(u, v)`` with ``u != v`` stands for both orders (weight doubled)
  and the diagonal pair ``(u, u)`` for all ``count(u)**2`` identical
  pairs, so the weighted totals reproduce the full product exactly:
  ``sum_{u<v} 2*c_u*c_v + sum_u c_u**2 == n**2``.
* a bounded **verification memo** — :class:`VerificationMemo` caches
  verifier verdicts under a canonical ``(s, t)`` key so the scalar
  backend verifies each distinct string pair once even when duplicates
  (or a candidate generator) resurface it.

The planner (:mod:`repro.core.plan`) estimates the uniqueness ratio
from a sample and activates the layer only when it pays; every plan
that goes through it returns a :class:`CollapsedJoinResult`, whose
match rows expand lazily from unique-space matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.join import JoinResult, match_rows

__all__ = [
    "CollapsedSide",
    "PairWeighter",
    "VerificationMemo",
    "CollapsedJoinResult",
    "estimate_uniqueness",
    "expand_rows",
    "positional_diagonal",
]


# ---------------------------------------------------------------------------
# Unique-string collapse
# ---------------------------------------------------------------------------


@dataclass
class CollapsedSide:
    """One dataset factored into unique values x multiplicity.

    ``values[inverse[i]] == original[i]`` for every original index
    ``i``; ``counts[u]`` is how many original rows hold ``values[u]``.
    Unique ids are assigned in first-appearance order, so collapsing an
    already-unique dataset is the identity permutation.
    """

    values: list[str]
    #: original index -> unique id
    inverse: np.ndarray
    #: unique id -> multiplicity
    counts: np.ndarray
    _members: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "CollapsedSide":
        """Collapse ``strings`` in one dictionary pass."""
        table: dict[str, int] = {}
        inverse = np.empty(len(strings), dtype=np.int64)
        for i, s in enumerate(strings):
            uid = table.get(s)
            if uid is None:
                uid = table[s] = len(table)
            inverse[i] = uid
        counts = np.bincount(inverse, minlength=len(table)).astype(np.int64)
        return cls(list(table), inverse, counts)

    @classmethod
    def identity(cls, strings: Sequence[str]) -> "CollapsedSide":
        """A no-dedup view (every row its own unique value).

        Used when the triangular strategy is wanted but collapsing was
        declined (``collapse="off"`` or not worth it): expansion and
        weighting degenerate to the identity.
        """
        n = len(strings)
        return cls(
            list(strings),
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
        )

    @property
    def n(self) -> int:
        return len(self.inverse)

    @property
    def n_unique(self) -> int:
        return len(self.values)

    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, start)``: the original indices holding unique value
        ``u`` are ``order[start[u] : start[u] + counts[u]]``, ascending."""
        if self._members is None:
            order = np.argsort(self.inverse, kind="stable")
            self._members = (order, np.cumsum(self.counts) - self.counts)
        return self._members


def estimate_uniqueness(strings: Sequence[str], sample: int = 1024) -> float:
    """Estimated fraction of distinct values, from an evenly-spaced sample.

    Returns 1.0 for empty input (nothing to collapse).  The sample is a
    stride over the whole dataset rather than a prefix, since sorted or
    clustered inputs would make a prefix wildly unrepresentative.
    """
    n = len(strings)
    if n == 0:
        return 1.0
    if n <= sample:
        return len(set(strings)) / n
    step = n / sample
    picked = {strings[int(i * step)] for i in range(sample)}
    return len(picked) / sample


# ---------------------------------------------------------------------------
# Multiplicity weighting
# ---------------------------------------------------------------------------


class PairWeighter:
    """Weight of one unique-space pair in original-pair units.

    ``weight(i, j) = w_left[i] * w_right[j]``, doubled for off-diagonal
    pairs of a *symmetric* (triangular self-join) enumeration, where
    ``(u, v)`` with ``u < v`` stands for both ``(u, v)`` and ``(v, u)``
    of the full product.  Backends scale their funnel counters and
    match counts by these weights, which is what keeps the conservation
    invariant intact against the uncollapsed ``n_left * n_right``
    baseline.
    """

    __slots__ = ("w_left", "w_right", "symmetric")

    def __init__(self, w_left, w_right, *, symmetric: bool = False):
        self.w_left = np.asarray(w_left, dtype=np.int64)
        self.w_right = np.asarray(w_right, dtype=np.int64)
        self.symmetric = symmetric

    def weight(self, i: int, j: int) -> int:
        w = int(self.w_left[i]) * int(self.w_right[j])
        if self.symmetric and i != j:
            w *= 2
        return w

    def block(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Per-pair weights for one candidate block."""
        w = self.w_left[ii] * self.w_right[jj]
        if self.symmetric:
            w = np.where(ii == jj, w, 2 * w)
        return w

    def total(self, ii: np.ndarray, jj: np.ndarray) -> int:
        return int(self.block(ii, jj).sum())


# ---------------------------------------------------------------------------
# Verification memo
# ---------------------------------------------------------------------------


class VerificationMemo:
    """Bounded FIFO cache of verifier verdicts for one (method, k).

    Keys are the canonical ``(min(s, t), max(s, t))`` ordering — every
    verifier in the registry (DL, PDL, Jaro, Jaro-Winkler, Hamming,
    Soundex) is symmetric, so one entry serves both orders.  One memo
    instance is scoped to a single method stack and threshold; the
    planner keeps a memo per method, which is what makes the short key
    sufficient for the full ``(s, t, method, k)`` identity.

    Eviction is first-in-first-out at ``capacity`` entries, bounding
    memory on adversarial streams while keeping the hot Zipfian head
    resident.  ``hits`` / ``misses`` count lookups for introspection;
    observed joins additionally mirror them into
    ``collector.verifier_counters``.
    """

    __slots__ = ("capacity", "hits", "misses", "_store")

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._store: dict[tuple[str, str], bool] = {}

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, s: str, t: str) -> bool | None:
        """The cached verdict for ``(s, t)``, or ``None`` on a miss."""
        key = (s, t) if s <= t else (t, s)
        verdict = self._store.get(key)
        if verdict is None and key not in self._store:
            self.misses += 1
            return None
        self.hits += 1
        return verdict

    def store(self, s: str, t: str, verdict: bool) -> None:
        key = (s, t) if s <= t else (t, s)
        if key not in self._store and len(self._store) >= self.capacity:
            # FIFO: dicts iterate in insertion order.
            del self._store[next(iter(self._store))]
        self._store[key] = bool(verdict)


# ---------------------------------------------------------------------------
# Expansion back to original indices
# ---------------------------------------------------------------------------


def expand_rows(
    ui: np.ndarray,
    uj: np.ndarray,
    left: CollapsedSide,
    right: CollapsedSide,
    *,
    symmetric: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Map unique-space matches ``(ui[m], uj[m])`` back to original
    ``(left rows, right rows)`` arrays.

    A match ``(u, v)`` expands to the product of the original rows
    holding each value, in row-major order; with ``symmetric``
    (triangular self-join) an off-diagonal ``(u, v)`` is followed by the
    mirrored ``(v, u)`` product, so the expansion covers exactly the
    pairs the uncollapsed all-pairs join would have matched.
    """
    ui = np.asarray(ui, dtype=np.int64)
    uj = np.asarray(uj, dtype=np.int64)
    if symmetric:
        mirrored = np.stack([np.ones(len(ui), dtype=bool), ui != uj], axis=1)
        ui, uj = (
            np.stack([ui, uj], axis=1)[mirrored],
            np.stack([uj, ui], axis=1)[mirrored],
        )
    order_l, start_l = left.members()
    order_r, start_r = right.members()
    width = right.counts[uj]
    sizes = left.counts[ui] * width
    block = np.repeat(np.arange(len(ui)), sizes)
    offset = np.arange(int(sizes.sum())) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    width = width[block]
    return (
        order_l[start_l[ui[block]] + offset // width],
        order_r[start_r[uj[block]] + offset % width],
    )


def positional_diagonal(
    ui: np.ndarray,
    uj: np.ndarray,
    left: CollapsedSide,
    right: CollapsedSide,
) -> int:
    """Positional ``i == j`` diagonal of a collapsed (non-self) join.

    The evaluation's ground truth is positional — ``left[i]`` is the
    clean twin of ``right[i]`` — so after collapsing both sides the
    diagonal is the count of original positions whose (unique-left,
    unique-right) id pair is among the matches ``(ui[m], uj[m])``.
    """
    if not len(ui):
        return 0
    n = min(left.n, right.n)
    stride = right.n_unique
    matched = np.asarray(ui, dtype=np.int64) * stride + np.asarray(uj)
    at = left.inverse[:n] * stride + right.inverse[:n]
    return int(np.isin(at, matched).sum())


class CollapsedJoinResult(JoinResult):
    """A :class:`JoinResult` whose match rows expand lazily.

    ``unique_rows`` holds the unique-space ``(left, right)`` arrays the
    backends actually verified; ``match_rows`` (and ``matches``, its
    tuple view) materializes the original-index expansion on first
    access and caches it, so a collapsed join of a heavily duplicated
    dataset never pays the expansion unless someone reads the pairs.
    Counters (``match_count``, ``diagonal_matches``) are already
    expressed in original-pair units.
    """

    def __init__(
        self,
        *args,
        unique_rows: tuple[np.ndarray, np.ndarray] | None = None,
        expander: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None,
        **kwargs,
    ):
        self.unique_rows = unique_rows or match_rows()
        self._expander = expander
        super().__init__(*args, **kwargs)
        # The dataclass __init__ above assigned the default through the
        # property setter; clear it so expansion stays pending.
        self._expanded = None

    @property
    def match_rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._expanded is None:
            self._expanded = (
                self._expander(*self.unique_rows)
                if self._expander
                else match_rows()
            )
        return self._expanded

    @match_rows.setter
    def match_rows(self, value: tuple[np.ndarray, np.ndarray]) -> None:
        self._expanded = value
