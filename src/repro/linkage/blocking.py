"""Traditional blocking methods (paper Section 1's related work).

Blocking restricts the candidate pair space before comparison.  The
paper argues that key-based blocking is brittle — errors in the blocking
key silently drop true matches — and positions FBF as a *safe* per-pair
filter instead (or as a wrapper inside a blocked system).  To make that
comparison runnable, the four methods its introduction cites are
implemented here:

* :class:`StandardBlocking` — records sharing a blocking-key value form
  a block; only intra-block pairs are compared (paper ref [7]).
* :class:`SortedNeighbourhood` — records sorted by key; a sliding window
  of size ``w`` over the merged order generates candidates (ref [8]).
* :class:`BigramIndexing` — each record is indexed under the sorted
  bigrams of its key; records sharing any bigram (or a sub-list
  combination, per the Febrl manual, ref [9]) become candidates.
* :class:`CanopyClustering` — tf-idf cosine canopies over key bigrams
  with loose/tight thresholds (refs [10][11]).

Every method implements :meth:`BlockingMethod.pairs`, yielding candidate
``(i, j)`` index pairs that plug straight into the planner (wrapped in
:class:`repro.core.plan.BlockingKeyGenerator`) or the linkage engine.  The
benchmark suite measures their pair-reduction ratio and, crucially, their
*pairs completeness* (share of true matches retained) against the safe
FBF filter.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from typing import Callable, Iterator, Sequence

__all__ = [
    "BlockingMethod",
    "FullProduct",
    "StandardBlocking",
    "SortedNeighbourhood",
    "BigramIndexing",
    "CanopyClustering",
]

KeyFn = Callable[[str], str]


def _identity(value: str) -> str:
    return value


class BlockingMethod:
    """Base class: candidate pair generation over two key columns."""

    name = "blocking"

    def pairs(
        self, left: Sequence[str], right: Sequence[str]
    ) -> Iterator[tuple[int, int]]:
        """Yield candidate ``(i, j)`` pairs (no duplicates)."""
        raise NotImplementedError

    def pairs_observed(
        self,
        left: Sequence[str],
        right: Sequence[str],
        collector,
        *,
        stage: str | None = None,
    ) -> Iterator[tuple[int, int]]:
        """:meth:`pairs`, recording the blocking funnel stage.

        The stage (named after the method by default) is recorded once
        the generator is exhausted: ``tested`` is the full product,
        ``passed`` the candidates actually emitted — the method's
        reduction ratio, live.
        """
        stage = stage or self.name
        count = 0
        for pair in self.pairs(left, right):
            count += 1
            yield pair
        collector.add_stage(stage, len(left) * len(right), count)
        collector.meta.setdefault("blocking", self.name)

    def reduction_ratio(
        self, left: Sequence[str], right: Sequence[str]
    ) -> float:
        """1 - candidates/total: how much comparison work is avoided."""
        total = len(left) * len(right)
        if total == 0:
            return 0.0
        count = sum(1 for _ in self.pairs(left, right))
        return 1.0 - count / total


class FullProduct(BlockingMethod):
    """No blocking: the full Cartesian product (the paper's default)."""

    name = "full"

    def pairs(self, left, right):
        return itertools.product(range(len(left)), range(len(right)))


class StandardBlocking(BlockingMethod):
    """Exact blocking-key equality.

    ``key`` maps a field value to its blocking key (e.g. Soundex, first
    3 characters); identity by default.  Empty keys are never blocked
    together — a missing blocking field should not create a mega-block.
    """

    name = "standard"

    def __init__(self, key: KeyFn = _identity):
        self.key = key

    def pairs(self, left, right):
        index: dict[str, list[int]] = defaultdict(list)
        for j, value in enumerate(right):
            kv = self.key(value)
            if kv:
                index[kv].append(j)
        for i, value in enumerate(left):
            kv = self.key(value)
            if not kv:
                continue
            for j in index.get(kv, ()):
                yield i, j

    def pairs_observed(self, left, right, collector, *, stage=None):
        yield from super().pairs_observed(left, right, collector, stage=stage)
        # Block-size profile: skew here is what makes key-based blocking
        # slow *and* brittle, so surface it alongside the pair counts.
        left_counts = Counter(kv for kv in map(self.key, left) if kv)
        right_counts = Counter(kv for kv in map(self.key, right) if kv)
        sizes = [
            n * right_counts[kv]
            for kv, n in left_counts.items()
            if kv in right_counts
        ]
        collector.meta["blocks"] = len(sizes)
        collector.meta["largest_block_pairs"] = max(sizes, default=0)


class SortedNeighbourhood(BlockingMethod):
    """Sliding window over the records merged in key order.

    Both datasets are sorted together by key; every left/right pair
    within ``window`` merged positions of each other is a candidate.
    ``window`` is the paper-cited method's ``w`` (must be >= 2 to pair
    anything).
    """

    name = "sorted-neighbourhood"

    def __init__(self, window: int = 5, key: KeyFn = _identity):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window
        self.key = key

    def pairs(self, left, right):
        tagged = [(self.key(v), 0, i) for i, v in enumerate(left)]
        tagged += [(self.key(v), 1, j) for j, v in enumerate(right)]
        tagged.sort(key=lambda t: (t[0], t[1]))
        seen: set[tuple[int, int]] = set()
        for pos, (_, side, idx) in enumerate(tagged):
            hi = min(len(tagged), pos + self.window)
            for other_pos in range(pos + 1, hi):
                _, oside, oidx = tagged[other_pos]
                if side == oside:
                    continue
                pair = (idx, oidx) if side == 0 else (oidx, idx)
                if pair not in seen:
                    seen.add(pair)
                    yield pair


class BigramIndexing(BlockingMethod):
    """Febrl-style bigram indexing.

    Each key is decomposed into its sorted bigram list; with threshold
    ``t < 1``, all sub-lists of length ``ceil(t * n_bigrams)`` are also
    indexed, giving fuzzy blocking that tolerates key errors.  Records
    sharing any indexed bigram combination become candidates.
    """

    name = "bigram"

    def __init__(self, threshold: float = 1.0, key: KeyFn = _identity):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.key = key

    def _index_keys(self, value: str) -> set[tuple[str, ...]]:
        kv = self.key(value)
        bigrams = sorted({kv[i : i + 2] for i in range(len(kv) - 1)})
        if not bigrams:
            return set()
        take = max(1, math.ceil(self.threshold * len(bigrams)))
        if take >= len(bigrams):
            return {tuple(bigrams)}
        # All sub-lists of length `take` (Febrl's sub-list expansion).
        # Guard against combinatorial blow-up on very long keys.
        if math.comb(len(bigrams), take) > 512:
            return {tuple(bigrams[:take])}
        return set(itertools.combinations(bigrams, take))

    def pairs(self, left, right):
        index: dict[tuple[str, ...], list[int]] = defaultdict(list)
        for j, value in enumerate(right):
            for key in self._index_keys(value):
                index[key].append(j)
        emitted: set[tuple[int, int]] = set()
        for i, value in enumerate(left):
            for key in self._index_keys(value):
                for j in index.get(key, ()):
                    if (i, j) not in emitted:
                        emitted.add((i, j))
                        yield i, j


class CanopyClustering(BlockingMethod):
    """Canopy clustering with tf-idf cosine similarity over key bigrams.

    Canopies are grown greedily from random-order centre picks: every
    record within ``loose`` similarity of the centre joins the canopy,
    and records within ``tight`` are removed from the candidate-centre
    pool.  Candidates are left/right pairs sharing a canopy.
    """

    name = "canopy"

    def __init__(
        self,
        loose: float = 0.3,
        tight: float = 0.7,
        key: KeyFn = _identity,
    ):
        if not 0.0 <= loose <= tight <= 1.0:
            raise ValueError(
                f"need 0 <= loose <= tight <= 1, got loose={loose}, tight={tight}"
            )
        self.loose = loose
        self.tight = tight
        self.key = key

    @staticmethod
    def _bigrams(value: str) -> list[str]:
        return [value[i : i + 2] for i in range(len(value) - 1)]

    def _vectorize(self, keys: Sequence[str]) -> list[dict[str, float]]:
        docs = [self._bigrams(k) for k in keys]
        df: dict[str, int] = defaultdict(int)
        for doc in docs:
            for g in set(doc):
                df[g] += 1
        n = max(1, len(docs))
        vectors: list[dict[str, float]] = []
        for doc in docs:
            tf: dict[str, float] = defaultdict(float)
            for g in doc:
                tf[g] += 1.0
            # Smoothed idf (+1) keeps weights positive even when a
            # bigram appears in every document — otherwise two
            # identical keys would have zero vectors and similarity 0.
            vec = {g: tf[g] * (math.log((1 + n) / (1 + df[g])) + 1.0) for g in tf}
            norm = math.sqrt(sum(w * w for w in vec.values()))
            if norm > 0:
                vec = {g: w / norm for g, w in vec.items()}
            vectors.append(vec)
        return vectors

    @staticmethod
    def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
        if len(b) < len(a):
            a, b = b, a
        return sum(w * b.get(g, 0.0) for g, w in a.items())

    def pairs(self, left, right):
        keys = [self.key(v) for v in left] + [self.key(v) for v in right]
        vectors = self._vectorize(keys)
        n_left = len(left)
        remaining = list(range(len(keys)))
        emitted: set[tuple[int, int]] = set()
        while remaining:
            centre = remaining[0]
            canopy = [
                idx
                for idx in remaining
                if self._cosine(vectors[centre], vectors[idx]) >= self.loose
            ]
            remaining = [
                idx
                for idx in remaining
                if idx == centre
                or self._cosine(vectors[centre], vectors[idx]) < self.tight
            ]
            remaining.remove(centre)
            lefts = [idx for idx in canopy if idx < n_left]
            rights = [idx - n_left for idx in canopy if idx >= n_left]
            for i in lefts:
                for j in rights:
                    if (i, j) not in emitted:
                        emitted.add((i, j))
                        yield i, j
