"""PASS-JOIN partition index: sub-quadratic candidates for OSA <= k.

The partition scheme of Li, Deng & Feng (PASS-JOIN, arXiv 1111.7171):
split every indexed string into ``k + 1`` contiguous segments.  For
plain Levenshtein the pigeonhole argument is immediate — ``k`` edits
can destroy at most ``k`` segments, so any string within distance ``k``
contains at least one segment *verbatim* as a substring, at a start
position bounded by the edits before it.  Probing therefore touches
only the inverted-index entries for ``O(k^2)`` substring windows
instead of walking length-bucket products.

**This repo's edit distance is OSA, not Levenshtein.**  The ``dl`` /
``pdl`` verifiers are restricted Damerau-Levenshtein (adjacent
transposition costs one edit), and the classic partition probe is
*incomplete* there: ``osa("AB", "BA") == 1``, but partitioning ``"AB"``
into ``"A"|"B"`` and probing with ``"BA"`` finds neither segment — one
transposition straddles the segment boundary and corrupts both halves.
The fix used here keeps the ``k + 1`` partition and widens the *probe*:
for every window ``c = q[p : p + l]`` we also look up the boundary-swap
variants

* ``vL  = q[p - 1] + q[p + 1 : p + l]``  (transposition straddles the
  left boundary: the segment's first character sits one slot left),
* ``vR  = q[p : p + l - 1] + q[p + l]``  (right boundary),
* ``vLR = q[p - 1] + q[p + 1 : p + l - 1] + q[p + l]`` (both; needs
  ``l >= 2`` — OSA never edits the same position twice).

Soundness: suppose ``osa(q, r) <= k`` via ``t`` boundary-straddling
transpositions and at most ``k - t`` other operations.  Only the other
operations (and interior transpositions, which cost one each) can
destroy a segment *cleanly*, so at most ``k - t`` segments are cleanly
destroyed and at least ``t + 1 >= 1`` of the ``k + 1`` segments survive
up to boundary swaps — and a surviving segment is found by one of the
four variants at its (shift-bounded) window.  The variants only ever
*add* candidates, so Levenshtein completeness is untouched, and
spurious candidates are rejected by the verifier.

Probe windows use the standard shift bound: segment ``i`` of an
indexed string of length ``L`` (start ``p_i``, length ``l_i``) can
appear in a query of length ``|q|`` only at starts

    max(0, p_i - k, p_i + D - k) <= p <= min(|q| - l_i, p_i + k, p_i + D + k)

with ``D = |q| - L`` (edits before the segment shift it by at most
``k``; edits after it bound the shift through the length difference).

The index stores no substrings: each (length, segment) bucket keeps a
sorted array of 64-bit polynomial hashes of the segment's code points
with the indexed ids alongside, and a probe batch hashes its windows
vectorized and binary-searches the buckets.  Hash collisions produce
spurious candidates only (the verifier decides); they never drop one.
Code points come from UTF-32 so any Python string — full Unicode, NUL
bytes, empty — round-trips without the latin-1 restriction of the
packed join codecs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.distance.codec import _pad_rows

__all__ = ["PassJoinIndex", "SegmentIndex", "dedup_sorted", "segment_layout"]

#: FNV-1a constants, reused as polynomial-hash base/offset (the probe
#: only needs a well-mixed 64-bit fold with silent wraparound).
_HASH_BASE = np.uint64(1099511628211)
_HASH_OFFSET = np.uint64(1469598103934665603)
_ONE = np.uint64(1)


def segment_layout(length: int, parts: int) -> list[tuple[int, int]]:
    """PASS-JOIN's even partition: ``parts`` contiguous ``(start, len)``
    segments covering ``length`` characters, the remainder spread over
    the *last* segments so lengths differ by at most one.

    Segments may be zero-length when ``length < parts``; a zero-length
    segment trivially survives any edit script, which keeps very short
    and empty strings reachable.
    """
    base, rem = divmod(length, parts)
    layout = []
    start = 0
    for i in range(parts):
        seg_len = base + (1 if i >= parts - rem else 0)
        layout.append((start, seg_len))
        start += seg_len
    return layout


def _encode_codes(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as a padded uint32 code-point matrix plus lengths.

    UTF-32-LE gives one code unit per code point for *every* Python
    string (surrogates passed through), so hashing never has to reject
    input; padding cells are never read because windows stay inside
    each string's true length.
    """
    return _pad_rows(
        strings,
        None,
        lambda joined: np.frombuffer(
            joined.encode("utf-32-le", "surrogatepass"), dtype="<u4"
        ),
    )


def _fold(h: np.ndarray, col: np.ndarray) -> np.ndarray:
    return h * _HASH_BASE + col.astype(np.uint64) + _ONE


def _hash_rows(codes: np.ndarray) -> np.ndarray:
    """Polynomial hash of each row of a 2-D uint32 slab."""
    h = np.full(codes.shape[0], _HASH_OFFSET, dtype=np.uint64)
    for j in range(codes.shape[1]):
        h = _fold(h, codes[:, j])
    return h


def _expand_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Indices ``[s, s + c)`` for every (start, count) pair, concatenated."""
    total = int(counts.sum())
    base = np.repeat(starts, counts)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return base + within


def dedup_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values via sort + neighbor-diff.

    Equivalent to ``np.unique`` but orders of magnitude faster on this
    workload: NumPy >= 2.3 routes integer ``unique`` through a hash
    table whose per-element cost dwarfs a plain sort for the tens of
    millions of candidate keys a probe batch produces.
    """
    if len(values) == 0:
        return values
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class SegmentIndex:
    """The probe half of a PASS-JOIN index: per ``(length, segment)``
    buckets of sorted segment hashes with the indexed ids alongside.

    :class:`PassJoinIndex` builds one from strings.  :meth:`flat` lays
    the buckets end to end as three arrays a process can publish, and
    :meth:`from_flat` rebuilds a probe-only view over them (slices, no
    copies) — so a pool worker probes exactly the code an in-process
    caller does.
    """

    def __init__(self, k: int, n: int = 0):
        self.k = k
        self.parts = k + 1
        self._n = n
        #: (length, segment_i) -> (sorted hashes, ids in hash order)
        self._buckets: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        #: length -> segment layout, for lengths present in the index
        self._layouts: dict[int, list[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return self._n

    # -- the publishable form ------------------------------------------------

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hashes, ids, table)``: every bucket's hashes and ids
        concatenated, and an ``(m, 4)`` int64 table whose rows
        ``(length, segment, lo, hi)`` locate each bucket in them."""
        keys = sorted(self._buckets)
        sizes = np.array(
            [len(self._buckets[key][0]) for key in keys], dtype=np.int64
        )
        hi = np.cumsum(sizes)
        table = np.empty((len(keys), 4), dtype=np.int64)
        table[:, :2] = np.array(keys, dtype=np.int64).reshape(-1, 2)
        table[:, 2] = hi - sizes
        table[:, 3] = hi
        if not keys:
            return np.empty(0, np.uint64), np.empty(0, np.int64), table
        hashes = np.concatenate([self._buckets[key][0] for key in keys])
        ids = np.concatenate([self._buckets[key][1] for key in keys])
        return hashes, ids, table

    @staticmethod
    def from_flat(
        k: int,
        n: int,
        hashes: np.ndarray,
        ids: np.ndarray,
        table: np.ndarray,
    ) -> "SegmentIndex":
        """Probe-only view of an index of ``n`` strings over the
        arrays :meth:`flat` returned."""
        index = SegmentIndex(k, n)
        for length, seg, lo, hi in table.tolist():
            index._buckets[(length, seg)] = (hashes[lo:hi], ids[lo:hi])
            if length not in index._layouts:
                index._layouts[length] = segment_layout(length, index.parts)
        return index

    # -- probing -------------------------------------------------------------

    def _window_hashes(
        self, q_codes: np.ndarray, qlen: int, p: int, seg_len: int
    ) -> list[np.ndarray]:
        """Hashes of window ``[p, p + seg_len)`` of every query row,
        plus the applicable boundary-swap variants."""
        if seg_len == 0:
            return [np.full(q_codes.shape[0], _HASH_OFFSET, dtype=np.uint64)]
        # Shared fold over columns p .. p+seg_len-2, seeded with either
        # the window's own first character or its left neighbor.
        pre_base = _fold(
            np.full(q_codes.shape[0], _HASH_OFFSET, dtype=np.uint64),
            q_codes[:, p],
        )
        pre_left = (
            _fold(
                np.full(q_codes.shape[0], _HASH_OFFSET, dtype=np.uint64),
                q_codes[:, p - 1],
            )
            if p >= 1
            else None
        )
        for j in range(p + 1, p + seg_len - 1):
            pre_base = _fold(pre_base, q_codes[:, j])
            if pre_left is not None:
                pre_left = _fold(pre_left, q_codes[:, j])
        last = q_codes[:, p + seg_len - 1] if seg_len >= 2 else None
        right = q_codes[:, p + seg_len] if p + seg_len < qlen else None
        out = []
        if seg_len == 1:
            # pre_base/pre_left already fold the single character.
            out.append(pre_base)
            if pre_left is not None:
                out.append(pre_left)
            if right is not None:
                out.append(
                    _fold(
                        np.full(
                            q_codes.shape[0], _HASH_OFFSET, dtype=np.uint64
                        ),
                        right,
                    )
                )
            return out
        out.append(_fold(pre_base, last))
        if pre_left is not None:
            out.append(_fold(pre_left, last))
        if right is not None:
            out.append(_fold(pre_base, right))
        if pre_left is not None and right is not None:
            out.append(_fold(pre_left, right))
        return out

    def _probe_group(
        self, q_idx: np.ndarray, q_codes: np.ndarray, qlen: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """All (query, id) collisions for one query-length group."""
        k = self.k
        hit_q: list[np.ndarray] = []
        hit_id: list[np.ndarray] = []
        for length, layout in self._layouts.items():
            delta = qlen - length
            if abs(delta) > k:
                continue
            for i, (p_i, seg_len) in enumerate(layout):
                lo = max(0, p_i - k, p_i + delta - k)
                hi = min(qlen - seg_len, p_i + k, p_i + delta + k)
                if hi < lo:
                    continue
                hashes, ids = self._buckets[(length, i)]
                for p in range(lo, hi + 1):
                    for qh in self._window_hashes(q_codes, qlen, p, seg_len):
                        left = np.searchsorted(hashes, qh, side="left")
                        right = np.searchsorted(hashes, qh, side="right")
                        counts = right - left
                        nz = counts > 0
                        if not nz.any():
                            continue
                        starts, counts = left[nz], counts[nz]
                        hit_q.append(np.repeat(q_idx[nz], counts))
                        hit_id.append(ids[_expand_ranges(starts, counts)])
        return hit_q, hit_id

    def probe_codes(
        self,
        q_codes: np.ndarray,
        q_lens: np.ndarray,
        *,
        max_pairs: int = 1 << 20,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield deduplicated ``(query_idx, ids)`` candidate blocks for
        queries given as a padded code matrix plus lengths.

        Any integer code dtype works: :func:`_fold` widens every code to
        ``uint64``, so the latin-1 bytes of
        :func:`repro.distance.codec.encode_raw` hash exactly like the
        UTF-32 code points of :func:`_encode_codes`.  Complete for
        ``osa(query, indexed) <= self.k`` (see the module docstring for
        the OSA variant argument); blocks are capped at ``max_pairs``
        pairs and grouped by query length, queries ascending within a
        group.
        """
        n_index = len(self)
        if not n_index or not len(q_lens):
            return
        for qlen in dedup_sorted(q_lens):
            qlen = int(qlen)
            q_idx = np.flatnonzero(q_lens == qlen).astype(np.int64)
            hit_q, hit_id = self._probe_group(q_idx, q_codes[q_idx], qlen)
            if not hit_q:
                continue
            # One window can match through several variants and one
            # pair through several segments: dedup on (query, id) so a
            # candidate reaches the verifier exactly once.
            key = dedup_sorted(
                np.concatenate(hit_q) * n_index + np.concatenate(hit_id)
            )
            qi = key // n_index
            ids = key - qi * n_index
            for c0 in range(0, len(qi), max_pairs):
                yield qi[c0 : c0 + max_pairs], ids[c0 : c0 + max_pairs]


class PassJoinIndex(SegmentIndex):
    """Inverted segment index over one side of a join.

    ``candidate_blocks(queries)`` yields ``(query_idx, indexed_ids)``
    int64 array pairs — deduplicated, every true OSA-``<= k`` pair
    included — in the same block contract as
    :meth:`repro.core.index.FBFIndex.candidate_blocks`.  Whether empty
    or equal strings *match* stays the verifier's decision; the index
    only guarantees it never withholds a reachable pair.
    """

    def __init__(self, strings: Sequence[str], *, k: int = 1):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        super().__init__(k)
        self.strings: list[str] = []
        self.extend(strings)

    def __len__(self) -> int:
        return len(self.strings)

    def extend(self, strings: Sequence[str]) -> None:
        """Index more strings; their ids continue from ``len(self)``.

        Only the new rows are encoded and hashed.  Their segment hashes
        are merged into the ``(length, segment)`` buckets after any
        equal hashes already there, so the buckets come out exactly as
        a fresh build over all the strings would lay them out.  New
        lengths get their layout.  Nothing is changed until every new
        row has been hashed.
        """
        new = list(strings)
        codes, lens = _encode_codes(new)
        offset = len(self.strings)
        layouts: dict[int, list[tuple[int, int]]] = {}
        buckets: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for length in dedup_sorted(lens):
            length = int(length)
            rows = np.flatnonzero(lens == length)
            ids = rows.astype(np.int64) + offset
            layout = segment_layout(length, self.parts)
            layouts[length] = layout
            for i, (start, seg_len) in enumerate(layout):
                h = _hash_rows(codes[rows, start : start + seg_len])
                order = np.argsort(h, kind="stable")
                h, seg_ids = h[order], ids[order]
                held = self._buckets.get((length, i))
                if held is not None:
                    at = np.searchsorted(held[0], h, side="right")
                    h = np.insert(held[0], at, h)
                    seg_ids = np.insert(held[1], at, seg_ids)
                buckets[(length, i)] = (h, seg_ids)
        self.strings.extend(new)
        self._layouts.update(layouts)
        self._buckets.update(buckets)

    def candidate_blocks(
        self,
        queries: Sequence[str],
        *,
        max_pairs: int = 1 << 20,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield deduplicated ``(query_idx, ids)`` candidate blocks:
        the queries encoded as UTF-32 code points, then
        :meth:`probe_codes`."""
        if not len(self.strings) or not len(queries):
            return
        q_codes, q_lens = _encode_codes(queries)
        yield from self.probe_codes(q_codes, q_lens, max_pairs=max_pairs)

    def candidates(self, query: str) -> np.ndarray:
        """Candidate ids for one probe string (sorted ascending)."""
        parts = [ids for _, ids in self.candidate_blocks([query])]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)
