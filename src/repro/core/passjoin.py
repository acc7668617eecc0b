"""PASS-JOIN partition index: sub-quadratic candidates for OSA <= k.

The partition scheme of Li, Deng & Feng (PASS-JOIN, arXiv 1111.7171):
split every indexed string into ``k + 1`` contiguous segments.  For
plain Levenshtein the pigeonhole argument is immediate — ``k`` edits
can destroy at most ``k`` segments, so any string within distance ``k``
contains at least one segment *verbatim* as a substring, at a start
position bounded by the edits around it.  Probing therefore touches
only the inverted-index entries for ``O(k^2)`` substring windows
instead of walking the product.

**Which windows (multi-match-aware selection, Li et al. §4).**  Segment
``i`` (0-based, start ``p_i``, length ``l_i``) of an indexed string of
length ``L`` is probed in a query of length ``|q|``, ``D = |q| - L``,
only at starts

    max(p_i - i, p_i + D - (k - i)) <= p <= min(p_i + i, p_i + D + (k - i))

clipped to ``0 <= p <= |q| - l_i`` (:func:`probe_window`).  Per
``(|q|, L)`` pair that is ``floor((k^2 - D^2) / 2) + k + 1`` windows
before clipping.  Over the ``2k + 1`` lengths a query meets, that is 6
windows and 9 bucket searches at k = 1 (19 and 33 at k = 2), where the
plain shift bound (``|p - p_i| <= k`` and ``|p - p_i - D| <= k`` for
every segment) with four variants per window took 10 windows and 28
searches (43 and about 150), counted for a query of 8 to 13
characters.

**This repo's edit distance is OSA, not Levenshtein.**  The ``dl`` /
``pdl`` verifiers are restricted Damerau-Levenshtein (adjacent
transposition costs one edit), and the classic partition probe is
*incomplete* there: ``osa("AB", "BA") == 1``, but partitioning ``"AB"``
into ``"A"|"B"`` and probing with ``"BA"`` finds neither segment — one
transposition straddles the segment boundary and corrupts both halves.
So each window ``c = q[p : p + l]`` is looked up twice: as itself and
as its right-boundary swap ``vR = q[p : p + l - 1] + q[p + l]`` (when
the query goes on past the window).

Soundness.  Take an OSA edit script of at most ``k`` operations from
the indexed string ``r`` to ``q``; OSA edits no character twice.  Charge
every operation to one segment of ``r``: a substitution, deletion or
interior transposition to the segment it touches, an insertion to the
segment after it (the last segment for one at the end), and a
transposition that straddles the boundary between segments ``i`` and
``i + 1`` to segment ``i + 1`` — the one holding its right character.
Let ``c_j`` be the charges of segment ``j`` and ``f(i) = c_0 + ... +
c_{i-1} - i``.  Then ``f(0) = 0``, ``f(k + 1) <= k - (k + 1) = -1``,
and ``f`` falls by at most one per segment, so it first reaches ``-1``
at some ``i + 1`` with ``f(i) = 0`` and ``c_i = 0``: segment ``i`` has
no charge, exactly ``i`` operations lie left of it and at most ``k - i``
right of it (Li et al.'s counting, unchanged).  The operations left of
it shift its start by at most ``i``; the ones right of it move ``D`` by
at most ``k - i`` from that shift — the window bounds above.  The only
operation that can touch an uncharged segment is a transposition across
its *right* boundary, charged to the next segment: it moves the
segment's last character one slot right and shifts nothing, which is
exactly ``vR``.  A swap across its *left* boundary is charged to the
segment itself, so the ``vL``/``vLR`` variants an uncharged segment
would need never arise, and the probe does not hash them.  Both
variants only *add* candidates, so Levenshtein completeness is
untouched (OSA never exceeds it), and spurious candidates are rejected
by the verifier.  Zero-length segments (``L < k + 1``) hash as the
empty string and match at any start, which keeps short and empty
strings reachable.

The index stores no substrings: each (length, segment) bucket keeps a
sorted run of 64-bit polynomial hashes of the segment's code points
with the indexed ids alongside, all buckets end to end in one flat
``(hashes, ids, table)`` layout.  Two probes read it and find the same
candidates: :meth:`SegmentIndex.probe_codes` hashes a query-length
group's windows vectorized and binary-searches the buckets with NumPy
(the reference, and the fallback without a compiled provider), and the
compiled ``passjoin_run`` kernel (:mod:`repro.native`) does the same per
query in C, with a branch-free search of each bucket, and filters and
verifies each candidate there — the pass the vectorized backend, serve
batches, stream chunks and the hybrid pool workers run whenever the
provider loads.  A query that repeats an earlier one of the same call
(same codes and, under FBF, signature row) is answered there from the
first copy's output when the call emits unweighted pairs; the NumPy
probe runs every query and stays the reference.  Hash collisions produce
spurious candidates only (the verifier decides); they never drop one.
Code points come from UTF-32 so any Python string — full Unicode, NUL
bytes, empty — round-trips without the latin-1 restriction of the
packed join codecs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.distance.codec import _pad_rows

__all__ = [
    "PassJoinIndex",
    "SegmentIndex",
    "dedup_sorted",
    "probe_window",
    "segment_layout",
]

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


def probe_window(p_i: int, seg: int, k: int, delta: int) -> tuple[int, int]:
    """First and last query start at which segment ``seg`` (start
    ``p_i``) of an indexed string ``delta`` characters shorter than the
    query is probed, before clipping to the query: at most ``seg`` edits
    lie left of the segment and at most ``k - seg`` right of it (see the
    module docstring)."""
    rest = k - seg
    lo = max(p_i - seg, p_i + delta - rest)
    return lo, min(p_i + seg, p_i + delta + rest)


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
    """The probe half of a PASS-JOIN index, in one flat layout.

    ``hashes``/``ids`` hold every ``(length, segment)`` bucket end to
    end — each bucket's segment hashes sorted ascending, equal hashes in
    id order, the indexed ids alongside — and ``table`` is an ``(m, 4)``
    int64 array whose rows ``(length, segment, lo, hi)``, sorted by
    ``(length, segment)``, locate each bucket.  Every indexed length has
    all ``k + 1`` of its segment buckets.  :class:`PassJoinIndex` builds
    and extends the arrays; a process publishes them as they are
    (:meth:`flat`) and :meth:`from_flat` wraps them again, so a pool
    worker probes exactly the arrays an in-process caller does.
    """

    def __init__(self, k: int, n: int = 0):
        self.k = k
        self.parts = k + 1
        self._n = n
        self.hashes = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.int64)
        self.table = np.empty((0, 4), dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    # -- the publishable form ------------------------------------------------

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hashes, ids, table)``: the held arrays themselves."""
        return self.hashes, self.ids, self.table

    @staticmethod
    def from_flat(
        k: int,
        n: int,
        hashes: np.ndarray,
        ids: np.ndarray,
        table: np.ndarray,
    ) -> "SegmentIndex":
        """Probe-only view of an index of ``n`` strings over the
        arrays :meth:`flat` returned (no copies)."""
        index = SegmentIndex(k, n)
        index.hashes, index.ids, index.table = hashes, ids, table
        return index

    def check(self, n: int) -> None:
        """Raise ``ValueError`` unless every probe stays inside the
        arrays of an index over ``n`` strings: ``ids`` as long as
        ``hashes`` and naming rows ``0..n-1``, ``table`` rows strictly
        sorted by ``(length >= 0, 0 <= segment <= k)`` with ``0 <= lo
        <= hi <= len(hashes)``.  The compiled probe trusts all of it, so
        arrays from outside the program (a snapshot) must pass first."""
        table, size = self.table, len(self.hashes)
        ok = len(self.ids) == size and table.ndim == 2 and table.shape[1] == 4
        if ok and len(table):
            length, seg, lo, hi = table.T
            dl, ds = np.diff(length), np.diff(seg)
            ok = bool(
                length.min() >= 0 and seg.min() >= 0 and seg.max() <= self.k
                and ((dl > 0) | ((dl == 0) & (ds > 0))).all()
                and lo.min() >= 0 and (lo <= hi).all() and hi.max() <= size
            )
        if ok and size:
            ok = bool(self.ids.min() >= 0 and self.ids.max() < n)
        if not ok:
            raise ValueError(
                f"invalid PASS-JOIN arrays for k={self.k} over {n} strings"
            )

    # -- probing -------------------------------------------------------------

    def _window_hashes(
        self, q_codes: np.ndarray, qlen: int, p: int, seg_len: int
    ) -> list[np.ndarray]:
        """Hashes of window ``[p, p + seg_len)`` of every query row and,
        when the query goes on past it, of its right-boundary swap vR."""
        h = np.full(q_codes.shape[0], _HASH_OFFSET, dtype=np.uint64)
        if seg_len == 0:
            return [h]
        for j in range(p, p + seg_len - 1):
            h = _fold(h, q_codes[:, j])
        out = [_fold(h, q_codes[:, p + seg_len - 1])]
        if p + seg_len < qlen:
            out.append(_fold(h, q_codes[:, p + seg_len]))
        return out

    def _probe_group(
        self,
        q_idx: np.ndarray,
        q_codes: np.ndarray,
        qlen: int,
        buckets: list[tuple[int, int, int, int, int, int]],
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """All (query, id) collisions for one query-length group;
        ``buckets`` holds ``(length, segment, start, seg_len, lo, hi)``
        per table row."""
        k = self.k
        hit_q: list[np.ndarray] = []
        hit_id: list[np.ndarray] = []
        for length, seg, p_i, seg_len, b_lo, b_hi in buckets:
            delta = qlen - length
            if abs(delta) > k:
                continue
            lo, hi = probe_window(p_i, seg, k, delta)
            lo, hi = max(lo, 0), min(hi, qlen - seg_len)
            if hi < lo:
                continue
            hashes, ids = self.hashes[b_lo:b_hi], self.ids[b_lo:b_hi]
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
        group and ids ascending within a query.  This is the reference:
        the compiled run (``KernelSet.passjoin_run``) must find the same
        candidates per query and emit its pairs in this order.
        """
        n_index = len(self)
        if not n_index or not len(q_lens):
            return
        buckets = [
            (length, seg, *segment_layout(length, self.parts)[seg], lo, hi)
            for length, seg, lo, hi in self.table.tolist()
        ]
        for qlen in dedup_sorted(q_lens):
            qlen = int(qlen)
            q_idx = np.flatnonzero(q_lens == qlen).astype(np.int64)
            hit_q, hit_id = self._probe_group(
                q_idx, q_codes[q_idx], qlen, buckets
            )
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
    included — the block contract of the plan layer's candidate
    generators.  Whether empty or equal strings *match* stays the
    verifier's decision; the index only guarantees it never withholds a
    reachable pair.
    """

    def __init__(self, strings: Sequence[str], *, k: int = 1):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        super().__init__(k)
        self.strings: list[str] = []
        self.extend(strings)

    @classmethod
    def from_arrays(
        cls,
        strings: Sequence[str],
        k: int,
        hashes: np.ndarray,
        ids: np.ndarray,
        table: np.ndarray,
    ) -> "PassJoinIndex":
        """The index over ``strings`` from the flat arrays a build over
        them laid out, hashing nothing (:meth:`check` arrays from
        outside the program); it extends like a built one."""
        index = cls((), k=k)
        index.strings = list(strings)
        index.hashes, index.ids, index.table = hashes, ids, table
        return index

    def __len__(self) -> int:
        return len(self.strings)

    def extend(self, strings: Sequence[str]) -> None:
        """Index more strings; their ids continue from ``len(self)``.

        Only the new rows are encoded and hashed.  Their segment hashes
        are inserted into the flat arrays after any equal hashes already
        in their ``(length, segment)`` bucket, and a new length's
        buckets go in ``(length, segment)`` order, so the arrays come
        out exactly as a fresh build over all the strings would lay them
        out.  Nothing is changed until every new row has been hashed.
        """
        new = list(strings)
        if not new:
            return
        codes, lens = _encode_codes(new)
        offset = len(self.strings)
        parts = self.parts
        table = self.table
        held_keys = table[:, 0] * parts + table[:, 1]
        sizes = dict(
            zip(held_keys.tolist(), (table[:, 3] - table[:, 2]).tolist())
        )
        at: list[np.ndarray] = []
        new_h: list[np.ndarray] = []
        new_ids: list[np.ndarray] = []
        for length in dedup_sorted(lens):
            length = int(length)
            rows = np.flatnonzero(lens == length)
            ids = rows.astype(np.int64) + offset
            for i, (start, seg_len) in enumerate(
                segment_layout(length, parts)
            ):
                h = _hash_rows(codes[rows, start : start + seg_len])
                order = np.argsort(h, kind="stable")
                h = h[order]
                key = length * parts + i
                t = int(np.searchsorted(held_keys, key))
                if t < len(held_keys) and held_keys[t] == key:
                    lo, hi = int(table[t, 2]), int(table[t, 3])
                    pos = lo + np.searchsorted(
                        self.hashes[lo:hi], h, side="right"
                    )
                else:
                    # A new bucket starts where the next held one does.
                    pos = np.full(
                        len(h),
                        table[t, 2] if t < len(table) else len(self.hashes),
                        dtype=np.int64,
                    )
                at.append(pos)
                new_h.append(h)
                new_ids.append(ids[order])
                sizes[key] = sizes.get(key, 0) + len(h)
        del codes
        if len(self.hashes):
            # np.insert keeps equal positions in the order given: within
            # a bucket, hash order; across new buckets, (length, segment)
            # order.
            at_all = np.concatenate(at)
            hashes = np.insert(self.hashes, at_all, np.concatenate(new_h))
            ids = np.insert(self.ids, at_all, np.concatenate(new_ids))
        else:  # the first rows: their buckets, in order, are the arrays
            hashes, ids = np.concatenate(new_h), np.concatenate(new_ids)
        keys = np.array(sorted(sizes), dtype=np.int64)
        counts = np.array(
            [sizes[key] for key in keys.tolist()], dtype=np.int64
        )
        hi = np.cumsum(counts)
        table = np.empty((len(keys), 4), dtype=np.int64)
        table[:, 0], table[:, 1] = np.divmod(keys, parts)
        table[:, 2] = hi - counts
        table[:, 3] = hi
        self.strings.extend(new)
        self.hashes, self.ids, self.table = hashes, ids, table

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
