"""FBF signature index: one-to-many approximate search (extension).

The paper's join (Algorithm 7) is batch many-to-many; its motivating
system also answers *online* "client match queries" against the indexed
population.  :class:`FBFIndex` serves that shape: index a dataset once
(signatures + length buckets), then answer ``search(query, k)`` by

1. **length pruning** — only buckets with ``abs(len - len(query)) <= k``
   are touched at all (Algorithm 3, at bucket granularity);
2. **FBF filtering** — one vectorized XOR+popcount sweep over each
   surviving bucket's signature matrix, keeping
   ``diff_bits <= 2k + slack``;
3. **verification** — banded OSA (the paper's PDL semantics) over the
   few survivors, or Myers' bit-parallel Levenshtein for
   transposition-less workloads.

Both filter stages are *safe* (never drop a true match; property-tested
in ``tests/core/test_index.py``), so ``search`` returns exactly the
strings within ``k`` edits.  ``add`` supports the paper's daily-update
scenario: new strings are appended to pending buckets and folded into
the packed matrices lazily.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core.popcount import popcount_batch_u32
from repro.core.signatures import SignatureScheme, detect_kind, scheme_for
from repro.core.vectorized import signatures_for_scheme
from repro.distance.base import validate_threshold
from repro.obs.stats import NULL_COLLECTOR
from repro.distance.bitparallel import osa_bitparallel_batch
from repro.distance.codec import encode_raw
from repro.distance.myers import MAX_PATTERN, myers_batch
from repro.distance.vectorized import osa_within_k_pairs

__all__ = ["FBFIndex"]


class _Bucket:
    """All indexed strings of one length: packed arrays + pending adds."""

    def __init__(self, width: int):
        self.ids: np.ndarray = np.empty(0, dtype=np.int64)
        self.sigs: np.ndarray = np.empty((0, width), dtype=np.uint32)
        self.codes: np.ndarray = np.empty((0, 0), dtype=np.uint8)
        self.pending: list[int] = []

    def __len__(self) -> int:
        return len(self.ids) + len(self.pending)


class FBFIndex:
    """An updatable FBF-filtered index over short strings.

    Parameters
    ----------
    strings:
        Initial contents (may be empty).
    scheme:
        FBF signature scheme or kind string; auto-detected when omitted
        (re-detection never happens after construction, so feed a
        representative initial batch or name the kind explicitly).
    verifier:
        ``"osa"`` (default: the paper's edit distance via the banded
        DP), ``"osa-bitparallel"`` (same metric, Hyyrö-style one-word
        bit-state — typically the fastest exact option for patterns up
        to 64 chars), or ``"myers"`` (bit-parallel Levenshtein; fastest,
        but transpositions count 2 — strictly fewer matches).
    """

    VERIFIERS = ("osa", "osa-bitparallel", "myers")

    def __init__(
        self,
        strings: Sequence[str] = (),
        *,
        scheme: SignatureScheme | str | None = None,
        verifier: str = "osa",
    ):
        if verifier not in self.VERIFIERS:
            raise ValueError(
                f"verifier must be one of {self.VERIFIERS}, got {verifier!r}"
            )
        if isinstance(scheme, str):
            scheme = scheme_for(scheme)
        if scheme is None:
            kind = detect_kind(strings) if len(strings) else "alnum"
            scheme = scheme_for(kind)
        self.scheme = scheme
        self.verifier = verifier
        self._strings: list[str] = []
        self._buckets: dict[int, _Bucket] = defaultdict(
            lambda: _Bucket(self.scheme.width)
        )
        self._generation = 0
        if strings:
            self.extend(strings)

    # -- mutation ----------------------------------------------------------

    def add(self, s: str) -> int:
        """Index one string; returns its id (position of insertion)."""
        sid = len(self._strings)
        self._strings.append(s)
        self._buckets[len(s)].pending.append(sid)
        self._generation += 1
        return sid

    def extend(self, strings: Sequence[str]) -> None:
        """Index a batch."""
        for s in strings:
            self.add(s)

    @property
    def generation(self) -> int:
        """Monotonic mutation counter: bumped once per :meth:`add`.

        Anything derived from the index contents — a result cache, a
        prepared query engine — is valid exactly as long as the
        generation it was built under; comparing generations is the
        cheap staleness test the serve layer keys its caches on.
        """
        return self._generation

    @property
    def dirty(self) -> bool:
        """True while any added string awaits folding into the packed
        arrays.

        Packing is lazy: :meth:`search` folds only the buckets a query
        touches, so after :meth:`add` the first search in each affected
        length window quietly pays the packing cost.  This flag (and
        the explicit :meth:`pack`) makes that state observable, so
        latency-sensitive callers can pack eagerly and tests can pin
        when packing happens.
        """
        return any(b.pending for b in self._buckets.values())

    def pack(self) -> None:
        """Eagerly fold every pending add into the packed arrays."""
        for bucket in self._buckets.values():
            self._pack(bucket)

    def __len__(self) -> int:
        return len(self._strings)

    @property
    def strings(self) -> list[str]:
        """The indexed strings, id-ordered.

        This is the live internal list, not a copy — a
        :class:`~repro.parallel.prepared.PreparedSide` built with
        :meth:`~repro.parallel.prepared.PreparedSide.over_index` holds
        it, so rows added here reach the prepared side on its next use.
        Do not mutate it; use :meth:`add` / :meth:`extend`.
        """
        return self._strings

    def __getitem__(self, sid: int) -> str:
        return self._strings[sid]

    def _pack(self, bucket: _Bucket) -> None:
        """Fold pending adds into the bucket's packed arrays."""
        if not bucket.pending:
            return
        new_strings = [self._strings[sid] for sid in bucket.pending]
        new_sigs = signatures_for_scheme(new_strings, self.scheme)
        if new_sigs.ndim == 1:
            new_sigs = new_sigs[:, None]
        new_codes, _ = encode_raw(new_strings)
        width = max(bucket.codes.shape[1], new_codes.shape[1])

        def pad(arr: np.ndarray) -> np.ndarray:
            if arr.shape[1] == width:
                return arr
            out = np.zeros((arr.shape[0], width), dtype=np.uint8)
            out[:, : arr.shape[1]] = arr
            return out

        bucket.ids = np.concatenate(
            [bucket.ids, np.asarray(bucket.pending, dtype=np.int64)]
        )
        bucket.sigs = np.concatenate([bucket.sigs, new_sigs.astype(np.uint32)])
        bucket.codes = np.concatenate([pad(bucket.codes), pad(new_codes)])
        bucket.pending.clear()

    # -- search ------------------------------------------------------------

    def search(
        self,
        query: str,
        k: int = 1,
        *,
        collector=None,
        verifier: str | None = None,
    ) -> list[int]:
        """Ids of every indexed string within ``k`` edits of ``query``.

        Exact with respect to the configured verifier's metric (OSA by
        default); ``verifier`` overrides the configured one for this
        query.  Results are sorted by id.  Following the paper's PDL
        semantics, empty strings — as query or as indexed entries —
        never match anything.

        With a :class:`repro.obs.StatsCollector` the search reports the
        same funnel the join drivers do, treating every indexed string
        as a considered pair: a ``length`` stage (bucket pruning), an
        ``fbf`` stage (signature filtering), then survivors = verified
        candidates and the matched count.  The conservation invariant
        holds per search and accumulates across searches.
        """
        validate_threshold(k)
        if verifier is None:
            verifier = self.verifier
        elif verifier not in self.VERIFIERS:
            raise ValueError(
                f"verifier must be one of {self.VERIFIERS}, got {verifier!r}"
            )
        obs = collector if collector else NULL_COLLECTOR
        n = len(self._strings)
        obs.add_pairs(n)
        if not self._strings or not query:
            obs.add_stage("length", n, 0)
            obs.add_stage("fbf", 0, 0)
            return []
        qsig = np.asarray(self.scheme.signature(query), dtype=np.uint32)
        bound = self.scheme.safe_threshold(k)
        window = 0
        survivors = 0
        matched = 0
        hits: list[np.ndarray] = []
        for length in range(max(1, len(query) - k), len(query) + k + 1):
            bucket = self._buckets.get(length)
            if bucket is None or len(bucket) == 0:
                continue
            self._pack(bucket)
            window += len(bucket.ids)
            db = np.zeros(len(bucket.ids), dtype=np.uint16)
            for w in range(self.scheme.width):
                db += popcount_batch_u32(bucket.sigs[:, w] ^ qsig[w])
            cand = np.nonzero(db <= bound)[0]
            survivors += int(cand.size)
            if cand.size == 0:
                continue
            ok = self._verify(query, bucket, cand, k, verifier)
            found = bucket.ids[cand[ok]]
            matched += len(found)
            hits.append(found)
        obs.add_stage("length", n, window)
        obs.add_stage("fbf", window, survivors)
        obs.add_survivors(survivors)
        obs.add_verified(survivors)
        obs.add_matched(matched)
        if not hits:
            return []
        out = np.concatenate(hits)
        out.sort()
        return out.tolist()

    def candidate_blocks(
        self,
        queries: Sequence[str],
        k: int = 1,
        *,
        max_pairs: int = 1 << 20,
        collector=None,
    ):
        """Yield FBF-filtered candidate blocks for a batch of queries.

        This is the index acting as a *candidate generator* for the plan
        layer: no verification happens here.  Each yielded block is a
        ``(query_idx, ids)`` pair of equal-length index arrays — every
        candidate passed the bucket length window **and** the FBF
        signature bound, so for edit-bounded verifiers no true match is
        dropped (the filters' safety property, at index granularity).

        Unlike :meth:`search`, empty queries and length-0 buckets *are*
        included: whether empty strings match is the verifier's call
        (the paper's DL says yes within ``k``, PDL says no), and a
        generator must not pre-empt it.

        ``max_pairs`` caps the query-rows × bucket-size product of one
        dense XOR sweep; larger groups are split by query rows.
        """
        validate_threshold(k)
        obs = collector if collector else NULL_COLLECTOR
        n_right = len(self._strings)
        product = len(queries) * n_right
        obs.add_pairs(product)
        if n_right == 0 or not len(queries):
            obs.add_stage("length", product, 0)
            obs.add_stage("fbf", 0, 0)
            return
        by_len: dict[int, list[int]] = defaultdict(list)
        for qi, q in enumerate(queries):
            by_len[len(q)].append(qi)
        qsigs = signatures_for_scheme(list(queries), self.scheme)
        if qsigs.ndim == 1:
            qsigs = qsigs[:, None]
        qsigs = qsigs.astype(np.uint32)
        bound = self.scheme.safe_threshold(k)
        window = 0
        emitted = 0
        for qlen in sorted(by_len):
            q_idx = np.asarray(by_len[qlen], dtype=np.int64)
            for length in range(max(0, qlen - k), qlen + k + 1):
                bucket = self._buckets.get(length)
                if bucket is None or len(bucket) == 0:
                    continue
                self._pack(bucket)
                m = len(bucket.ids)
                window += len(q_idx) * m
                rows = max(1, max_pairs // m)
                for r0 in range(0, len(q_idx), rows):
                    qchunk = q_idx[r0 : r0 + rows]
                    db = np.zeros((len(qchunk), m), dtype=np.uint16)
                    for w in range(self.scheme.width):
                        db += popcount_batch_u32(
                            qsigs[qchunk, w][:, None] ^ bucket.sigs[None, :, w]
                        )
                    qi2, bi2 = np.nonzero(db <= bound)
                    if len(qi2):
                        emitted += len(qi2)
                        yield qchunk[qi2], bucket.ids[bi2]
        obs.add_stage("length", product, window)
        obs.add_stage("fbf", window, emitted)

    def _verify(
        self,
        query: str,
        bucket: _Bucket,
        cand: np.ndarray,
        k: int,
        verifier: str | None = None,
    ) -> np.ndarray:
        if verifier is None:
            verifier = self.verifier
        # All strings in a bucket share one length; recover it from the
        # strings rather than trusting the padded matrix width.
        real_len = len(self._strings[int(bucket.ids[0])])
        lengths = np.full(len(bucket.ids), real_len, dtype=np.int64)
        fits_word = 0 < len(query) <= MAX_PATTERN
        if verifier == "myers" and fits_word:
            dists = myers_batch(query, bucket.codes[cand], lengths[cand])
            return dists <= k
        if verifier == "osa-bitparallel" and fits_word:
            dists = osa_bitparallel_batch(query, bucket.codes[cand], lengths[cand])
            return dists <= k
        qcodes, qlen = encode_raw([query])
        ii = np.zeros(len(cand), dtype=np.int64)
        return osa_within_k_pairs(
            qcodes, qlen, bucket.codes, lengths, ii, cand, k
        )

    def search_strings(self, query: str, k: int = 1) -> list[str]:
        """Like :meth:`search` but returning the matched strings."""
        return [self._strings[sid] for sid in self.search(query, k)]

    # -- packed-state export / import --------------------------------------

    def packed_buckets(self):
        """Yield every bucket's packed state: ``(length, ids, sigs, codes)``.

        Packs pending adds first, so the yielded arrays cover the whole
        index.  The arrays are the live internals (not copies) — callers
        persisting them (the serve layer's snapshots) must not mutate
        them.  Empty buckets are skipped.
        """
        self.pack()
        for length in sorted(self._buckets):
            bucket = self._buckets[length]
            if len(bucket.ids):
                yield length, bucket.ids, bucket.sigs, bucket.codes

    @classmethod
    def from_packed(
        cls,
        strings: Sequence[str],
        buckets,
        *,
        scheme: SignatureScheme | str,
        verifier: str = "osa",
    ) -> "FBFIndex":
        """Rebuild an index from previously packed state without
        recomputing signatures or codes — the warm-start path behind
        :mod:`repro.serve` snapshots.

        ``buckets`` is an iterable of ``(length, ids, sigs, codes)``
        tuples as produced by :meth:`packed_buckets`; every string id
        must appear in exactly one bucket.
        """
        index = cls((), scheme=scheme, verifier=verifier)
        index._strings = list(strings)
        covered = 0
        for length, ids, sigs, codes in buckets:
            bucket = index._buckets[int(length)]
            bucket.ids = np.asarray(ids, dtype=np.int64)
            bucket.sigs = np.asarray(sigs, dtype=np.uint32)
            bucket.codes = np.asarray(codes, dtype=np.uint8)
            if bucket.sigs.shape != (len(bucket.ids), index.scheme.width):
                raise ValueError(
                    f"bucket {length}: signature matrix shape "
                    f"{bucket.sigs.shape} does not fit {len(bucket.ids)} "
                    f"ids under scheme {index.scheme.name!r}"
                )
            covered += len(bucket.ids)
        if covered != len(index._strings):
            raise ValueError(
                f"packed buckets cover {covered} ids for "
                f"{len(index._strings)} strings"
            )
        index._generation = len(index._strings)
        return index
