"""The chunk kernels of the vectorized join, shared by every executor.

The paper's pipeline is two steps: a fingerprint filter costing one XOR
+ POPCNT per pair, then bounded-OSA verification.  Both the in-process
:class:`~repro.parallel.chunked.VectorEngine` and the shared-memory pool
workers (:mod:`repro.parallel.shm`) run them through this module, so
there is one implementation of each decision:

* :class:`Side` — one encoded dataset: the uint8 code matrix, the
  lengths, the FBF signatures packed into ``uint64`` words (the one
  signature word size), plus the pair-scoped soundex ids and
  value-identity codes a method may need.  The arrays are encoded in
  one place, :meth:`repro.parallel.prepared.PreparedSide.side`, by one
  walk over each new row block (:func:`encode_side`);
* :class:`Kernels` — one method stack bound to two sides: the verifier
  dispatch (NumPy or the compiled :mod:`repro.native` tier), the
  per-pair and dense filters, the diagonal rule and the funnel tally,
  over dense row ranges (:meth:`Kernels.run_rows`: an in-process full
  product is one range, a pool task one slice of it), candidate blocks
  (:meth:`Kernels.run_pairs`) or a PASS-JOIN probe
  (:meth:`Kernels.run_probe`, compiled when the native tier loaded).

Funnel accounting is per block: the per-block sums of any cut of the
work merge to the same counters, which is what lets pool workers report
into private collectors that the parent merges.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.multiplicity import PairWeighter
from repro.core.passjoin import SegmentIndex
from repro.core.popcount import popcount_batch_u64
from repro.core.vectorized import (
    codes_and_signatures,
    signatures_for_scheme,
    split_rows,
    stock_layout,
)
from repro.distance.codec import encode_raw
from repro.distance.vectorized import (
    hamming_pairs,
    jaro_pairs,
    jaro_winkler_pairs,
    osa_pairs,
    osa_within_k_pairs,
)
from repro.native import MODE_DL, MODE_PDL, loaded_kernels

__all__ = [
    "FILTER_CHUNK",
    "VERIFY_CHUNK",
    "Kernels",
    "Side",
    "encode_side",
    "pack_signatures",
]

#: pairs per chunk for the cheap sweeps (XOR+popcount, length masks,
#: Hamming, Soundex), whose per-pair state is a few bytes
FILTER_CHUNK = 1 << 20
#: pairs per chunk for the dynamic programs, whose per-pair state is
#: three rolling DP rows; keeps the working set cache-resident
VERIFY_CHUNK = 1 << 12


def pack_signatures(sigs: np.ndarray) -> np.ndarray:
    """Pack an ``(n, w)`` uint32 signature matrix into uint64 words.

    Halves the XOR+popcount sweeps per pair; odd widths are padded with
    a zero column (XOR of equal zeros contributes no diff bits, so the
    FBF distance is unchanged).
    """
    sigs = np.ascontiguousarray(sigs, dtype=np.uint32)
    if sigs.ndim == 1:
        sigs = sigs[:, None]
    n, w = sigs.shape
    if w == 0:
        return np.zeros((n, 1), dtype=np.uint64)
    if w % 2:
        padded = np.zeros((n, w + 1), dtype=np.uint32)
        padded[:, :w] = sigs
        sigs = padded
    return sigs.view(np.uint64)


def encode_side(
    strings: Sequence[str], scheme
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(codes, lengths, sigs)`` of a batch from one walk over it.

    ``codes``/``lengths`` are :func:`repro.distance.codec.encode_raw`'s
    (lossless latin-1, padded to the longest row) and ``sigs`` is
    ``scheme``'s signatures packed by :func:`pack_signatures`.  The
    latin-1 buffer is built once; a string with NUL or a character
    outside latin-1 raises ``encode_raw``'s :class:`ValueError`.  A stock
    scheme's codes and signatures come out of one pass
    (:func:`repro.core.vectorized.codes_and_signatures`, compiled when
    the native tier loaded); a custom scheme's signatures are computed
    per string.
    """
    layout = stock_layout(scheme)
    if layout is None:
        codes, lengths = encode_raw(strings)
        sigs = pack_signatures(signatures_for_scheme(strings, scheme))
        return codes, lengths, sigs
    try:
        buf, lengths = split_rows(
            "\x00".join(strings).encode("latin-1"), len(strings)
        )
    except UnicodeEncodeError:
        buf = lengths = None
    if lengths is None:
        # A non-latin-1 character or a NUL: encode_raw raises the
        # message naming the first such string.
        encode_raw(strings)
    codes, sigs = codes_and_signatures(buf, lengths, layout, loaded_kernels())
    return codes, lengths, sigs


class Side:
    """One encoded dataset side.

    ``codes``/``lengths`` feed the vectorized DP kernels and ``sigs`` is
    the packed-uint64 signature matrix.  ``sdx`` (soundex ids) and
    ``vid`` (value-identity codes for self-join diagonals) are only
    meaningful against the other side they were built with, so they
    belong to one pair of sides and stay ``None`` until a method needs
    them.
    """

    __slots__ = ("n", "codes", "lengths", "sigs", "sdx", "vid", "_by_len")

    def __init__(self, n, codes, lengths, sigs, sdx=None, vid=None):
        self.n = n
        self.codes = codes
        self.lengths = lengths
        self.sigs = sigs
        self.sdx = sdx
        self.vid = vid
        self._by_len = None

    def by_length(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, lengths, sigs)`` with the rows stably sorted by
        length: ``order`` maps each sorted position to its row.  Built
        on first use and kept until ``lengths`` or ``sigs`` is replaced.
        """
        cached = self._by_len
        if (
            cached is None
            or cached[0] is not self.lengths
            or cached[1] is not self.sigs
        ):
            order = np.argsort(self.lengths, kind="stable")
            cached = (
                self.lengths, self.sigs,
                (order, self.lengths[order], self.sigs[order]),
            )
            self._by_len = cached
        return cached[2]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _fbf_mask(pl: np.ndarray, pr: np.ndarray, bound: int) -> np.ndarray:
    """Dense ``diff_bits <= bound`` mask of packed rows ``pl`` against
    every row of ``pr``."""
    words = pl.shape[1]
    acc = None
    for w in range(words):
        pc = popcount_batch_u64(pl[:, w][:, None] ^ pr[:, w][None, :])
        if words == 1:
            return pc <= bound
        if acc is None:
            acc = pc.astype(np.uint16)
        else:
            acc += pc
    return acc <= bound


def _pair_verifier(kind, L: Side, R: Side, *, k, theta, variant, native):
    """The per-pair decision predicate of one verifier kind.

    The closures capture the sides and parameters, never a
    :class:`Kernels`, so no reference cycle keeps a side's arrays alive
    after the kernels are dropped.
    """
    if kind is None:
        return None
    if kind in ("dl", "pdl") and native is not None:
        mode = MODE_DL if kind == "dl" else MODE_PDL
        return lambda ii, jj: native.osa_decisions(
            L.codes, L.lengths, R.codes, R.lengths, ii, jj, k, mode=mode
        )
    if kind == "dl":
        return lambda ii, jj: (
            osa_pairs(L.codes, L.lengths, R.codes, R.lengths, ii, jj) <= k
        )
    if kind == "pdl":
        return lambda ii, jj: osa_within_k_pairs(
            L.codes, L.lengths, R.codes, R.lengths, ii, jj, k
        )
    if kind == "ham":
        return lambda ii, jj: (
            hamming_pairs(L.codes, L.lengths, R.codes, R.lengths, ii, jj) <= k
        )
    if kind == "jaro":
        return lambda ii, jj: (
            jaro_pairs(
                L.codes, L.lengths, R.codes, R.lengths, ii, jj, variant
            )
            >= theta
        )
    if kind == "wink":
        return lambda ii, jj: (
            jaro_winkler_pairs(
                L.codes, L.lengths, R.codes, R.lengths, ii, jj, 0.1, variant
            )
            >= theta
        )
    if kind == "sdx":
        sl, sr = L.sdx, R.sdx
        if sl is None or sr is None:
            raise RuntimeError("soundex ids were not prepared for this join")
        return lambda ii, jj: (sl[ii] == sr[jj]) & (sl[ii] != 0)
    raise ValueError(f"unknown verifier kind {kind!r}")


class Kernels:
    """One method stack bound to two prepared sides.

    ``spec`` is the method's :class:`~repro.core.matchers.MethodSpec`;
    ``native`` is a :class:`repro.native.KernelSet` (compiled signature
    scans and OSA verifier) or ``None`` for pure NumPy — decisions are
    bit-identical either way.  ``weighter`` puts the funnel counters and
    match counts of :meth:`run_pairs` in original-pair units.  Each
    ``run_*`` returns a result dict (:meth:`fresh`) and reports into
    ``obs``.
    """

    def __init__(
        self,
        L: Side,
        R: Side,
        spec,
        *,
        k: int,
        fbf_bound: int,
        theta: float = 0.8,
        variant: str = "paper",
        self_join: bool = False,
        record: bool = False,
        weighter: PairWeighter | None = None,
        native=None,
        chunk: int = VERIFY_CHUNK,
        filter_chunk: int = FILTER_CHUNK,
    ):
        self.L = L
        self.R = R
        self.spec = spec
        self.k = k
        self.fbf_bound = fbf_bound
        self.self_join = self_join
        self.record = record
        self.weighter = weighter
        self.native = native
        self.filter_chunk = filter_chunk
        self.verifier = _pair_verifier(
            spec.verifier, L, R,
            k=k, theta=theta, variant=variant, native=native,
        )
        if spec.verifier in ("jaro", "wink"):
            # Jaro's per-pair state (match flags + rank buffers) sits
            # between the DP rows and the byte sweeps.
            self.vchunk = chunk * 2
        elif spec.verifier in ("ham", "sdx"):  # a couple of bytes per pair
            self.vchunk = filter_chunk
        else:
            self.vchunk = chunk

    # -- pair predicates -----------------------------------------------------

    def diag(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Diagonal membership: positional (``i == j``) for two
        datasets, value identity for self-joins (the scalar driver's
        semantics)."""
        if self.self_join:
            return self.L.vid[ii] == self.R.vid[jj]
        return ii == jj

    def pair_filter(
        self, name: str, ii: np.ndarray, jj: np.ndarray
    ) -> np.ndarray:
        """Per-pair boolean mask of one named filter over candidate arrays."""
        if name == "length":
            return np.abs(self.L.lengths[ii] - self.R.lengths[jj]) <= self.k
        if name == "fbf":
            pl, pr = self.L.sigs, self.R.sigs
            if self.native is not None:
                return self.native.sig_pair_mask_u64(
                    pl, pr, ii, jj, self.fbf_bound
                )
            db = np.zeros(len(ii), dtype=np.uint16)
            for w in range(pl.shape[1]):
                db += popcount_batch_u64(pl[ii, w] ^ pr[jj, w])
            return db <= self.fbf_bound
        raise ValueError(f"unknown filter {name!r}")

    # -- the funnel tally ----------------------------------------------------

    @staticmethod
    def fresh() -> dict:
        return {
            "match_count": 0,
            "diagonal": 0,
            "verified": 0,
            "compared": 0,
            "mi": [],
            "mj": [],
        }

    @staticmethod
    def absorb(res: dict, part: dict) -> None:
        """Add one block's result dict ``part`` into ``res``."""
        for key in ("match_count", "diagonal", "verified", "compared"):
            res[key] += part[key]
        res["mi"].extend(part["mi"])
        res["mj"].extend(part["mj"])

    def tally(self, res: dict, ii, jj, obs, ww=None) -> None:
        """Survivors → verify → matches for pairs that passed every
        filter; counters in original-pair units under weights ``ww``
        (``verified`` still counts the pairs actually verified)."""
        surviving = len(ii) if ww is None else int(ww.sum())
        obs.add_survivors(surviving)
        if len(ii) == 0:
            return
        if self.verifier is None:
            dm = self.diag(ii, jj)
            res["match_count"] += surviving
            res["diagonal"] += (
                int(dm.sum()) if ww is None else int(ww[dm].sum())
            )
            if self.record:
                res["mi"].append(ii)
                res["mj"].append(jj)
            obs.add_matched(surviving)
            return
        res["verified"] += len(ii)
        obs.add_verified(surviving)
        vchunk = self.vchunk
        for c0 in range(0, len(ii), vchunk):
            bi = ii[c0 : c0 + vchunk]
            bj = jj[c0 : c0 + vchunk]
            hits = self.verifier(bi, bj)
            dm = hits & self.diag(bi, bj)
            if ww is None:
                n_hits = int(hits.sum())
                res["diagonal"] += int(dm.sum())
            else:
                bw = ww[c0 : c0 + vchunk]
                n_hits = int(bw[hits].sum())
                res["diagonal"] += int(bw[dm].sum())
            res["match_count"] += n_hits
            if self.record and n_hits:
                res["mi"].append(bi[hits])
                res["mj"].append(bj[hits])
            obs.add_matched(n_hits)

    # -- execution paths -----------------------------------------------------

    def run_rows(self, r0: int, r1: int, obs) -> dict:
        """Dense sweep of left rows ``r0:r1`` against all of right.

        Global row indices throughout, so the positional diagonal and
        recorded matches need no rebasing; recorded matches are
        row-major with ``jj`` ascending on every tier.  A length-first
        chain scans only each left row's ``|dlen| <= k`` window of the
        right side sorted by length (:meth:`Side.by_length`).  Filter
        survivors are carried across row blocks, so the verifier sees
        full ``vchunk`` batches.  The stage counters are cumulative-AND
        survivor counts, so any cut of the rows merges to the same
        funnel.
        """
        res = self.fresh()
        nr = self.R.n
        if nr == 0 or r1 <= r0:
            return res
        res["compared"] = (r1 - r0) * nr
        obs.add_pairs(res["compared"])
        filters = self.spec.filters
        if not filters:
            # Every pair is verified: whole rows of about ``vchunk``
            # pairs go to the verifier as they are enumerated.
            step = max(1, self.vchunk // nr)
            right = np.arange(nr, dtype=np.int64)
            for c0 in range(r0, r1, step):
                c1 = min(r1, c0 + step)
                ii = np.repeat(np.arange(c0, c1, dtype=np.int64), nr)
                self.tally(res, ii, np.tile(right, c1 - c0), obs)
            return res
        passed = [0] * len(filters)
        regroup = False
        if (
            "fbf" in filters
            and self.native is not None
            and self.native.supports_filters(filters)
        ):
            # The compiled sweep: filters and candidate emission in one
            # pass, no dense boolean intermediates.  A length-only chain
            # is pure enumeration of each row's window, which NumPy does
            # at memory speed, in the length-grouped order the verifiers
            # run fastest on.
            order, len_r, sig_r = None, self.R.lengths, self.R.sigs
            if filters[0] == "length":
                order, len_r, sig_r = self.R.by_length()
            ii, jj, npass = self.native.fused_rows_u64(
                self.L.sigs, sig_r, self.L.lengths, len_r, r0, r1,
                bound=self.fbf_bound, k=self.k, filters=filters, order=order,
            )
            passed = [int(n) for n in npass]
            blocks = [(ii, jj)]
        else:
            blocks = self._numpy_blocks(r0, r1, passed)
            regroup = filters[0] == "length"
        self._tally_blocks(res, blocks, obs)
        tested = res["compared"]
        for fname, npass in zip(filters, passed):
            obs.add_stage(fname, tested, npass)
            tested = npass
        if regroup and res["mi"]:
            # The windows visit rows by length; restore row order.
            mi, mj = np.concatenate(res["mi"]), np.concatenate(res["mj"])
            order = np.lexsort((mj, mi))
            res["mi"], res["mj"] = [mi[order]], [mj[order]]
        return res

    def _numpy_blocks(self, r0, r1, passed):
        """The NumPy sweep of rows ``r0:r1``, in blocks of about
        ``filter_chunk`` pairs, adding each stage's survivors to
        ``passed``.  A length-first chain groups the rows by length and
        sweeps each group against only its ``|dlen| <= k`` window of the
        right side sorted by length, so incompatible lengths are skipped
        before any dense work, as the compiled sweep does per row; FBF
        alone sweeps the rows against all of right."""
        filters = self.spec.filters
        if filters[0] == "length":
            order_r, len_r, sig_r = self.R.by_length()
            lens = self.L.lengths[r0:r1]
            rows = np.argsort(lens, kind="stable")
            lens = lens[rows]
            rows += r0
            starts = np.flatnonzero(np.diff(lens, prepend=lens[0] - 1))
            ends = np.append(starts[1:], len(rows))
            lo = np.searchsorted(len_r, lens[starts] - self.k, "left")
            hi = np.searchsorted(len_r, lens[starts] + self.k, "right")
            groups = (
                (rows[s:e], order_r[a:b], sig_r[a:b])
                for s, e, a, b in zip(starts, ends, lo, hi)
            )
        else:
            groups = [(np.arange(r0, r1), np.arange(self.R.n), self.R.sigs)]
        for group, right, sigs in groups:
            width = len(right)
            if not width:
                continue
            if filters[0] == "length":
                passed[0] += len(group) * width
            step = max(1, self.filter_chunk // width)
            for g0 in range(0, len(group), step):
                g = group[g0 : g0 + step]
                if filters[-1] != "fbf":
                    yield np.repeat(g, width), np.tile(right, len(g))
                    continue
                # flatnonzero over the raveled *bool* mask is ~10x a 2-D
                # nonzero — the survivor extraction is the sweep's
                # second-biggest cost after the popcount itself.
                idx = np.flatnonzero(
                    _fbf_mask(self.L.sigs[g], sigs, self.fbf_bound).ravel()
                )
                passed[-1] += len(idx)
                yield g[idx // width], right[idx % width]

    def _tally_blocks(self, res: dict, blocks, obs) -> None:
        """:meth:`tally` every survivor block.  Survivors are carried
        from block to block, up to ``filter_chunk`` of them, so each
        verify batch is a full ``vchunk`` and the sweep's large
        temporaries are not interleaved with verification."""
        if self.verifier is None:
            for ii, jj in blocks:
                self.tally(res, ii, jj, obs)
            return
        vchunk = self.vchunk
        held_i: list[np.ndarray] = []
        held_j: list[np.ndarray] = []
        held = 0
        for ii, jj in blocks:
            held_i.append(ii)
            held_j.append(jj)
            held += len(ii)
            if held >= max(vchunk, self.filter_chunk):
                ii, jj = _joined(held_i), _joined(held_j)
                cut = held - held % vchunk
                self.tally(res, ii[:cut], jj[:cut], obs)
                held_i, held_j, held = [ii[cut:]], [jj[cut:]], held - cut
        if held:
            self.tally(res, _joined(held_i), _joined(held_j), obs)

    def run_pairs(self, ii: np.ndarray, jj: np.ndarray, obs) -> dict:
        """One candidate block: the method's own filters still run over
        every candidate, so decisions do not depend on who generated
        them."""
        res = self.fresh()
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        res["compared"] = len(ii)
        ww = None if self.weighter is None else self.weighter.block(ii, jj)
        obs.add_pairs(len(ii) if ww is None else int(ww.sum()))
        for fname in self.spec.filters:
            tested = len(ii) if ww is None else int(ww.sum())
            mask = self.pair_filter(fname, ii, jj)
            ii, jj = ii[mask], jj[mask]
            if ww is not None:
                ww = ww[mask]
            obs.add_stage(
                fname, tested, len(ii) if ww is None else int(ww.sum())
            )
        self.tally(res, ii, jj, obs, ww)
        return res

    def run_probe(
        self,
        index: SegmentIndex,
        r0: int,
        r1: int,
        obs,
        *,
        max_pairs: int = 1 << 20,
    ) -> dict:
        """Left rows ``r0:r1`` probed against ``index`` (built over the
        right side) from their codes, every candidate filtered and
        verified.

        With ``native`` set this is one compiled pass
        (:meth:`repro.native.KernelSet.passjoin_run`) that returns only
        the matches and the funnel tally, or, for a verifier it does not
        compile, the filter survivors, which :meth:`tally` verifies; the
        queries it answered from an earlier copy of the same text go to
        the ``passjoin_queries_reused`` counter.
        Without it, :meth:`SegmentIndex.probe_codes` yields candidate
        blocks of at most ``max_pairs`` pairs and :meth:`run_pairs`
        verifies each: the reference, with the same matches in the same
        order and the same funnel.  ``emitted`` counts the candidates in
        the units the planner credits to the generator stage: pairs, or
        original-pair weight under a weighter.  A symmetric weighter
        enumerates the ``i <= j`` triangle, so the probe keeps only that
        half, as the planner's in-parent stream does.
        """
        if self.native is not None:
            return self._run_probe_native(index, r0, r1, obs)
        res = self.fresh()
        res["emitted"] = 0
        w = self.weighter
        codes, lens = self.L.codes[r0:r1], self.L.lengths[r0:r1]
        for qi, jj in index.probe_codes(codes, lens, max_pairs=max_pairs):
            ii = qi + r0
            if w is not None and w.symmetric:
                keep = ii <= jj
                ii, jj = ii[keep], jj[keep]
                if not len(ii):
                    continue
            res["emitted"] += len(ii) if w is None else w.total(ii, jj)
            self.absorb(res, self.run_pairs(ii, jj, obs))
        return res

    def _run_probe_native(self, index, r0, r1, obs) -> dict:
        """:meth:`run_probe` as one compiled probe-filter-verify pass."""
        res = self.fresh()
        L, R, w = self.L, self.R, self.weighter
        filters, kind = self.spec.filters, self.spec.verifier
        compiled = self.native.verifies(kind)
        ii, jj, t = self.native.passjoin_run(
            index, L.codes, L.lengths, rows=(r0, r1),
            right=(R.codes, R.lengths), k=self.k, filters=filters,
            verifier=kind if compiled else None,
            sigs=(L.sigs, R.sigs) if "fbf" in filters else None,
            bound=self.fbf_bound,
            weighter=w,
            vids=(L.vid, R.vid) if self.self_join else None,
            emit=self.record or not compiled,
        )
        res["emitted"] = t["emitted"]
        res["compared"] = t["compared"]
        # Queries answered from an earlier copy: not a funnel stage.
        obs.add_counter("passjoin_queries_reused", t["reused"])
        if not t["compared"]:
            # No candidate: no stage is registered, as on the block path.
            return res
        obs.add_pairs(t["emitted"])
        tested = t["emitted"]
        for fname, npass in zip(filters, t["passed"]):
            obs.add_stage(fname, tested, npass)
            tested = npass
        if not compiled:
            self.tally(res, ii, jj, obs, None if w is None else w.block(ii, jj))
            return res
        obs.add_survivors(t["survivors"])
        obs.add_verified(t["survivors"])
        obs.add_matched(t["matched"])
        res["verified"] = t["verified"]
        res["match_count"] = t["matched"]
        res["diagonal"] = t["diagonal"]
        if self.record and len(ii):
            res["mi"].append(ii)
            res["mj"].append(jj)
        return res
