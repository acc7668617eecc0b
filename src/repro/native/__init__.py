"""Compiled kernel tier: the hot kernels as compiled code behind the
kernel interface every backend calls.

The paper's constant factors come from signatures living in machine
words — one XOR + POPCNT per pair — and from the verifier being a tight
band of word operations.  The NumPy tier restores those constants *per
batch* but still pays intermediate-array traffic on the candidate
matrix and per-pair Python dispatch in the bit-parallel verifier.  This
package closes that gap with compiled kernels:

1. the dense filter sweep: a method's filter chain fused with candidate
   emission (no ``(chunk, n_right, width)`` intermediates), one loop
   body per chain and signature width, with length-first chains
   scanning only each row's ``|dlen| <= k`` window;
2. a gathered-pair signature filter for index-driven generators;
3. a batched bounded-OSA verifier (bit-parallel Hyyro recurrence for
   patterns up to 64 chars, mirroring ``distance/bitparallel.py``, and
   a banded DP beyond, mirroring ``distance/pruned.py::_banded_osa``);
4. the PASS-JOIN run over the flat segment index and ``uint8``
   (``encode_raw``) codes: per query, the probe of
   ``core/passjoin.py::SegmentIndex.probe_codes``, then each
   candidate's filter chain and DL/PDL/Hamming verifier and the funnel
   tally, in one compiled pass that returns only the matches and
   answers a query repeated in the call from its first copy;
5. side preparation: one walk over a batch's latin-1 bytes that writes
   the padded ``uint8`` codes and the packed FBF signatures of every
   stock scheme (``core/vectorized.py::codes_and_signatures``);
6. the stream spill's match lines (``stream/spill.py::format_ids``),
   formatted without holding the GIL, so the stream's spill thread runs
   beside the next chunk's join.

They have one provider, ``cc``: a C translation unit compiled on first
use with the host's C compiler and loaded via ctypes (cached on disk,
see :mod:`repro.native._csrc`).  The provider must pass a bit-exactness
self-check against the scalar and NumPy references before it is
offered; a provider that fails validation is treated as absent.  It is
resolved once per process: the in-process and pool tiers of
:mod:`repro.core.plan` run it whenever it loads and NumPy otherwise, and
a ``kernels="numpy"`` argument (:func:`resolve_kernels`) pins NumPy on
both.  A machine without a C toolchain just runs the NumPy tier.

Environment knobs:

* ``REPRO_NO_NATIVE=1`` — force the NumPy fallback deterministically
  (CI fallback legs, bug reports).
* ``REPRO_NATIVE_CACHE=<dir>`` — where the cc provider caches builds.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

__all__ = [
    "KernelSet",
    "MODE_DL",
    "MODE_PDL",
    "available",
    "kind",
    "load_kernels",
    "loaded_kernels",
    "native_status",
    "require_native",
    "reset",
    "resolve_kernels",
]

#: verifier modes — DL compares empty strings by length, PDL applies the
#: paper's Step 1 (any empty side rejects)
MODE_DL = 0
MODE_PDL = 1

_PROVIDERS = ("cc",)

#: the filter chains the dense sweep covers (every ``MethodSpec`` chain),
#: as the kernel's chain codes: bit 0 = FBF, bit 1 = length stage first
_CHAINS = {(): 0, ("fbf",): 1, ("length",): 2, ("length", "fbf"): 3}
#: the verifiers the PASS-JOIN run compiles, as the kernel's verify codes
#: (0: none — it emits the filter survivors)
_VERIFIERS = {"dl": 1, "pdl": 2, "ham": 3}


def _sig2d(sigs: np.ndarray, dtype) -> np.ndarray:
    """Coerce signatures to a C-contiguous ``(n, width)`` matrix.

    Mirrors ``core/vectorized.py::_as_sig_matrix``: a 1-D input is a
    width-1 signature column.
    """
    arr = np.ascontiguousarray(sigs, dtype=dtype)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"signatures must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def _idx(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _codes(codes: np.ndarray, lens: np.ndarray):
    """A side's ``uint8`` code matrix and int64 lengths, checked to
    match (the kernel checks each length it reads against the width)."""
    codes, lens = np.asarray(codes), _idx(lens)
    if codes.dtype != np.uint8:
        raise ValueError(f"codes must be uint8 (encode_raw), got {codes.dtype}")
    if codes.ndim != 2 or lens.shape != (codes.shape[0],):
        raise ValueError(
            f"codes {codes.shape} and lengths {lens.shape} do not match"
        )
    return np.ascontiguousarray(codes), lens


class KernelSet:
    """The compiled kernels of one provider, at NumPy call level.

    Instances are cheap handles; the heavy state (jitted functions or
    the loaded shared library) lives in the provider module.  Methods
    coerce inputs to the layouts the kernels require and return plain
    NumPy arrays, bit-identical to the NumPy-tier equivalents.
    """

    __slots__ = ("kind", "_p", "_capacity")

    def __init__(self, kind: str, prims: dict[str, Callable]):
        self.kind = kind
        self._p = prims
        #: :meth:`passjoin_run`'s output buffer in pairs (None: default)
        self._capacity = None

    def _with_capacity(self, capacity: int) -> "KernelSet":
        """This provider with a :meth:`passjoin_run` output buffer of
        ``capacity`` pairs — small ones drive the resume path in the
        self-check and the tests.  A subclass stays that subclass."""
        ks = type(self)(self.kind, self._p)
        ks._capacity = capacity
        return ks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelSet(kind={self.kind!r})"

    # -- gathered pair filters -----------------------------------------

    def sig_pair_mask_u64(
        self, left_sigs, right_sigs, ii, jj, bound: int
    ) -> np.ndarray:
        L = _sig2d(left_sigs, np.uint64)
        R = _sig2d(right_sigs, np.uint64)
        out = self._p["pair_mask_u64"](L, R, _idx(ii), _idx(jj), int(bound))
        return out.view(bool)

    # -- side preparation ----------------------------------------------

    def encode_rows(
        self,
        buf: np.ndarray,
        lens: np.ndarray,
        width: int,
        layout: tuple[int, bool, bool],
        letter_of: np.ndarray,
        digit_of: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A batch's padded ``uint8`` codes and packed ``uint64``
        signatures in one walk (``core/vectorized.py::
        codes_and_signatures`` is the NumPy body): ``buf`` holds the
        rows' latin-1 bytes with one separator byte between rows,
        ``lens`` their lengths, ``layout`` the scheme's ``(alpha words,
        numeric word, extended)`` and the tables map a byte to its
        letter (0-25) or digit (0-9) index, anything above to none.  A
        length outside ``[0, width]`` or past the buffer raises."""
        alpha, numeric, extended = int(layout[0]), *map(bool, layout[1:])
        if alpha < 0 or alpha + numeric == 0 or (extended and not alpha):
            raise ValueError(f"not a stock signature layout: {layout}")
        tables = [
            np.ascontiguousarray(t, dtype=np.uint8) for t in (letter_of, digit_of)
        ]
        if any(t.shape != (256,) for t in tables):
            raise ValueError("the code tables must have 256 entries")
        return self._p["encode_rows"](
            np.ascontiguousarray(buf, dtype=np.uint8), _idx(lens), int(width),
            alpha, int(numeric), int(extended), *tables,
        )

    # -- spill formatting ----------------------------------------------

    def format_rows(
        self, ii: np.ndarray, jj: np.ndarray, base: int, *, csv: bool
    ) -> bytes:
        """Match rows ``(base + ii[r], jj[r])`` as spill text, one
        ``[i, j]`` line (or ``i,j`` with ``csv``) per row, the left id
        wrapped to ``int64`` as NumPy adds
        (``stream/spill.py::format_ids``' ``%`` template is the body
        without a provider).  ``base`` must be an ``int64``."""
        ii, jj, base = _idx(ii), _idx(jj), int(base)
        if ii.shape != jj.shape or ii.ndim != 1:
            raise ValueError(f"id columns {ii.shape} and {jj.shape} differ")
        if not -(1 << 63) <= base < 1 << 63:
            raise OverflowError(f"base {base} is not an int64")
        return self._p["format_rows"](ii, jj, base, int(csv))

    # -- verification --------------------------------------------------

    def osa_decisions(
        self,
        codes_l: np.ndarray,
        len_l: np.ndarray,
        codes_r: np.ndarray,
        len_r: np.ndarray,
        ii: np.ndarray,
        jj: np.ndarray,
        k: int,
        *,
        mode: int,
    ) -> np.ndarray:
        """Boolean ``OSA(left[i], right[j]) <= k`` per candidate pair.

        ``mode`` is :data:`MODE_DL` or :data:`MODE_PDL`; they differ
        only on empty strings (the paper's Step 1).
        """
        cl = np.ascontiguousarray(codes_l, dtype=np.uint8)
        cr = np.ascontiguousarray(codes_r, dtype=np.uint8)
        if cl.ndim != 2 or cr.ndim != 2:
            raise ValueError("code matrices must be 2-D")
        out = self._p["osa_mask"](
            cl, _idx(len_l), cr, _idx(len_r), _idx(ii), _idx(jj),
            int(k), int(mode),
        )
        return out.view(bool)

    # -- dense sweep ---------------------------------------------------

    @staticmethod
    def supports_filters(filters) -> bool:
        """Whether :meth:`fused_rows_u64` covers this filter chain."""
        return tuple(filters) in _CHAINS

    def fused_rows_u64(
        self,
        left_sigs: np.ndarray,
        right_sigs: np.ndarray,
        len_l: np.ndarray | None,
        len_r: np.ndarray | None,
        row0: int,
        row1: int,
        *,
        bound: int,
        k: int,
        filters,
        order: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A filter chain fused with candidate emission over left rows
        ``[row0, row1)`` against every right row; returns ``(ii, jj,
        passed_per_filter)``, pairs row-major with ``jj`` ascending and
        the cumulative-AND survivor counts funnel accounting needs.

        A chain that starts with ``"length"`` scans each row's
        ``|dlen| <= k`` window of the right side sorted by length.
        Callers that keep that sort pass ``order`` (a stable ``argsort``
        of the original lengths, mapping each sorted position back to
        its right id) with ``right_sigs`` and ``len_r`` already in that
        order; without ``order`` the call sorts them itself.  ``jj``
        holds original right ids either way.  Lengths are not read by
        the other chains.
        """
        chain = _CHAINS[tuple(filters)]
        L = _sig2d(left_sigs, np.uint64)
        R = _sig2d(right_sigs, np.uint64)
        if L.shape[1] != R.shape[1]:
            raise ValueError(
                f"signature widths differ: {L.shape[1]} vs {R.shape[1]}"
            )
        if chain & _CHAINS[("length",)]:
            len_l, len_r = _idx(len_l), _idx(len_r)
            if order is None:
                order = np.argsort(len_r, kind="stable")
                len_r, R = len_r[order], R[order]
            order = _idx(order)
        else:
            len_l = len_r = order = None
        return self._p["fused_rows_u64"](
            L, R, len_l, len_r, order, int(row0), int(row1),
            int(bound), int(k), chain,
        )

    # -- PASS-JOIN run -------------------------------------------------

    @staticmethod
    def verifies(kind) -> bool:
        """Whether :meth:`passjoin_run` compiles this verifier kind."""
        return kind in _VERIFIERS

    def passjoin_run(
        self,
        index,
        codes: np.ndarray,
        lens: np.ndarray,
        *,
        rows: tuple[int, int] | None = None,
        right: tuple[np.ndarray, np.ndarray] | None = None,
        k: int | None = None,
        filters=(),
        verifier: str | None = None,
        sigs: tuple[np.ndarray, np.ndarray] | None = None,
        bound: int = 0,
        weighter=None,
        vids: tuple[np.ndarray, np.ndarray] | None = None,
        emit: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Probe, filter and verify left rows against ``index`` in one
        compiled pass; only the pairs asked for leave the kernel.

        ``index`` is a :class:`repro.core.passjoin.SegmentIndex` over the
        right side, probed through its flat arrays; ``codes``/``lens``
        are the left side's padded ``uint8`` code matrix
        (:func:`repro.distance.codec.encode_raw`) and lengths.  ``rows``
        = ``(r0, r1)`` picks the left rows to probe (default all), visited
        in stable length order as ``index.probe_codes`` groups them.
        Each candidate runs ``filters`` (a dense-sweep chain: the length
        stage at ``k``, default ``index.k``; FBF over ``sigs`` = packed
        ``uint64`` signature matrices of both sides, at ``bound``), then
        ``verifier`` (``"dl"``, ``"pdl"`` or ``"ham"``, see
        :meth:`verifies`) at ``k`` against ``right`` = ``(codes,
        lens)``.

        The funnel is tallied in the pair weights of ``weighter`` (a
        :class:`repro.core.multiplicity.PairWeighter`): ``w_left[i] *
        w_right[j]``, doubled off the diagonal when it is symmetric,
        which also keeps only the ``i <= j`` triangle; without one a
        pair weighs 1.  The matches' diagonal is ``vids[0][i] ==
        vids[1][j]`` when ``vids`` is given, else ``i == j``.

        A run that emits, without ``weighter`` or ``vids``, answers a
        query whose text (and, under an FBF chain, signature row) equals
        an earlier query's of the same call from that query's output:
        the same pairs and tally, its own diagonal.

        Returns ``(ii, jj, tally)``: the matches (with no verifier, the
        filter survivors — every candidate for an empty chain), grouped
        by left row in visiting order with ``jj`` ascending, or nothing
        when ``emit`` is false; and a dict with ``compared`` (candidate
        pairs), ``emitted`` (their weight), ``passed`` (the weight past
        each filter), ``survivors``, ``verified`` (pairs verified),
        ``matched``, ``diagonal`` and ``reused`` (the queries answered
        from an earlier copy).
        """
        chain = _CHAINS[tuple(filters)]
        if verifier is not None and verifier not in _VERIFIERS:
            raise ValueError(f"passjoin_run does not verify {verifier!r}")
        right_used = bool(chain & _CHAINS[("length",)]) or verifier is not None
        if right is None:
            if right_used:
                raise ValueError("the length filter and verifiers need right")
            right = (np.zeros((0, 0), dtype=np.uint8), np.zeros(0))
        sides = [_codes(codes, lens), _codes(*right)]
        cl, ll = sides[0]
        r0, r1 = (0, len(ll)) if rows is None else rows
        if not 0 <= r0 <= r1 <= len(ll):
            raise ValueError(f"rows {rows} out of range for {len(ll)} rows")
        order = np.argsort(ll[r0:r1], kind="stable") + r0
        sig_l = sig_r = None
        if chain & _CHAINS[("fbf",)]:
            if sigs is None:
                raise ValueError("the fbf filter needs sigs")
            sig_l, sig_r = (_sig2d(x, np.uint64) for x in sigs)
            if sig_l.shape[1] != sig_r.shape[1]:
                raise ValueError("signature widths differ")
        w_l = w_r = None
        if weighter is not None:
            w_l, w_r = _idx(weighter.w_left), _idx(weighter.w_right)
        vid_l, vid_r = (None, None) if vids is None else map(_idx, vids)
        # Every array a candidate id or a left row indexes must cover it.
        n, nl = len(index), len(ll)
        for arr, need in (
            (sides[1][1], n if right_used else 0), (sig_l, nl), (sig_r, n),
            (w_l, nl), (w_r, n), (vid_l, nl), (vid_r, n),
        ):
            if arr is not None and len(arr) < need:
                raise ValueError(
                    f"an array of {len(arr)} rows is indexed up to {need}"
                )
        hashes, ids, table = index.flat()
        # A repeated query is answered from its first copy only where
        # the answer is a function of the query's text (and signature
        # row): no weights, value identities or symmetric cut.
        reuse = emit and weighter is None and vids is None
        ii, jj, t = self._p["passjoin_run"](
            cl, ll, order, *sides[1],
            np.ascontiguousarray(hashes, dtype=np.uint64), _idx(ids),
            _idx(table).reshape(-1, 4), len(index), index.k,
            index.k if k is None else int(k), chain,
            _VERIFIERS.get(verifier, 0), sig_l, sig_r, int(bound),
            w_l, w_r, int(weighter is not None and weighter.symmetric),
            vid_l, vid_r, emit, reuse, self._capacity,
        )
        t = t.tolist()
        return ii, jj, {
            "compared": t[0],
            "emitted": t[1],
            "passed": t[2 : 2 + len(filters)],
            "verified": t[4],
            "survivors": t[5],
            "matched": t[6],
            "diagonal": t[7],
            "reused": t[8],
        }


# ---------------------------------------------------------------------------
# Provider resolution
# ---------------------------------------------------------------------------

#: provider name -> KernelSet (loaded + validated) or None (unavailable)
_CACHE: dict[str, KernelSet | None] = {}
#: provider name -> human-readable load outcome
_REASONS: dict[str, str] = {}


def _disabled() -> bool:
    return os.environ.get("REPRO_NO_NATIVE", "").strip() not in ("", "0")


def _load_provider(name: str) -> KernelSet | None:
    if name in _CACHE:
        return _CACHE[name]
    ks: KernelSet | None = None
    try:
        from repro.native import _cc

        ks = KernelSet(name, _cc.load())
    except Exception as exc:
        _REASONS[name] = f"unavailable ({exc})"
        ks = None
    if ks is not None:
        err = _self_check(ks)
        if err is None:
            _REASONS[name] = "loaded"
        else:
            _REASONS[name] = f"rejected by self-check ({err})"
            ks = None
    _CACHE[name] = ks
    return ks


def load_kernels() -> KernelSet | None:
    """The best available validated provider, or ``None``.

    Honors ``REPRO_NO_NATIVE``; never raises and never warns — this is
    the quiet probe ``kernels="auto"`` resolves through.
    """
    if _disabled():
        return None
    for name in _PROVIDERS:
        ks = _load_provider(name)
        if ks is not None:
            return ks
    return None


def loaded_kernels() -> KernelSet | None:
    """The provider :func:`load_kernels` has already loaded and
    validated in this process, or ``None``.

    Never builds, loads or self-checks: side preparation runs its
    compiled walk through this, so encoding a batch never pays the
    provider's first-use cost (a cold cache compiles the C source).  The
    planner loads the provider when it plans, before the sides of a join
    are prepared.  Honors ``REPRO_NO_NATIVE``.
    """
    if _disabled():
        return None
    return next(filter(None, map(_CACHE.get, _PROVIDERS)), None)


def resolve_kernels(request: str) -> KernelSet | None:
    """The kernels a ``kernels=`` argument asks for: ``"auto"`` is the
    process's validated provider (:func:`load_kernels`, ``None`` when
    none loads), ``"numpy"`` is ``None`` — the NumPy tier."""
    if request == "numpy":
        return None
    if request != "auto":
        raise ValueError(
            f"unknown kernels request {request!r}; expected 'auto' or 'numpy'"
        )
    return load_kernels()


def available() -> bool:
    """True when a validated compiled provider can serve requests."""
    return load_kernels() is not None


def kind() -> str | None:
    """Name of the active provider (``"cc"``) or ``None``."""
    ks = load_kernels()
    return ks.kind if ks is not None else None


def require_native() -> KernelSet:
    """The active provider, or a hard error explaining why there is none.

    CI smoke jobs use this to assert the compiled tier actually loaded
    instead of silently falling back.
    """
    ks = load_kernels()
    if ks is not None:
        return ks
    if _disabled():
        raise RuntimeError("compiled kernels disabled by REPRO_NO_NATIVE=1")
    for name in _PROVIDERS:
        _load_provider(name)
    detail = "; ".join(
        f"{name}: {_REASONS.get(name, 'not probed')}"
        for name in _PROVIDERS
    )
    raise RuntimeError(f"no compiled kernel provider available ({detail})")


def native_status() -> dict:
    """Availability report for diagnostics and ``repro-fbf --plan``."""
    disabled = _disabled()
    if not disabled:
        for name in _PROVIDERS:
            _load_provider(name)
    active = None if disabled else kind()
    return {
        "available": active is not None,
        "kind": active,
        "disabled": disabled,
        "providers": {
            name: _REASONS.get(
                name, "disabled" if disabled else "not probed"
            )
            for name in _PROVIDERS
        },
    }


def reset() -> None:
    """Forget cached provider probes (test-isolation hook).

    Needed after monkeypatching ``REPRO_NO_NATIVE``: resolution caches
    per provider, not per environment.
    """
    _CACHE.clear()
    _REASONS.clear()


# ---------------------------------------------------------------------------
# Bit-exactness self-check
# ---------------------------------------------------------------------------


def _self_check(ks: KernelSet) -> str | None:
    """Validate a provider against the scalar/NumPy references.

    Returns ``None`` on success, else a short failure description.  The
    check covers every kernel, the 63/64/65 bit-parallel/banded
    boundary, empty strings, and both verifier modes — a provider that
    computes anything differently from the reference implementations is
    rejected rather than trusted.

    Nearly all of its cost is the scalar ``damerau_levenshtein``
    reference over the verifier pairs (several of 63-70 characters).
    Each distinct pair's distance is computed once and compared with
    every ``k``; each ``(k, mode)`` still checks every pair's decision.
    On a 2-core x86 host the whole check takes about 0.2 s (about 0.95 s
    when the distance was recomputed per ``k``).  It runs afresh in every
    process and after every :func:`reset`: nothing of it is cached.
    """
    try:
        from repro.core.popcount import popcount_batch_u64
        from repro.distance.codec import encode_raw
        from repro.distance.damerau import damerau_levenshtein
        from repro.distance.pruned import pdl

        rng = np.random.default_rng(0x5EED)

        # -- signature kernels: one and two words, 131 right rows (two
        # full 64-row blocks and a tail) ------------------------------
        L = rng.integers(0, 1 << 63, size=(11, 2), dtype=np.uint64)
        R = rng.integers(0, 1 << 63, size=(131, 2), dtype=np.uint64)
        R[[0, 63, 64, 127, 128, 130], :] = L[:6]  # survivors at the edges
        R[129] = ~L[6]
        pi = np.repeat(np.arange(L.shape[0]), R.shape[0])
        pj = np.tile(np.arange(R.shape[0]), L.shape[0])
        for width, bounds in ((1, (0, 30, 63, 64)), (2, (0, 60, 68))):
            Lw, Rw = L[:, :width], R[:, :width]
            db = np.zeros((L.shape[0], R.shape[0]), dtype=np.int64)
            for w in range(width):
                db += popcount_batch_u64(Lw[:, w][:, None] ^ Rw[:, w][None, :])
            for bound in bounds:
                ri, rj = np.nonzero(db <= bound)
                gi, gj, _ = ks.fused_rows_u64(
                    Lw, Rw, None, None, 0, len(L), bound=bound, k=0,
                    filters=("fbf",),
                )
                if not (
                    np.array_equal(gi, ri.astype(np.int64))
                    and np.array_equal(gj, rj.astype(np.int64))
                ):
                    return f"fbf scan width={width} bound={bound} mismatch"
                got = ks.sig_pair_mask_u64(Lw, Rw, pi, pj, bound)
                if not np.array_equal(got, db.ravel() <= bound):
                    return f"pair mask width={width} bound={bound} mismatch"

        # -- verifier kernels -----------------------------------------
        alpha = "abAB \xe9"
        strings = ["", "a", "ab", "ba"]
        for length in (2, 5, 17, 63, 64, 65, 70):
            for _ in range(3):
                chars = rng.integers(0, len(alpha), size=length)
                strings.append("".join(alpha[c] for c in chars))
            # near-duplicates exercising substitutions + transpositions
            base = list(strings[-1])
            if length >= 2:
                base[0], base[1] = base[1], base[0]
            strings.append("".join(base))
        codes, lengths = encode_raw(strings)
        n = len(strings)
        ii = rng.integers(0, n, size=220).astype(np.int64)
        jj = rng.integers(0, n, size=220).astype(np.int64)
        # force same-length long pairs onto the banded path
        long_idx = [i for i, s in enumerate(strings) if len(s) > 64]
        for a in long_idx:
            for b in long_idx:
                ii = np.append(ii, a)
                jj = np.append(jj, b)
        pairs = [(strings[i], strings[j]) for i, j in zip(ii, jj)]
        # The full DP is the check's dominant cost: run it once per
        # distinct pair and compare the distance with every k below.
        dist = {st: damerau_levenshtein(*st) for st in dict.fromkeys(pairs)}
        # The pairs again, grouped by left row as candidates arrive: each
        # row's pattern masks are then reused across its pairs.
        by_row = np.argsort(ii, kind="stable")
        for k in (0, 1, 2, 3):
            for mode in (MODE_DL, MODE_PDL):
                got = ks.osa_decisions(
                    codes, lengths, codes, lengths, ii, jj, k, mode=mode
                )
                for p, (s, t) in enumerate(pairs):
                    if mode == MODE_PDL:
                        want = pdl(s, t, k)
                    else:
                        want = dist[s, t] <= k
                    if bool(got[p]) != want:
                        return (
                            f"osa mode={mode} k={k} mismatch on "
                            f"({len(s)},{len(t)})-char pair"
                        )
                grouped = ks.osa_decisions(
                    codes, lengths, codes, lengths, ii[by_row], jj[by_row],
                    k, mode=mode,
                )
                if not np.array_equal(grouped, got[by_row]):
                    return f"osa mode={mode} k={k} mismatch on grouped rows"

        # -- side preparation: every stock scheme against the NumPy body
        from repro.core.vectorized import codes_and_signatures, split_rows

        batch = [*strings, "Tt", "T-T", "a1b22333", "0123456789" * 7]
        buf, blens = split_rows(
            "\x00".join(batch).encode("latin-1"), len(batch)
        )
        layouts = [(0, True, False)] + [
            (words, numeric, extended)
            for words in (1, 2, 3)
            for numeric in (False, True)
            for extended in (False, True)
        ]
        for layout in layouts:
            got = codes_and_signatures(buf, blens, layout, ks)
            want = codes_and_signatures(buf, blens, layout)
            if not all(
                g.dtype == w.dtype and np.array_equal(g, w)
                for g, w in zip(got, want)
            ):
                return f"encode_rows mismatch: layout {layout}"

        # -- spill formatting: the int64 extremes and a wrapping base
        # against the ``%`` template
        from repro.stream.spill import SPILL_FORMATS, format_ids

        top = np.iinfo(np.int64)
        ids = np.array(
            [0, 1, -1, 9, 10, -10, 99, 100, 12345678901234567, -(1 << 53),
             top.max, top.min, top.max - 1, top.min + 1],
            dtype=np.int64,
        )
        for base in (0, 1, -7, top.max, top.min):
            for fmt in SPILL_FORMATS:
                for ii, jj in ((ids, ids[::-1]), (ids[:0], ids[:0])):
                    if format_ids(ii, jj, base, fmt, ks) != format_ids(
                        ii, jj, base, fmt
                    ):
                        return f"format_rows mismatch: {fmt} base {base}"

        # -- dense sweep: every chain at widths 1, 2 and 3 -------------
        k, r0, r1 = 2, 3, 11
        ll = rng.integers(0, 9, size=12).astype(np.int64)
        lr = rng.integers(0, 9, size=70).astype(np.int64)
        lmask = np.abs(ll[:, None] - lr[None, :]) <= k
        for width, bound in ((1, 30), (2, 62), (3, 94)):
            sl = rng.integers(0, 1 << 63, size=(12, width), dtype=np.uint64)
            sr = rng.integers(0, 1 << 63, size=(70, width), dtype=np.uint64)
            dbits = np.zeros((12, 70), dtype=np.int64)
            for w in range(width):
                dbits += popcount_batch_u64(
                    sl[:, w][:, None] ^ sr[:, w][None, :]
                )
            for filters in _CHAINS:
                mask = np.ones((12, 70), dtype=bool)
                want_passed = []
                for f in filters:
                    mask &= lmask if f == "length" else dbits <= bound
                    want_passed.append(int(mask[r0:r1].sum()))
                wi, wj = np.nonzero(mask[r0:r1])
                gi, gj, passed = ks.fused_rows_u64(
                    sl, sr, ll, lr, r0, r1, bound=bound, k=k, filters=filters
                )
                if not (
                    np.array_equal(gi, wi.astype(np.int64) + r0)
                    and np.array_equal(gj, wj.astype(np.int64))
                    and list(passed) == want_passed
                ):
                    return f"dense sweep mismatch: {filters} width {width}"

        # -- PASS-JOIN run: every chain x verifier (none, DL, PDL, Ham) --
        # under plain, weighted and collapsed self-join (symmetric
        # weights, value-identity diagonal) tallies, against the NumPy
        # probe's candidates with the reference decisions.  Queries of
        # 0-65 chars reach the bit-parallel and banded verifiers and the
        # empty-string rules; queries sharing candidates catch a stamp
        # left set or a pattern mask not reset; capacity 1 forces the
        # output buffer's resume path.
        from repro.core.multiplicity import PairWeighter
        from repro.core.passjoin import PassJoinIndex
        from repro.distance.hamming import hamming

        def rand(size, lo, hi):
            return ["".join(alpha[c] for c in rng.integers(0, 4, size=n))
                    for n in rng.integers(lo, hi, size=size)]

        k = 1

        def passjoin_section(left, right, sig_l, sig_r, modes, runs, what):
            """Every chain x verifier, each under one of ``modes`` in
            turn, through each of ``runs(ci, vi)`` (kernel sets): the
            pairs and tally of the reference, ``reused`` counting the
            queries whose text (and signature row, under FBF) repeats
            an earlier one's in a plain run."""
            codes, lens = encode_raw(left)
            side_r = encode_raw(right)
            nl, nr = len(left), len(right)
            index = PassJoinIndex(right, k=k)
            cands = [
                (q, j)
                for qb, jb in index.probe_codes(codes, lens)
                for q, j in zip(qb.tolist(), jb.tolist())
            ]
            verdict, by_text = {}, {}
            for q, j in cands:
                s, t = left[q], right[j]
                if (s, t) not in by_text:  # repeated texts: decide once
                    within = pdl(s, t, k)
                    by_text[s, t] = (
                        ("length", abs(len(s) - len(t)) <= k),
                        # DL differs from PDL only on empty strings
                        ("dl",
                         within or (not s or not t) and len(s + t) <= k),
                        ("pdl", within),
                        ("ham", hamming(s, t) <= k),
                    )
                db = sum(bin(int(x)).count("1") for x in sig_l[q] ^ sig_r[j])
                for f, ok in (("fbf", db <= 64), *by_text[s, t]):
                    verdict[f, q, j] = ok
            for ci, filters in enumerate(_CHAINS):
                keys = {
                    (s, sig.tobytes() if "fbf" in filters else b"")
                    for s, sig in zip(left, sig_l)
                }
                for vi, verifier in enumerate((None, "dl", "pdl", "ham")):
                    mode = modes[(ci + vi) % len(modes)]
                    wtr = mode.get("weighter")
                    sym = wtr is not None and wtr.symmetric
                    vl, vr = mode.get("vids", (range(nl), range(nr)))
                    want_pairs = []
                    want = dict.fromkeys(
                        ("compared", "emitted", "verified", "survivors",
                         "matched", "diagonal"), 0
                    )
                    want["passed"] = [0] * len(filters)
                    want["reused"] = 0 if mode else nl - len(keys)
                    for q, j in cands:
                        if sym and j < q:
                            continue
                        wt = 1 if wtr is None else wtr.weight(q, j)
                        want["compared"] += 1
                        want["emitted"] += wt
                        for x, f in enumerate(filters):
                            if not verdict[f, q, j]:
                                break
                            want["passed"][x] += wt
                        else:
                            want["survivors"] += wt
                            if verifier is not None:
                                want["verified"] += 1
                                if not verdict[verifier, q, j]:
                                    continue
                                want["matched"] += wt
                                want["diagonal"] += wt * (vl[q] == vr[j])
                            want_pairs.append((q, j))
                    for run in runs(ci, vi):
                        got_i, got_j, tally = run.passjoin_run(
                            index, codes, lens, right=side_r, k=k,
                            filters=filters, verifier=verifier,
                            sigs=(sig_l, sig_r), bound=64, **mode,
                        )
                        if (
                            list(zip(got_i.tolist(), got_j.tolist()))
                            != want_pairs
                            or tally != want
                        ):
                            return (
                                f"{what} mismatch: {filters} {verifier} "
                                f"{sorted(mode)}"
                            )
            return None

        w = "".join(alpha[c] for c in rng.integers(0, 6, size=65))
        left = ["", "a", "ab", "ba", *rand(5, 2, 6), "", "ab", "ba",
                w[:64], w[:65], w[1] + w[0] + w[2:65], w[:63] + "ab",
                *rand(5, 2, 6)]
        # Indexed filler rows (never probed) put the two halves in
        # different stamp words: a stamp left set is not cleared by a
        # neighbour's.
        right = left[:9] + rand(56, 12, 20) + left[9:]
        nl, nr = len(left), len(right)
        sig_l = rng.integers(0, 1 << 63, size=(nl, 2), dtype=np.uint64)
        sig_r = rng.integers(0, 1 << 63, size=(nr, 2), dtype=np.uint64)
        wl, wr = rng.integers(1, 4, size=nl), rng.integers(1, 4, size=nr)
        vids = (
            np.array([right.index(x) if x in right else -1 for x in left]),
            np.arange(nr),
        )
        small = ks._with_capacity(1)
        err = passjoin_section(
            left, right, sig_l, sig_r,
            (
                {},
                {"weighter": PairWeighter(wl, wr)},
                {"weighter": PairWeighter(wl, wr, symmetric=True),
                 "vids": vids},
            ),
            lambda ci, vi: [small if vi == ci else ks],
            "passjoin run",
        )
        if err:
            return err

        # -- PASS-JOIN run, repeated queries: plain runs answer a query
        # repeated in the call from its first copy.  Twins with equal
        # and with different signature rows (only the first are one
        # query under FBF), 64- and 65-char twins, twins whose own row
        # is a match on the diagonal and twins whose row is not; one
        # verifier per chain runs again resumed at capacity 1 (a twin's
        # first copy then left in an earlier call's buffer).
        texts = ["ab", "ba", "", w[:65], "ab", w[:64], "ba", "ab", "",
                 w[:65], "a", "ab", w[:64], "ba", w[:65]]
        right = texts[:6] + [w[1:65], "abA", "b", "aab", w[:63] + "b"]
        own = {t: rng.integers(0, 1 << 63, size=2, dtype=np.uint64)
               for t in texts}
        sig_l = np.array([own[t] for t in texts])
        sig_l[[7, 9, 12]] = rng.integers(0, 1 << 63, size=(3, 2),
                                         dtype=np.uint64)
        sig_r = rng.integers(0, 1 << 63, size=(len(right), 2),
                             dtype=np.uint64)
        err = passjoin_section(
            texts, right, sig_l, sig_r, ({},),
            lambda ci, vi: [ks, small] if vi == ci else [ks],
            "passjoin reuse",
        )
        if err:
            return err
        for index, queries in ((PassJoinIndex([], k=1), left),
                               (PassJoinIndex(right, k=1), [])):
            got_i, _, tally = ks.passjoin_run(index, *encode_raw(queries))
            if len(got_i) or tally["compared"]:
                return "passjoin run: an empty side emitted pairs"
    except Exception as exc:  # pragma: no cover - defensive
        return repr(exc)
    return None
