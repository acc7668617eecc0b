"""Compiled kernel tier: the hot kernels as compiled code behind the
backend protocol.

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
4. the PASS-JOIN probe over the flat segment index, for ``uint8``
   (``encode_raw``) and ``uint32`` (UTF-32) codes, yielding exactly the
   blocks of ``core/passjoin.py::SegmentIndex.probe_codes``.

They have one provider, ``cc``: a C translation unit compiled on first
use with the host's C compiler and loaded via ctypes (cached on disk,
see :mod:`repro.native._csrc`).  The provider must pass a bit-exactness
self-check against the scalar and NumPy references before it is
offered; a provider that fails validation is treated as absent.  When
it does not load, callers fall back to the NumPy tier —
``resolve_kernels("native")`` warns once (via
:func:`repro._compat.warn_once`) instead of raising, so
``backend="native"`` degrades gracefully on machines without a C
toolchain.

Environment knobs:

* ``REPRO_NO_NATIVE=1`` — force the NumPy fallback deterministically
  (CI fallback legs, bug reports).
* ``REPRO_NATIVE_CACHE=<dir>`` — where the cc provider caches builds.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro._compat import warn_once

__all__ = [
    "KernelSet",
    "MODE_DL",
    "MODE_PDL",
    "available",
    "kind",
    "load_kernels",
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


class KernelSet:
    """The compiled kernels of one provider, at NumPy call level.

    Instances are cheap handles; the heavy state (jitted functions or
    the loaded shared library) lives in the provider module.  Methods
    coerce inputs to the layouts the kernels require and return plain
    NumPy arrays, bit-identical to the NumPy-tier equivalents.
    """

    __slots__ = ("kind", "_p")

    def __init__(self, kind: str, prims: dict[str, Callable]):
        self.kind = kind
        self._p = prims

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelSet(kind={self.kind!r})"

    # -- candidate generation ------------------------------------------

    def fbf_candidates_u64(
        self, left_sigs: np.ndarray, right_sigs: np.ndarray, bound: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """FBF scan over packed uint64 signature matrices
        (:func:`repro.parallel.kernels.pack_signatures`): the ``("fbf",)``
        chain of :meth:`fused_rows_u64` over every left row; row-major
        order identical to ``core/vectorized.py::fbf_candidates`` on the
        unpacked words."""
        L = _sig2d(left_sigs, np.uint64)
        ii, jj, _ = self.fused_rows_u64(
            L, right_sigs, None, None, 0, L.shape[0],
            bound=bound, k=0, filters=("fbf",),
        )
        return ii, jj

    # -- gathered pair filters -----------------------------------------

    def sig_pair_mask_u64(
        self, left_sigs, right_sigs, ii, jj, bound: int
    ) -> np.ndarray:
        L = _sig2d(left_sigs, np.uint64)
        R = _sig2d(right_sigs, np.uint64)
        out = self._p["pair_mask_u64"](L, R, _idx(ii), _idx(jj), int(bound))
        return out.view(bool)

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

    # -- PASS-JOIN probe -----------------------------------------------

    def passjoin_probe(
        self,
        index,
        codes: np.ndarray,
        lens: np.ndarray,
        *,
        max_pairs: int = 1 << 20,
    ):
        """``index.probe_codes(codes, lens, max_pairs=max_pairs)``,
        compiled: the same ``(query_idx, ids)`` pairs in the same blocks.

        ``index`` is a :class:`repro.core.passjoin.SegmentIndex`, probed
        through its flat arrays.  ``codes`` is a padded code matrix:
        ``uint8`` (:func:`repro.distance.codec.encode_raw`) or ``uint32``
        (UTF-32); other integer dtypes are widened to ``uint32``.  The
        output buffer holds 64 Ki pairs; a call resumes where a full
        buffer stopped it, and the buffer grows when one query's
        candidates need more.  Inputs are validated here, before the
        returned iterator runs.
        """
        return self._passjoin_probe(index, codes, lens, max_pairs, None)

    def _passjoin_probe(self, index, codes, lens, max_pairs, capacity):
        """:meth:`passjoin_probe` with an output buffer of ``capacity``
        pairs (``None``: the default) — small ones drive the resume
        path in the self-check and the tests."""
        codes = np.asarray(codes)
        codes = np.ascontiguousarray(
            codes, dtype=np.uint8 if codes.dtype == np.uint8 else np.uint32
        )
        lens = _idx(lens)
        if codes.ndim != 2 or lens.shape != (codes.shape[0],):
            raise ValueError(
                f"codes {codes.shape} and lengths {lens.shape} do not match"
            )
        if len(lens) and (lens.min() < 0 or lens.max() > codes.shape[1]):
            raise ValueError("a length exceeds the code matrix width")
        if max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
        hashes, ids, table = index.flat()
        return self._p["passjoin_probe"](
            codes, lens, np.ascontiguousarray(hashes, dtype=np.uint64),
            _idx(ids), _idx(table).reshape(-1, 4), len(index), index.k,
            int(max_pairs), capacity,
        )


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
    the quiet probe used by auto-selection.
    """
    if _disabled():
        return None
    for name in _PROVIDERS:
        ks = _load_provider(name)
        if ks is not None:
            return ks
    return None


def resolve_kernels(
    request: str | None, *, warn_key: str = "backend"
) -> KernelSet | None:
    """Resolve a kernel request string to a :class:`KernelSet` or ``None``.

    ``request`` semantics:

    * ``None``/``"numpy"`` — never use compiled kernels.
    * ``"auto"`` — compiled kernels if available, silently otherwise.
    * ``"native"`` — compiled kernels expected: when unavailable (or
      disabled via ``REPRO_NO_NATIVE``), warn once and fall back.
    * ``"cc"`` — pin the provider, same warn-once fallback.
    """
    if request is None or request == "numpy":
        return None
    if request not in ("auto", "native", *_PROVIDERS):
        raise ValueError(
            f"unknown kernels request {request!r}; expected 'numpy', "
            f"'auto', 'native' or 'cc'"
        )
    if _disabled():
        if request != "auto":
            warn_once(
                f"native-disabled:{warn_key}",
                "compiled kernels disabled by REPRO_NO_NATIVE=1; "
                "falling back to the NumPy (vectorized) path",
                category=RuntimeWarning,
            )
        return None
    if request in _PROVIDERS:
        ks = _load_provider(request)
    else:
        ks = load_kernels()
    if ks is None and request != "auto":
        detail = "; ".join(
            f"{name}: {_REASONS.get(name, 'not probed')}"
            for name in _PROVIDERS
        )
        warn_once(
            f"native-unavailable:{warn_key}",
            "compiled kernels requested but no provider loaded "
            f"({detail}); falling back to the NumPy (vectorized) path "
            "— the provider needs a C compiler ($CC, cc, gcc or clang)",
            category=RuntimeWarning,
        )
    return ks


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
    """
    try:
        from repro.core.popcount import popcount_batch_u64
        from repro.distance.codec import encode_raw
        from repro.distance.damerau import damerau_levenshtein
        from repro.distance.pruned import pdl

        rng = np.random.default_rng(0x5EED)

        # -- signature kernels ----------------------------------------
        L = rng.integers(0, 1 << 63, size=(11, 2), dtype=np.uint64)
        R = rng.integers(0, 1 << 63, size=(7, 2), dtype=np.uint64)
        db = np.zeros((L.shape[0], R.shape[0]), dtype=np.int64)
        for w in range(L.shape[1]):
            db += popcount_batch_u64(L[:, w][:, None] ^ R[:, w][None, :])
        pi = np.repeat(np.arange(L.shape[0]), R.shape[0])
        pj = np.tile(np.arange(R.shape[0]), L.shape[0])
        for bound in (0, 60, 68):
            ri, rj = np.nonzero(db <= bound)
            gi, gj = ks.fbf_candidates_u64(L, R, bound)
            if not (
                np.array_equal(gi, ri.astype(np.int64))
                and np.array_equal(gj, rj.astype(np.int64))
            ):
                return f"fbf scan bound={bound} mismatch"
            got = ks.sig_pair_mask_u64(L, R, pi, pj, bound)
            if not np.array_equal(got, db.ravel() <= bound):
                return f"pair mask bound={bound} mismatch"

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
        for k in (0, 1, 2, 3):
            for mode in (MODE_DL, MODE_PDL):
                got = ks.osa_decisions(
                    codes, lengths, codes, lengths, ii, jj, k, mode=mode
                )
                for p in range(len(ii)):
                    s, t = strings[ii[p]], strings[jj[p]]
                    if mode == MODE_PDL:
                        want = pdl(s, t, k)
                    else:
                        want = damerau_levenshtein(s, t) <= k
                    if bool(got[p]) != want:
                        return (
                            f"osa mode={mode} k={k} mismatch on "
                            f"({len(s)},{len(t)})-char pair"
                        )

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

        # -- PASS-JOIN probe: both code widths, k 0-2, lengths ---------
        # 0/1/63/64/65, an empty index and an empty query batch.  The
        # reference's blocks re-cut at max_pairs=3 are what that cap
        # yields; capacity=2 also forces the output buffer's
        # overflow/resume path.
        from repro.core.passjoin import PassJoinIndex, _encode_codes

        w = "".join(alpha[c] for c in rng.integers(4, 6, size=65))
        words = ["", "a", "ab", "ba", w[:63], w[:64], w, w[1] + w[0] + w[2:64]]
        for k in (0, 1, 2):
            for index in (PassJoinIndex(words, k=k), PassJoinIndex([], k=k)):
                for queries in (words, []):
                    utf32 = _encode_codes(queries)
                    want = [
                        (q.tolist(), j.tolist())
                        for q, j in index.probe_codes(*utf32)
                    ]
                    cut = [
                        (q[c : c + 3], j[c : c + 3])
                        for q, j in want
                        for c in range(0, len(q), 3)
                    ]
                    for codes, lens in (encode_raw(queries), utf32):
                        for expect, max_pairs, capacity in (
                            (want, 1 << 20, None),
                            (cut, 3, 2),
                        ):
                            got = ks._passjoin_probe(
                                index, codes, lens, max_pairs, capacity
                            )
                            if expect != [
                                (q.tolist(), j.tolist()) for q, j in got
                            ]:
                                return (
                                    f"passjoin probe mismatch: k={k} "
                                    f"{codes.dtype} max_pairs={max_pairs}"
                                )
    except Exception as exc:  # pragma: no cover - defensive
        return repr(exc)
    return None
