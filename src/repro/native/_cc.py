"""ctypes wrappers presenting the C kernels at NumPy level.

:func:`load` returns the provider primitive dict consumed by
:class:`repro.native.KernelSet`.  All wrappers assume the caller already
coerced inputs to C-contiguous arrays of the right dtype (the KernelSet
layer does this once); they only manage output buffers.

Candidate-emitting kernels use an adaptive capacity scheme: the scan is
chunked into row blocks of bounded pair count, each block starts from a
density-informed capacity guess, and a ``-1`` overflow return doubles
the buffer and re-runs the block.  Capacity never exceeds the block's
pair count, so the retry loop always terminates.
"""

from __future__ import annotations

import numpy as np

from repro.native import _csrc

__all__ = ["load"]

#: target pairs per kernel call — bounds both scan latency per call and
#: the worst-case output buffer a single retry can demand
_BLOCK_PAIRS = 1 << 24


def _scan(fn, L: np.ndarray, R: np.ndarray, bound: int):
    nl, width = L.shape
    nr = R.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if nl == 0 or nr == 0:
        return empty, empty.copy()
    rows_per = max(1, min(nl, _BLOCK_PAIRS // max(nr, 1)))
    ii_parts: list[np.ndarray] = []
    jj_parts: list[np.ndarray] = []
    density = 0.05
    for r0 in range(0, nl, rows_per):
        r1 = min(nl, r0 + rows_per)
        pairs = (r1 - r0) * nr
        cap = min(pairs, max(1024, int(pairs * density) + 1024))
        while True:
            out_i = np.empty(cap, dtype=np.int64)
            out_j = np.empty(cap, dtype=np.int64)
            n = fn(
                L.ctypes.data, R.ctypes.data, r0, r1, nr, width, bound,
                out_i.ctypes.data, out_j.ctypes.data, cap,
            )
            if n >= 0:
                break
            cap = min(pairs, cap * 2)
        if n:
            ii_parts.append(out_i[:n].copy())
            jj_parts.append(out_j[:n].copy())
        density = max(density, n / pairs)
    if not ii_parts:
        return empty, empty.copy()
    return np.concatenate(ii_parts), np.concatenate(jj_parts)


def _pair_mask(fn, L, R, ii, jj, bound):
    n = ii.shape[0]
    out = np.empty(n, dtype=np.uint8)
    if n:
        fn(
            L.ctypes.data, R.ctypes.data, L.shape[1],
            ii.ctypes.data, jj.ctypes.data, n, bound, out.ctypes.data,
        )
    return out


def load():
    """Bind the compiled library, or raise with the build failure."""
    raw = _csrc.load_library()
    if raw is None:
        raise RuntimeError(_csrc.build_error() or "C kernel build failed")

    def fbf_scan_u64(L, R, bound):
        return _scan(raw["fbf_scan_u64"], L, R, bound)

    def pair_mask_u64(L, R, ii, jj, bound):
        return _pair_mask(raw["pair_mask_u64"], L, R, ii, jj, bound)

    def osa_mask(codes_l, len_l, codes_r, len_r, ii, jj, k, mode):
        n = ii.shape[0]
        out = np.empty(n, dtype=np.uint8)
        if n:
            rc = raw["osa_mask"](
                codes_l.ctypes.data, len_l.ctypes.data, codes_l.shape[1],
                codes_r.ctypes.data, len_r.ctypes.data, codes_r.shape[1],
                ii.ctypes.data, jj.ctypes.data, n, k, mode, out.ctypes.data,
            )
            if rc != 0:  # pragma: no cover - malloc failure
                raise MemoryError("osa_mask scratch allocation failed")
        return out

    def fused_rows_u64(L, R, len_l, len_r, r0, r1, bound, k, filter_codes):
        nr = R.shape[0]
        width = L.shape[1]
        nf = filter_codes.shape[0]
        passed_total = np.zeros(nf, dtype=np.int64)
        passed_block = np.zeros(nf, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        if r1 <= r0 or nr == 0:
            return empty, empty.copy(), passed_total
        rows_per = max(1, min(r1 - r0, _BLOCK_PAIRS // max(nr, 1)))
        ii_parts: list[np.ndarray] = []
        jj_parts: list[np.ndarray] = []
        density = 0.05
        for b0 in range(r0, r1, rows_per):
            b1 = min(r1, b0 + rows_per)
            pairs = (b1 - b0) * nr
            cap = min(pairs, max(1024, int(pairs * density) + 1024))
            while True:
                out_i = np.empty(cap, dtype=np.int64)
                out_j = np.empty(cap, dtype=np.int64)
                n = raw["fused_rows_u64"](
                    L.ctypes.data, R.ctypes.data, width,
                    len_l.ctypes.data, len_r.ctypes.data,
                    b0, b1, nr, bound, k,
                    filter_codes.ctypes.data, nf,
                    out_i.ctypes.data, out_j.ctypes.data, cap,
                    passed_block.ctypes.data,
                )
                if n >= 0:
                    break
                cap = min(pairs, cap * 2)
            if n:
                ii_parts.append(out_i[:n].copy())
                jj_parts.append(out_j[:n].copy())
            passed_total += passed_block
            density = max(density, n / pairs)
        if not ii_parts:
            return empty, empty.copy(), passed_total
        return np.concatenate(ii_parts), np.concatenate(jj_parts), passed_total

    return {
        "fbf_scan_u64": fbf_scan_u64,
        "pair_mask_u64": pair_mask_u64,
        "osa_mask": osa_mask,
        "fused_rows_u64": fused_rows_u64,
    }
