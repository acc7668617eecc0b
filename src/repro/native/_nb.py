"""numba-JIT twins of the compiled kernels (import-guarded).

Importing this module requires numba; :mod:`repro.native` guards the
import and falls back to the C provider (or NumPy) when it is absent.
The kernels are direct ports of the C translation unit in
:mod:`repro.native._csrc` — same traversal order, same transposition
fold, same banded recurrence — so either provider yields bit-identical
candidate lists and verifier decisions.  Outer loops use ``prange``;
candidate emission is two-pass (count, prefix-sum, fill) so every
thread writes a disjoint slice.

All jitted functions compile lazily with ``cache=True``: the first
native-tier call in a process pays the compile (or hits numba's on-disk
cache); pool workers inherit the cache through the filesystem.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

__all__ = ["load"]

_U = np.uint64


@njit(cache=True)
def _pc64(x):
    x = x - ((x >> _U(1)) & _U(0x5555555555555555))
    x = (x & _U(0x3333333333333333)) + ((x >> _U(2)) & _U(0x3333333333333333))
    x = (x + (x >> _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
    return np.int64((x * _U(0x0101010101010101)) >> _U(56))


@njit(cache=True, parallel=True)
def _fbf_scan(L, R, bound):
    nl = L.shape[0]
    width = L.shape[1]
    nr = R.shape[0]
    counts = np.zeros(nl, np.int64)
    for i in prange(nl):
        c = 0
        for j in range(nr):
            db = np.int64(0)
            for w in range(width):
                db += _pc64(_U(L[i, w]) ^ _U(R[j, w]))
            if db <= bound:
                c += 1
        counts[i] = c
    offsets = np.zeros(nl + 1, np.int64)
    for i in range(nl):
        offsets[i + 1] = offsets[i] + counts[i]
    out_i = np.empty(offsets[nl], np.int64)
    out_j = np.empty(offsets[nl], np.int64)
    for i in prange(nl):
        pos = offsets[i]
        for j in range(nr):
            db = np.int64(0)
            for w in range(width):
                db += _pc64(_U(L[i, w]) ^ _U(R[j, w]))
            if db <= bound:
                out_i[pos] = i
                out_j[pos] = j
                pos += 1
    return out_i, out_j


@njit(cache=True, parallel=True)
def _pair_mask(L, R, ii, jj, bound):
    n = ii.shape[0]
    width = L.shape[1]
    out = np.empty(n, np.uint8)
    for p in prange(n):
        i = ii[p]
        j = jj[p]
        db = np.int64(0)
        for w in range(width):
            db += _pc64(_U(L[i, w]) ^ _U(R[j, w]))
        out[p] = 1 if db <= bound else 0
    return out


@njit(cache=True)
def _osa_bp64(s, m, t, n):
    # Match masks are built per column (O(m) bit-ors) instead of a
    # 256-entry peq table, avoiding a heap allocation per pair.
    one = _U(1)
    if m == 64:
        mask = _U(0xFFFFFFFFFFFFFFFF)
    else:
        mask = (one << _U(m)) - one
    high = one << _U(m - 1)
    vp = mask
    vn = _U(0)
    d0 = _U(0)
    pm_prev = _U(0)
    score = m
    for j in range(n):
        tj = t[j]
        pm = _U(0)
        for idx in range(m):
            if s[idx] == tj:
                pm |= one << _U(idx)
        tr = ((((~d0) & pm) << one) & pm_prev) & mask
        d0 = ((((pm & vp) + vp) ^ vp) | pm | vn) & mask
        d0 = d0 | tr
        hp = (vn | (~(d0 | vp) & mask)) & mask
        hn = d0 & vp
        if hp & high:
            score += 1
        elif hn & high:
            score -= 1
        hp = ((hp << one) | one) & mask
        hn = (hn << one) & mask
        vp = (hn | (~(d0 | hp) & mask)) & mask
        vn = hp & d0
        pm_prev = pm
    return score


@njit(cache=True)
def _banded_osa(s, m, t, n, k):
    INF = np.int64(k + 1)
    prev2 = np.empty(n + 1, np.int64)
    prev = np.empty(n + 1, np.int64)
    cur = np.empty(n + 1, np.int64)
    for j in range(n + 1):
        prev2[j] = INF
        prev[j] = j if j <= k else INF
        cur[j] = INF
    for i in range(1, m + 1):
        lo = i - k if i - k > 1 else 1
        hi = i + k if i + k < n else n
        cur[lo - 1] = i if (lo == 1 and i <= k) else INF
        row_min = cur[lo - 1]
        si = s[i - 1]
        si_prev = s[i - 2] if i > 1 else np.uint8(0)
        for j in range(lo, hi + 1):
            tj = t[j - 1]
            if si == tj:
                d = prev[j - 1]
            else:
                d = prev[j]
                if cur[j - 1] < d:
                    d = cur[j - 1]
                if prev[j - 1] < d:
                    d = prev[j - 1]
                d += 1
                if i > 1 and j > 1 and si == t[j - 2] and si_prev == tj:
                    trans = prev2[j - 2] + 1
                    if trans < d:
                        d = trans
            cur[j] = d if d <= k else INF
            if d < row_min:
                row_min = d
        if hi < n:
            cur[hi + 1] = INF
        if row_min > k:
            return np.int64(-1)
        tmp = prev2
        prev2 = prev
        prev = cur
        cur = tmp
    return prev[n] if prev[n] <= k else np.int64(-1)


@njit(cache=True, parallel=True)
def _osa_mask(codes_l, len_l, codes_r, len_r, ii, jj, k, mode):
    npairs = ii.shape[0]
    out = np.empty(npairs, np.uint8)
    for p in prange(npairs):
        i = ii[p]
        j = jj[p]
        la = len_l[i]
        lb = len_r[j]
        if la == 0 or lb == 0:
            if mode == 1:
                out[p] = 0
            else:
                mx = la if la > lb else lb
                out[p] = 1 if mx <= k else 0
            continue
        dlen = la - lb
        if dlen < 0:
            dlen = -dlen
        if dlen > k:
            out[p] = 0
            continue
        # OSA is symmetric: run the shorter side as the pattern so the
        # one-word fast path covers every pair with min(la, lb) <= 64.
        if la <= lb:
            s = codes_l[i, :la]
            t = codes_r[j, :lb]
        else:
            s = codes_r[j, :lb]
            t = codes_l[i, :la]
        m = s.shape[0]
        n = t.shape[0]
        if m <= 64:
            out[p] = 1 if _osa_bp64(s, m, t, n) <= k else 0
        elif k == 0:
            eq = 1
            for x in range(m):
                if s[x] != t[x]:
                    eq = 0
                    break
            out[p] = eq
        else:
            out[p] = 1 if _banded_osa(s, m, t, n, k) >= 0 else 0
    return out


@njit(cache=True, parallel=True)
def _fused_rows(L, R, len_l, len_r, r0, r1, bound, k, filters):
    nrows = r1 - r0
    nr = R.shape[0]
    width = L.shape[1]
    nf = filters.shape[0]
    counts = np.zeros(nrows, np.int64)
    passed_rows = np.zeros((nrows, nf), np.int64)
    for ri in prange(nrows):
        i = r0 + ri
        la = len_l[i]
        c = 0
        for j in range(nr):
            ok = True
            for f in range(nf):
                if filters[f] == 0:
                    dlen = la - len_r[j]
                    if dlen < 0:
                        dlen = -dlen
                    ok = dlen <= k
                else:
                    db = np.int64(0)
                    for w in range(width):
                        db += _pc64(L[i, w] ^ R[j, w])
                    ok = db <= bound
                if not ok:
                    break
                passed_rows[ri, f] += 1
            if ok:
                c += 1
        counts[ri] = c
    offsets = np.zeros(nrows + 1, np.int64)
    for ri in range(nrows):
        offsets[ri + 1] = offsets[ri] + counts[ri]
    out_i = np.empty(offsets[nrows], np.int64)
    out_j = np.empty(offsets[nrows], np.int64)
    for ri in prange(nrows):
        i = r0 + ri
        la = len_l[i]
        pos = offsets[ri]
        for j in range(nr):
            ok = True
            for f in range(nf):
                if filters[f] == 0:
                    dlen = la - len_r[j]
                    if dlen < 0:
                        dlen = -dlen
                    ok = dlen <= k
                else:
                    db = np.int64(0)
                    for w in range(width):
                        db += _pc64(L[i, w] ^ R[j, w])
                    ok = db <= bound
                if not ok:
                    break
            if ok:
                out_i[pos] = i
                out_j[pos] = j
                pos += 1
    passed = np.zeros(nf, np.int64)
    for ri in range(nrows):
        for f in range(nf):
            passed[f] += passed_rows[ri, f]
    return out_i, out_j, passed


def load():
    """Provider primitives backed by the jitted kernels."""

    def fbf_scan_u64(L, R, bound):
        return _fbf_scan(L, R, bound)

    def pair_mask_u64(L, R, ii, jj, bound):
        return _pair_mask(L, R, ii, jj, bound)

    def osa_mask(codes_l, len_l, codes_r, len_r, ii, jj, k, mode):
        return _osa_mask(codes_l, len_l, codes_r, len_r, ii, jj, k, mode)

    def fused_rows_u64(L, R, len_l, len_r, r0, r1, bound, k, filter_codes):
        return _fused_rows(L, R, len_l, len_r, r0, r1, bound, k, filter_codes)

    return {
        "fbf_scan_u64": fbf_scan_u64,
        "pair_mask_u64": pair_mask_u64,
        "osa_mask": osa_mask,
        "fused_rows_u64": fused_rows_u64,
    }
