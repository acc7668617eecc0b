"""C source and build driver for the compiled kernel provider.

The native tier's kernels are one C translation unit, compiled on first
use with whatever ``cc`` the host provides and loaded through
:mod:`ctypes`.  Builds are cached on disk under a name that carries the
SHA-256 of the source, the compiler flags and, for ``-march=native``
builds, the host CPU's feature flags: recompiles happen only when the
kernels change, a cache shared between hosts (``REPRO_NATIVE_CACHE`` on
shared storage, a CI cache, an image built elsewhere) never hands a
binary to a CPU that lacks its instructions, and the portable fallback
build has a name of its own.  Concurrent processes (hybrid pool
workers) converge on one artifact via an atomic rename.

Kernels mirror the pure-Python/NumPy references bit for bit:

* ``fused_rows_u64`` — the dense filter sweep: a method's filter chain
  (none, FBF, length, or length then FBF) fused with candidate emission
  over packed signature matrices, row-major order so the output matches
  ``np.nonzero`` exactly, with per-stage survivor counts for funnel
  accounting.  Each chain and signature width (1 word, 2 words, any)
  has its own loop body, picked once per call; length-first chains scan
  only each row's ``|dlen| <= k`` window of a length-sorted right side.
* ``pair_mask_u64`` — the gathered-pair signature filter used by
  index-driven generators.
* ``osa_mask`` — batched bounded OSA (restricted Damerau-Levenshtein)
  decisions: Hyyro bit-parallel for patterns up to 64 chars
  (``distance/bitparallel.py``), banded rolling-row DP beyond that
  (``distance/pruned.py::_banded_osa``).
* ``passjoin_probe`` — the PASS-JOIN probe
  (``core/passjoin.py::SegmentIndex.probe_codes``) over the flat segment
  index: per query, its shift windows and boundary-swap variants hashed
  with the same polynomial, the buckets binary-searched, the hits
  deduplicated and emitted with ids ascending, queries in (length,
  index) order.  One loop body per code width (``uint8`` and
  ``uint32``); the output buffer is filled with whole queries and the
  call resumes where it stopped.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Sequence

__all__ = ["build_error", "library_path", "load_library"]

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define POP64(x) ((int64_t)__builtin_popcountll((uint64_t)(x)))

/* ------------------------------------------------------------------ */
/* Gathered-pair signature filter: out[p] = diff_bits(pair p) <= bound */
/* ------------------------------------------------------------------ */

void pair_mask_u64(const uint64_t *L, const uint64_t *R, int64_t width,
                   const int64_t *ii, const int64_t *jj, int64_t n,
                   int64_t bound, uint8_t *out) {
    for (int64_t p = 0; p < n; p++) {
        const uint64_t *li = L + ii[p] * width;
        const uint64_t *rj = R + jj[p] * width;
        int64_t db = 0;
        for (int64_t w = 0; w < width; w++)
            db += POP64(li[w] ^ rj[w]);
        out[p] = db <= bound;
    }
}

/* ------------------------------------------------------------------ */
/* Bit-parallel OSA (Hyyro-style restricted Damerau-Levenshtein) for   */
/* patterns up to 64 chars.  Mirrors osa_bitparallel() exactly,        */
/* including the transposition fold: TR = (((~D0)&PM)<<1) & PM_prev.   */
/* ------------------------------------------------------------------ */

static int64_t osa_bp64(const uint8_t *s, int64_t m,
                        const uint8_t *t, int64_t n) {
    uint64_t peq[256];
    memset(peq, 0, sizeof(peq));
    for (int64_t i = 0; i < m; i++)
        peq[s[i]] |= (uint64_t)1 << i;
    uint64_t mask = (m == 64) ? ~(uint64_t)0 : (((uint64_t)1 << m) - 1);
    uint64_t high = (uint64_t)1 << (m - 1);
    uint64_t vp = mask, vn = 0, d0 = 0, pm_prev = 0;
    int64_t score = m;
    for (int64_t j = 0; j < n; j++) {
        uint64_t pm = peq[t[j]];
        uint64_t tr = ((((~d0) & pm) << 1) & pm_prev) & mask;
        d0 = ((((pm & vp) + vp) ^ vp) | pm | vn) & mask;
        d0 |= tr;
        uint64_t hp = (vn | (~(d0 | vp) & mask)) & mask;
        uint64_t hn = d0 & vp;
        if (hp & high) score++;
        else if (hn & high) score--;
        hp = ((hp << 1) | 1) & mask;
        hn = (hn << 1) & mask;
        vp = (hn | (~(d0 | hp) & mask)) & mask;
        vn = hp & d0;
        pm_prev = pm;
    }
    return score;
}

/* ------------------------------------------------------------------ */
/* Banded OSA DP, three rolling rows — a straight port of              */
/* distance/pruned.py::_banded_osa.  Preconditions: m, n >= 1,         */
/* |m - n| <= k, k >= 1.  Rows are caller-provided scratch of at       */
/* least n + 2 entries each.  Returns the distance if <= k, else -1.   */
/* ------------------------------------------------------------------ */

static int64_t banded_osa(const uint8_t *s, int64_t m,
                          const uint8_t *t, int64_t n, int64_t k,
                          int32_t *prev2, int32_t *prev, int32_t *cur) {
    int32_t INF = (int32_t)(k + 1);
    for (int64_t j = 0; j <= n; j++) {
        prev2[j] = INF;
        prev[j] = (j <= k) ? (int32_t)j : INF;
        cur[j] = INF;
    }
    for (int64_t i = 1; i <= m; i++) {
        int64_t lo = (i - k > 1) ? i - k : 1;
        int64_t hi = (i + k < n) ? i + k : n;
        cur[lo - 1] = (lo == 1 && i <= k) ? (int32_t)i : INF;
        int32_t row_min = cur[lo - 1];
        uint8_t si = s[i - 1];
        uint8_t si_prev = (i > 1) ? s[i - 2] : 0;
        for (int64_t j = lo; j <= hi; j++) {
            uint8_t tj = t[j - 1];
            int32_t d;
            if (si == tj) {
                d = prev[j - 1];
            } else {
                d = prev[j];
                if (cur[j - 1] < d) d = cur[j - 1];
                if (prev[j - 1] < d) d = prev[j - 1];
                d += 1;
                if (i > 1 && j > 1 && si == t[j - 2] && si_prev == tj) {
                    int32_t trans = prev2[j - 2] + 1;
                    if (trans < d) d = trans;
                }
            }
            cur[j] = (d <= k) ? d : INF;
            if (d < row_min) row_min = d;
        }
        if (hi < n) cur[hi + 1] = INF;
        if (row_min > (int32_t)k) return -1;
        int32_t *tmp = prev2;
        prev2 = prev;
        prev = cur;
        cur = tmp;
    }
    return (prev[n] <= k) ? (int64_t)prev[n] : -1;
}

/* ------------------------------------------------------------------ */
/* Batched bounded-OSA decisions over gathered candidate pairs.        */
/* mode 0 = DL (empty strings compare by length), mode 1 = PDL (the    */
/* paper's Step 1: any empty side is an automatic reject).             */
/* Returns 0 on success, -1 on allocation failure.                     */
/* ------------------------------------------------------------------ */

int32_t osa_mask(const uint8_t *codes_l, const int64_t *len_l, int64_t wl,
                 const uint8_t *codes_r, const int64_t *len_r, int64_t wr,
                 const int64_t *ii, const int64_t *jj, int64_t npairs,
                 int64_t k, int32_t mode, uint8_t *out) {
    int64_t rowlen = ((wl > wr) ? wl : wr) + 2;
    int32_t *rows = NULL;
    for (int64_t p = 0; p < npairs; p++) {
        int64_t i = ii[p], j = jj[p];
        int64_t la = len_l[i], lb = len_r[j];
        if (la == 0 || lb == 0) {
            if (mode == 1) { out[p] = 0; continue; }
            int64_t mx = (la > lb) ? la : lb;
            out[p] = mx <= k;
            continue;
        }
        int64_t dlen = la - lb;
        if (dlen < 0) dlen = -dlen;
        if (dlen > k) { out[p] = 0; continue; }
        /* OSA is symmetric: run the shorter side as the pattern so the
         * one-word fast path covers every pair with min(la, lb) <= 64. */
        const uint8_t *s = codes_l + i * wl;
        const uint8_t *t = codes_r + j * wr;
        int64_t m = la, n = lb;
        if (la > lb) {
            s = codes_r + j * wr;
            t = codes_l + i * wl;
            m = lb;
            n = la;
        }
        if (m <= 64) {
            out[p] = osa_bp64(s, m, t, n) <= k;
        } else if (k == 0) {
            out[p] = memcmp(s, t, (size_t)m) == 0;
        } else {
            if (rows == NULL) {
                rows = (int32_t *)malloc((size_t)(3 * rowlen) * sizeof(int32_t));
                if (rows == NULL) return -1;
            }
            out[p] = banded_osa(s, m, t, n, k, rows, rows + rowlen,
                                rows + 2 * rowlen) >= 0;
        }
    }
    free(rows);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Dense filter sweep (the paper's Algorithm 7 inner loop): rows       */
/* [row0, row1) of L against R, the method's filter chain fused with   */
/* candidate emission.  chain is a bit set: CHAIN_FBF = the signature  */
/* filter, CHAIN_LEN = the length filter evaluated first.  passed[]    */
/* receives the survivor count after each stage in chain order, the    */
/* NumPy mask chain's funnel accounting.  Pairs come out row-major      */
/* with j ascending, as np.nonzero emits them.  Returns the number of  */
/* pairs emitted, or -1 if cap would overflow.                         */
/*                                                                     */
/* Length-first chains read a right side sorted (stably) by length:    */
/* len_r ascending, R in the same order, order[p] the original id of   */
/* sorted position p.  Each row scans only its |dlen| <= k window, one */
/* length class at a time, and merges each class's ascending ids into  */
/* the row's output (scratch holds nr ids).                             */
/*                                                                     */
/* Every loop body below is instantiated with a compile-time width     */
/* class and chain, so the per-pair loops carry no width or stage      */
/* dispatch: each 64-pair block is one compare per pair into a         */
/* survivor mask whose set bits are then walked.                       */
/* ------------------------------------------------------------------ */

#define CHAIN_FBF 1
#define CHAIN_LEN 2
#define INLINE static inline __attribute__((always_inline))

/* Emit the survivors of li against positions [s, e) of R.  wc is the  */
/* width class: 1 or 2 words, or 0 for any width (words outer, pairs   */
/* inner).  map (NULL or the length order) turns positions into ids.   */
INLINE int64_t fbf_span(const uint64_t *li, const uint64_t *R,
                        int64_t width, const int wc, int64_t s, int64_t e,
                        int64_t bound, const int64_t *map, int64_t i,
                        int64_t *out_i, int64_t *out_j, int64_t count,
                        int64_t cap) {
    int64_t acc[64];
    for (int64_t b0 = s; b0 < e; b0 += 64) {
        int64_t n = (e - b0 < 64) ? e - b0 : 64;
        uint64_t m = 0;
        if (wc == 1) {
            const uint64_t *rb = R + b0;
            uint64_t l0 = li[0];
            for (int64_t t = 0; t < n; t++)
                m |= (uint64_t)(POP64(l0 ^ rb[t]) <= bound) << t;
        } else if (wc == 2) {
            const uint64_t *rb = R + 2 * b0;
            uint64_t l0 = li[0], l1 = li[1];
            for (int64_t t = 0; t < n; t++)
                m |= (uint64_t)(POP64(l0 ^ rb[2 * t])
                                + POP64(l1 ^ rb[2 * t + 1]) <= bound) << t;
        } else {
            const uint64_t *rb = R + width * b0;
            for (int64_t t = 0; t < n; t++)
                acc[t] = POP64(li[0] ^ rb[t * width]);
            for (int64_t w = 1; w < width; w++) {
                uint64_t lw = li[w];
                for (int64_t t = 0; t < n; t++)
                    acc[t] += POP64(lw ^ rb[t * width + w]);
            }
            for (int64_t t = 0; t < n; t++)
                m |= (uint64_t)(acc[t] <= bound) << t;
        }
        while (m) {
            int64_t p = b0 + __builtin_ctzll(m);
            if (count >= cap) return -1;
            out_i[count] = i;
            out_j[count] = map ? map[p] : p;
            count++;
            m &= m - 1;
        }
    }
    return count;
}

/* out[0, a) and out[a, a + b) are ascending: merge them in place. */
static void merge_runs(int64_t *out, int64_t a, int64_t b,
                       int64_t *scratch) {
    if (a == 0 || b == 0 || out[a - 1] < out[a]) return;
    memcpy(scratch, out, (size_t)a * sizeof(int64_t));
    int64_t x = 0, y = a, t = 0, end = a + b;
    while (x < a && y < end)
        out[t++] = (out[y] < scratch[x]) ? out[y++] : scratch[x++];
    while (x < a) out[t++] = scratch[x++];
}

/* First position in [lo, hi) with len >= v (side 0) or len > v       */
/* (side 1).                                                           */
static int64_t bisect(const int64_t *len, int64_t lo, int64_t hi,
                      int64_t v, int side) {
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (len[mid] < v || (side && len[mid] == v)) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

/* Chains without the length stage: every row against all of R. */
INLINE int64_t sweep_all(const uint64_t *L, const uint64_t *R,
                         int64_t width, const int wc, const int fbf,
                         int64_t row0, int64_t row1, int64_t nr,
                         int64_t bound, int64_t *out_i, int64_t *out_j,
                         int64_t cap, int64_t *passed) {
    int64_t count = 0;
    for (int64_t i = row0; i < row1; i++) {
        if (fbf) {
            count = fbf_span(L + i * width, R, width, wc, 0, nr, bound,
                             NULL, i, out_i, out_j, count, cap);
            if (count < 0) return -1;
        } else {
            if (count + nr > cap) return -1;
            for (int64_t j = 0; j < nr; j++) {
                out_i[count] = i;
                out_j[count++] = j;
            }
        }
    }
    if (fbf) passed[0] = count;
    return count;
}

/* Length-first chains: each row scans its |dlen| <= k window of the  */
/* length-sorted R, one length class at a time.                        */
INLINE int64_t sweep_window(const uint64_t *L, const uint64_t *R,
                            int64_t width, const int wc, const int fbf,
                            const int64_t *len_l, const int64_t *len_r,
                            const int64_t *order, int64_t row0,
                            int64_t row1, int64_t nr, int64_t bound,
                            int64_t k, int64_t *out_i, int64_t *out_j,
                            int64_t cap, int64_t *passed,
                            int64_t *scratch) {
    int64_t count = 0, in_window = 0;
    for (int64_t i = row0; i < row1; i++) {
        int64_t la = len_l[i], start = count;
        int64_t s = bisect(len_r, 0, nr, la - k, 0);
        while (s < nr && len_r[s] <= la + k) {
            int64_t e = bisect(len_r, s, nr, len_r[s], 1);
            int64_t mid = count;
            in_window += e - s;
            if (fbf) {
                count = fbf_span(L + i * width, R, width, wc, s, e, bound,
                                 order, i, out_i, out_j, count, cap);
                if (count < 0) return -1;
            } else {
                if (count + (e - s) > cap) return -1;
                for (int64_t p = s; p < e; p++) {
                    out_i[count] = i;
                    out_j[count++] = order[p];
                }
            }
            merge_runs(out_j + start, mid - start, count - mid, scratch);
            s = e;
        }
    }
    passed[0] = in_window;
    if (fbf) passed[1] = count;
    return count;
}

int64_t fused_rows_u64(const uint64_t *L, const uint64_t *R, int64_t width,
                       const int64_t *len_l, const int64_t *len_r,
                       const int64_t *order, int64_t row0, int64_t row1,
                       int64_t nr, int64_t bound, int64_t k, int32_t chain,
                       int64_t *out_i, int64_t *out_j, int64_t cap,
                       int64_t *passed, int64_t *scratch) {
#define ALL(wc, fbf) \
    sweep_all(L, R, width, wc, fbf, row0, row1, nr, bound, out_i, out_j, \
              cap, passed)
#define WINDOW(wc, fbf) \
    sweep_window(L, R, width, wc, fbf, len_l, len_r, order, row0, row1, \
                 nr, bound, k, out_i, out_j, cap, passed, scratch)
    switch (chain) {
    case 0:
        return ALL(0, 0);
    case CHAIN_FBF:
        return width == 1 ? ALL(1, 1) : width == 2 ? ALL(2, 1) : ALL(0, 1);
    case CHAIN_LEN:
        return WINDOW(0, 0);
    default:
        return width == 1 ? WINDOW(1, 1)
               : width == 2 ? WINDOW(2, 1) : WINDOW(0, 1);
    }
#undef ALL
#undef WINDOW
}

/* ------------------------------------------------------------------ */
/* PASS-JOIN probe: core/passjoin.py::SegmentIndex.probe_codes over    */
/* the flat (hashes, ids, table) index.  Queries are visited in the    */
/* given order (the caller's stable sort by length); for each, every   */
/* (length, segment) bucket with |dlen| <= k is probed at each shift   */
/* window with the window's hash and its vL/vR/vLR boundary-swap       */
/* variants (the same FNV polynomial as _fold).  The hits are          */
/* deduplicated with a per-query stamp (one bit per indexed id, in     */
/* seen), emitted as (query, id) pairs with ids ascending, and their   */
/* stamps cleared.  One loop body per code width (1 = encode_raw       */
/* bytes, 4 = UTF-32), picked once per call.                           */
/*                                                                     */
/* state[0] is the order position to start from and, on return, the   */
/* first one not emitted; a query is emitted whole or not at all.  A   */
/* query that does not fit in the cap has its stamps cleared too, so   */
/* the resumed call collects it again; when it would not fit an empty  */
/* buffer, state[1] receives the capacity it needs.  Returns the       */
/* number of pairs emitted.                                            */
/* ------------------------------------------------------------------ */

#define HASH_BASE 1099511628211ULL
#define HASH_OFFSET 1469598103934665603ULL

INLINE uint64_t fold(uint64_t h, uint64_t c) { return h * HASH_BASE + c + 1; }

INLINE uint64_t code_at(const void *row, const int wide, int64_t x) {
    return wide ? ((const uint32_t *)row)[x] : ((const uint8_t *)row)[x];
}

/* Append the ids of bucket [lo, hi) whose hash is h and whose stamp   */
/* is not yet set.                                                     */
INLINE int64_t collect(const uint64_t *hashes, const int64_t *ids,
                       int64_t lo, int64_t hi, uint64_t h, uint64_t *seen,
                       int64_t *cand, int64_t nc) {
    int64_t a = lo, b = hi;
    while (a < b) {
        int64_t mid = a + (b - a) / 2;
        if (hashes[mid] < h) a = mid + 1;
        else b = mid;
    }
    for (; a < hi && hashes[a] == h; a++) {
        int64_t id = ids[a];
        uint64_t bit = (uint64_t)1 << (id & 63);
        if (!(seen[id >> 6] & bit)) {
            seen[id >> 6] |= bit;
            cand[nc++] = id;
        }
    }
    return nc;
}

/* cand[0, nc) ascending into dst, read back from the stamp words     */
/* between the lowest and highest hit, clearing them.                  */
static void emit_sorted(const int64_t *cand, int64_t nc, uint64_t *seen,
                        int64_t *dst) {
    int64_t lo = cand[0], hi = cand[0];
    for (int64_t c = 1; c < nc; c++) {
        if (cand[c] < lo) lo = cand[c];
        if (cand[c] > hi) hi = cand[c];
    }
    int64_t t = 0;
    for (int64_t w = lo >> 6; w <= hi >> 6; w++) {
        uint64_t bits = seen[w];
        seen[w] = 0;
        while (bits) {
            dst[t++] = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
        }
    }
}

/* Every candidate of one query of length qlen, unsorted, into cand. */
INLINE int64_t probe_query(const void *q, const int wide, int64_t qlen,
                           int64_t k, const uint64_t *hashes,
                           const int64_t *ids, const int64_t *table,
                           int64_t m, uint64_t *seen, int64_t *cand) {
    int64_t parts = k + 1, nc = 0;
    int64_t t = 0, hi_t = m;
    while (t < hi_t) { /* first table row with length >= qlen - k */
        int64_t mid = t + (hi_t - t) / 2;
        if (table[4 * mid] < qlen - k) t = mid + 1;
        else hi_t = mid;
    }
    for (; t < m && table[4 * t] <= qlen + k; t++) {
        const int64_t *row = table + 4 * t;
        int64_t length = row[0], seg = row[1], blo = row[2], bhi = row[3];
        int64_t base = length / parts, rem = length % parts;
        int64_t seg_len = base + (seg >= parts - rem);
        int64_t p_i = seg * base
                      + (seg > parts - rem ? seg - (parts - rem) : 0);
        int64_t delta = qlen - length;
        int64_t lo = 0, hi = qlen - seg_len;
        if (p_i - k > lo) lo = p_i - k;
        if (p_i + delta - k > lo) lo = p_i + delta - k;
        if (p_i + k < hi) hi = p_i + k;
        if (p_i + delta + k < hi) hi = p_i + delta + k;
        if (hi < lo) continue;
        if (seg_len == 0) { /* every window is the empty string */
            nc = collect(hashes, ids, blo, bhi, HASH_OFFSET, seen, cand, nc);
            continue;
        }
        for (int64_t p = lo; p <= hi; p++) {
            int has_left = p >= 1, has_right = p + seg_len < qlen;
            /* Shared fold over p + 1 .. p + seg_len - 2, seeded with  */
            /* the window's first character or its left neighbor.      */
            uint64_t hb = fold(HASH_OFFSET, code_at(q, wide, p));
            uint64_t hl = has_left
                          ? fold(HASH_OFFSET, code_at(q, wide, p - 1)) : 0;
            for (int64_t j = p + 1; j < p + seg_len - 1; j++) {
                uint64_t c = code_at(q, wide, j);
                hb = fold(hb, c);
                hl = fold(hl, c);
            }
            uint64_t right = has_right ? code_at(q, wide, p + seg_len) : 0;
            uint64_t v[4];
            int nv = 0;
            if (seg_len == 1) {
                v[nv++] = hb;
                if (has_left) v[nv++] = hl;
                if (has_right) v[nv++] = fold(HASH_OFFSET, right);
            } else {
                uint64_t last = code_at(q, wide, p + seg_len - 1);
                v[nv++] = fold(hb, last);
                if (has_left) v[nv++] = fold(hl, last);
                if (has_right) v[nv++] = fold(hb, right);
                if (has_left && has_right) v[nv++] = fold(hl, right);
            }
            for (int x = 0; x < nv; x++)
                nc = collect(hashes, ids, blo, bhi, v[x], seen, cand, nc);
        }
    }
    return nc;
}

INLINE int64_t probe_all(const void *codes, const int wide, int64_t stride,
                         const int64_t *lens, const int64_t *order,
                         int64_t nq, const uint64_t *hashes,
                         const int64_t *ids, const int64_t *table,
                         int64_t m, int64_t k, uint64_t *seen,
                         int64_t *cand, int64_t *out_q, int64_t *out_j,
                         int64_t cap, int64_t *state) {
    int64_t count = 0, pos = state[0];
    size_t row_bytes = (size_t)stride * (wide ? 4 : 1);
    state[1] = 0;
    for (; pos < nq; pos++) {
        int64_t qi = order[pos];
        const void *q = (const uint8_t *)codes + (size_t)qi * row_bytes;
        int64_t nc = probe_query(q, wide, lens[qi], k, hashes, ids, table,
                                 m, seen, cand);
        if (count + nc > cap) {
            for (int64_t c = 0; c < nc; c++) seen[cand[c] >> 6] = 0;
            if (count == 0) state[1] = nc;
            break;
        }
        if (nc == 0) continue;
        emit_sorted(cand, nc, seen, out_j + count);
        for (int64_t c = 0; c < nc; c++) out_q[count++] = qi;
    }
    state[0] = pos;
    return count;
}

int64_t passjoin_probe(const void *codes, int32_t code_bytes,
                       int64_t stride, const int64_t *lens,
                       const int64_t *order, int64_t nq,
                       const uint64_t *hashes, const int64_t *ids,
                       const int64_t *table, int64_t m, int64_t k,
                       uint64_t *seen, int64_t *cand, int64_t *out_q,
                       int64_t *out_j, int64_t cap, int64_t *state) {
    if (code_bytes == 4)
        return probe_all(codes, 1, stride, lens, order, nq, hashes, ids,
                         table, m, k, seen, cand, out_q, out_j, cap, state);
    return probe_all(codes, 0, stride, lens, order, nq, hashes, ids, table,
                     m, k, seen, cand, out_q, out_j, cap, state);
}
"""

#: populated with the failure reason when the build was attempted and failed
_BUILD_ERROR: str | None = None

#: compiler flag sets in order of preference: code for the host CPU
#: (hardware POPCNT, vector popcount where present), then a portable build
FLAG_SETS: tuple[tuple[str, ...], ...] = (("-O3", "-march=native"), ("-O3",))


def build_error() -> str | None:
    """The reason the last in-process build attempt failed, if any."""
    return _BUILD_ERROR


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-native"


@functools.lru_cache(maxsize=1)
def _cpu_features() -> str:
    """The host CPU's feature flags: the ``flags`` (x86) or ``Features``
    (ARM) line of ``/proc/cpuinfo``, else ``platform.processor()``."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def library_path(cache: Path, flags: Sequence[str]) -> Path:
    """Where the build of :data:`C_SOURCE` with ``flags`` is cached.

    The name carries the source digest, the platform, and a hash of the
    flags plus, when they target the host CPU (``-march=native``), its
    feature flags.
    """
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    tag = f"{platform.system()}-{platform.machine()}".lower()
    key = " ".join(flags)
    if "-march=native" in flags:
        key += "\n" + _cpu_features()
    build = hashlib.sha256(key.encode()).hexdigest()[:12]
    return Path(cache) / f"repro_native_{digest}_{tag}_{build}.so"


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    return None


def _compile(cc: str, flags: Sequence[str], out: Path) -> None:
    """Compile :data:`C_SOURCE` with ``flags`` into ``out`` atomically
    (tmp + rename)."""
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    csrc = out.parent / f"repro_native_{digest}.c"
    if not csrc.exists():
        tmp = csrc.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(C_SOURCE)
        os.replace(tmp, csrc)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    cmd = [cc, *flags, "-shared", "-fPIC", "-o", tmp, str(csrc), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            os.replace(tmp, out)
            return
        reason = proc.stderr.strip() or f"exit code {proc.returncode}"
    except (OSError, subprocess.TimeoutExpired) as exc:  # pragma: no cover
        reason = str(exc)
    try:
        os.unlink(tmp)
    except OSError:  # pragma: no cover
        pass
    raise RuntimeError(f"{cc} {' '.join(flags)} failed: {reason}")


def _bind(lib: ctypes.CDLL) -> dict[str, ctypes._CFuncPtr]:
    """Declare argtypes/restypes and return the raw entry points."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32

    lib.pair_mask_u64.argtypes = [p, p, i64, p, p, i64, i64, p]
    lib.pair_mask_u64.restype = None
    lib.osa_mask.argtypes = [p, p, i64, p, p, i64, p, p, i64, i64, i32, p]
    lib.osa_mask.restype = i32
    lib.fused_rows_u64.argtypes = [
        p, p, i64, p, p, p, i64, i64, i64, i64, i64, i32, p, p, i64, p, p,
    ]
    lib.fused_rows_u64.restype = i64
    lib.passjoin_probe.argtypes = [
        p, i32, i64, p, p, i64, p, p, p, i64, i64, p, p, p, p, i64, p,
    ]
    lib.passjoin_probe.restype = i64
    return {
        "pair_mask_u64": lib.pair_mask_u64,
        "osa_mask": lib.osa_mask,
        "fused_rows_u64": lib.fused_rows_u64,
        "passjoin_probe": lib.passjoin_probe,
    }


def load_library() -> dict[str, ctypes._CFuncPtr] | None:
    """Build (if needed) and load the kernel library.

    Tries each of :data:`FLAG_SETS` in turn: a cached build is loaded,
    a missing one compiled.  Returns the bound entry points, or ``None``
    when no build could be loaded (reason retrievable via
    :func:`build_error`).  Safe to call from multiple processes
    concurrently: the compile lands via an atomic rename, so racers
    either reuse the winner's artifact or harmlessly overwrite it with
    identical bytes.
    """
    global _BUILD_ERROR
    cache = _cache_dir()
    cc = None
    errors: list[str] = []
    for flags in FLAG_SETS:
        sofile = library_path(cache, flags)
        try:
            if not sofile.exists():
                cc = cc or _find_compiler()
                if cc is None:
                    errors.append(
                        "no C compiler found (tried $CC, cc, gcc, clang)"
                    )
                    continue
                cache.mkdir(parents=True, exist_ok=True)
                _compile(cc, flags, sofile)
            return _bind(ctypes.CDLL(str(sofile)))
        except (OSError, RuntimeError) as exc:
            errors.append(str(exc))
    _BUILD_ERROR = "; ".join(dict.fromkeys(errors))
    return None
