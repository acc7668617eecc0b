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
  One-word signatures are compared 8 pairs per instruction where the
  build targets AVX-512 VPOPCNTDQ.  A full output buffer ends the call
  after the last whole row, and the caller resumes from the next.
* ``pair_mask_u64`` — the gathered-pair signature filter used by
  index-driven generators.
* ``encode_rows`` — a side's preparation in one walk over its latin-1
  bytes: the padded ``uint8`` code matrix and the packed FBF signature
  words of every stock scheme (numeric, ``alpha{L}``, ``alnum{L}``,
  with or without the extended indicator bits), each byte looked up in
  per-code letter and digit tables
  (``core/vectorized.py::codes_and_signatures`` is the NumPy body).
* ``format_rows`` — a stream chunk's matches as spill text, one
  ``[i, j]`` (jsonl) or ``i,j`` (csv) line per match, byte-identical to
  the ``%`` template of ``stream/spill.py::format_ids``.
* ``osa_mask`` — batched bounded OSA (restricted Damerau-Levenshtein)
  decisions: Hyyro bit-parallel for patterns up to 64 chars
  (``distance/bitparallel.py``), a left row's pattern built once per
  run of its pairs, banded rolling-row DP beyond that
  (``distance/pruned.py::_banded_osa``).
* ``passjoin_run`` — PASS-JOIN probe, filter and verify in one pass
  over the flat segment index: per query, the probe of
  ``core/passjoin.py::SegmentIndex.probe_codes`` (its multi-match-aware
  windows and their right-boundary swaps hashed with the same
  polynomial, the buckets searched by a branch-free lower bound, the
  hits deduplicated by a stamp bitmap), then each candidate's filter
  chain and bounded verifier (DL, PDL or Hamming; a bit-parallel
  pattern built once per query of up to 64 chars), the funnel tallied
  in pair weights, queries in (length, index) order.  In an unweighted
  run that emits, a query repeating an earlier one of the call (codes
  and, under FBF, signature row) copies that query's ids and tally.
  Only matches leave the kernel, ids ascending per query — or, for a
  verifier it does not compile, the filter survivors.  The output
  buffer is filled with whole queries and the call resumes where it
  stopped.
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
#if defined(__AVX512VPOPCNTDQ__)
#include <immintrin.h>
#endif

#define POP64(x) ((int64_t)__builtin_popcountll((uint64_t)(x)))
#define ALPHA_OVERFLOW_BIT 26 /* core/signatures.py */
#define ALPHA_DOUBLED_BIT 27

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
/* One walk over a batch: padded codes and packed FBF signatures.      */
/* buf holds the rows' latin-1 bytes, one separator byte between rows. */
/* Per row: the codes are copied and zero-padded to width, and each    */
/* byte is looked up in letter_of (0-25, else none) and digit_of (0-9, */
/* else none): alpha word j bit c = the (j+1)-th occurrence of letter  */
/* c (Algorithm 4), the numeric word after them bit 3d+j = the (j+1)-th*/
/* occurrence of digit d, j < 3 (Algorithm 5); extended schemes add    */
/* the overflow and doubled-letter bits to the last alpha word.        */
/* sigs is uint32[n][words], words even (pack_signatures' layout).     */
/* Returns -1, before the row, on a length outside [0, width] or past  */
/* the end of buf.                                                     */
/* ------------------------------------------------------------------ */

int64_t encode_rows(const uint8_t *buf, int64_t nbuf, const int64_t *lens,
                 int64_t n, int64_t width, const uint8_t *letter_of,
                 const uint8_t *digit_of, int64_t alpha, int32_t numeric,
                 int32_t extended, uint8_t *codes, uint32_t *sigs,
                 int64_t words) {
    int32_t seen[26], dseen[10];
    const uint8_t *p = buf;
    for (int64_t i = 0; i < n; i++) {
        int64_t len = lens[i];
        if (len < 0 || len > width || len > nbuf - (p - buf)) return -1;
        uint8_t *row = codes + i * width;
        uint32_t *w = sigs + i * words;
        uint32_t num = 0;
        int overflow = 0, doubled = 0, prev = -1;
        memset(seen, 0, sizeof(seen));
        memset(dseen, 0, sizeof(dseen));
        memset(w, 0, (size_t)words * sizeof(uint32_t));
        memcpy(row, p, (size_t)len);
        memset(row + len, 0, (size_t)(width - len));
        for (int64_t x = 0; x < len; x++) {
            uint8_t b = p[x];
            int c = letter_of[b];
            if (c < 26) {
                int32_t j = seen[c]++;
                if (j < alpha) w[j] |= (uint32_t)1 << c;
                else overflow = 1;
                if (c == prev) doubled = 1;
                prev = c;
            } else {
                prev = -1;
            }
            int d = digit_of[b];
            if (d < 10 && dseen[d] < 3) num |= (uint32_t)1 << (3 * d + dseen[d]++);
        }
        if (numeric) w[alpha] = num;
        if (extended)
            w[alpha - 1] |= ((uint32_t)overflow << ALPHA_OVERFLOW_BIT)
                          | ((uint32_t)doubled << ALPHA_DOUBLED_BIT);
        p += len + 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Spill rows as text, "[%d, %d]\n" (jsonl) or "%d,%d\n" (csv) per    */
/* row: the left id is ii[r] + base wrapped to int64, as NumPy adds.  */
/* out holds FORMAT_ROW_BYTES per row.  Returns the bytes written.    */
/* ------------------------------------------------------------------ */

#define FORMAT_ROW_BYTES 45 /* "[" + 20 + ", " + 20 + "]\n" */

static char *put_i64(char *p, int64_t v) {
    char digits[20];
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int n = 0;
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0) *p++ = '-';
    while (n) *p++ = digits[--n];
    return p;
}

int64_t format_rows(const int64_t *ii, const int64_t *jj, int64_t n,
                    int64_t base, int32_t csv, char *out) {
    char *p = out;
    for (int64_t r = 0; r < n; r++) {
        if (!csv) *p++ = '[';
        p = put_i64(p, (int64_t)((uint64_t)ii[r] + (uint64_t)base));
        *p++ = ',';
        if (!csv) *p++ = ' ';
        p = put_i64(p, jj[r]);
        if (!csv) *p++ = ']';
        *p++ = '\n';
    }
    return p - out;
}

/* ------------------------------------------------------------------ */
/* Bit-parallel OSA (Hyyro-style restricted Damerau-Levenshtein) for   */
/* patterns up to 64 chars.  Mirrors osa_bitparallel() exactly,        */
/* including the transposition fold: TR = (((~D0)&PM)<<1) & PM_prev.   */
/* ------------------------------------------------------------------ */

/* Score of the pattern whose match masks are peq (m <= 64 chars)     */
/* against t[0, n).                                                    */
static int64_t osa_peq(const uint64_t *peq, int64_t m,
                       const uint8_t *t, int64_t n) {
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

/* Set the match masks of s[0, m) in a zeroed peq, or clear them.    */
static inline void peq_set(uint64_t *peq, const uint8_t *s, int64_t m) {
    for (int64_t i = 0; i < m; i++) peq[s[i]] |= (uint64_t)1 << i;
}

static inline void peq_clear(uint64_t *peq, const uint8_t *s, int64_t m) {
    for (int64_t i = 0; i < m; i++) peq[s[i]] = 0;
}

static int64_t osa_bp64(const uint8_t *s, int64_t m,
                        const uint8_t *t, int64_t n) {
    uint64_t peq[256];
    memset(peq, 0, sizeof(peq));
    peq_set(peq, s, m);
    return osa_peq(peq, m, t, n);
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
/* OSA(s, t) <= k for non-empty strings with |m - n| <= k.  OSA is     */
/* symmetric: the shorter side is the pattern, so the one-word fast    */
/* path covers every pair with min(m, n) <= 64.  rows is banded-DP     */
/* scratch of 3 x rowlen entries, rowlen >= max(m, n) + 2.             */
/* ------------------------------------------------------------------ */

static int osa_pair(const uint8_t *s, int64_t m, const uint8_t *t,
                    int64_t n, int64_t k, int32_t *rows, int64_t rowlen) {
    if (m > n) {
        const uint8_t *u = s;
        int64_t l = m;
        s = t;
        m = n;
        t = u;
        n = l;
    }
    if (m <= 64) return osa_bp64(s, m, t, n) <= k;
    if (k == 0) return memcmp(s, t, (size_t)m) == 0;
    return banded_osa(s, m, t, n, k, rows, rows + rowlen,
                      rows + 2 * rowlen) >= 0;
}

/* ------------------------------------------------------------------ */
/* Batched bounded-OSA decisions over gathered candidate pairs.        */
/* mode 0 = DL (empty strings compare by length), mode 1 = PDL (the    */
/* paper's Step 1: any empty side is an automatic reject).  A left row */
/* of up to 64 chars is the pattern: its match masks are built once    */
/* per run of pairs with that row (candidates arrive row by row) and   */
/* only its own bits are cleared on a row change; the right string is  */
/* the text, whatever its length (OSA is symmetric).  Longer left rows */
/* go through osa_pair.  Returns 0 on success, -1 on allocation        */
/* failure.                                                            */
/* ------------------------------------------------------------------ */

int32_t osa_mask(const uint8_t *codes_l, const int64_t *len_l, int64_t wl,
                 const uint8_t *codes_r, const int64_t *len_r, int64_t wr,
                 const int64_t *ii, const int64_t *jj, int64_t npairs,
                 int64_t k, int32_t mode, uint8_t *out) {
    int64_t rowlen = ((wl > wr) ? wl : wr) + 2;
    int32_t *rows = NULL;
    if (wl > 64 && wr > 64) { /* only then can the banded path run */
        rows = (int32_t *)malloc((size_t)(3 * rowlen) * sizeof(int32_t));
        if (rows == NULL) return -1;
    }
    uint64_t peq[256];
    memset(peq, 0, sizeof(peq));
    int64_t held = -1; /* the left row whose masks peq holds */
    for (int64_t p = 0; p < npairs; p++) {
        int64_t i = ii[p], j = jj[p];
        int64_t la = len_l[i], lb = len_r[j];
        if (la == 0 || lb == 0) {
            out[p] = mode == 0 && la + lb <= k;
            continue;
        }
        int64_t dlen = la - lb;
        if (dlen < 0) dlen = -dlen;
        if (dlen > k) {
            out[p] = 0;
        } else if (la <= 64) {
            if (i != held) {
                if (held >= 0)
                    peq_clear(peq, codes_l + held * wl, len_l[held]);
                peq_set(peq, codes_l + i * wl, la);
                held = i;
            }
            out[p] = osa_peq(peq, la, codes_r + j * wr, lb) <= k;
        } else {
            out[p] = osa_pair(codes_l + i * wl, la, codes_r + j * wr, lb, k,
                              rows, rowlen);
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
/* with j ascending, as np.nonzero emits them.  Only whole rows are    */
/* emitted: when the next row's pairs would overflow cap, the sweep    */
/* stops before it.  *stop receives the first row not swept (row1      */
/* when all were) and passed[] covers the rows before it.  Returns the */
/* number of pairs emitted.                                            */
/*                                                                     */
/* Length-first chains read a right side sorted (stably) by length:    */
/* len_r ascending, R in the same order, order[p] the original id of   */
/* sorted position p.  Each row scans only its |dlen| <= k window, one */
/* length class at a time, and merges each class's ascending ids into  */
/* the row's output (scratch holds nr ids).                             */
/*                                                                     */
/* Every loop body below is instantiated with a compile-time width     */
/* class and chain, so the per-pair loops carry no width or stage      */
/* dispatch: each 64-pair block is one compare per pair (or, one word  */
/* wide on AVX-512 VPOPCNTDQ, 8 vector compares of 8 pairs) into a     */
/* survivor mask whose set bits are then walked.                       */
/* ------------------------------------------------------------------ */

#define CHAIN_FBF 1
#define CHAIN_LEN 2
#define INLINE static inline __attribute__((always_inline))

/* Emit the survivors of li against positions [s, e) of R.  wc is the  */
/* width class: 1 or 2 words, or 0 for any width (words outer, pairs   */
/* inner).  map (NULL or the length order) turns positions into ids.   */
/* Returns the new count, or -1 when cap would overflow.               */
/*                                                                     */
/* Where the compiler targets AVX-512 VPOPCNTDQ, a full one-word block */
/* is 8 x (XOR, vector popcount, compare) of 8 pairs each, the compare */
/* masks written straight into the survivor mask.  The compare is      */
/* signed, as the scalar one is.  Other builds (the portable -O3 one,  */
/* CPUs without the instruction), other widths and the block tail run  */
/* the scalar loop.                                                    */
INLINE int64_t fbf_span(const uint64_t *li, const uint64_t *R,
                        int64_t width, const int wc, int64_t s, int64_t e,
                        int64_t bound, const int64_t *map, int64_t i,
                        int64_t *out_i, int64_t *out_j, int64_t count,
                        int64_t cap) {
    int64_t acc[64];
    for (int64_t b0 = s; b0 < e; b0 += 64) {
        int64_t n = (e - b0 < 64) ? e - b0 : 64;
        uint64_t m = 0;
#if defined(__AVX512VPOPCNTDQ__)
        if (wc == 1 && n == 64) {
            const uint64_t *rb = R + b0;
            __m512i l0 = _mm512_set1_epi64((long long)li[0]);
            __m512i bnd = _mm512_set1_epi64((long long)bound);
            for (int q = 0; q < 8; q++) {
                __m512i x = _mm512_xor_si512(
                    l0, _mm512_loadu_si512((const void *)(rb + 8 * q)));
                m |= (uint64_t)_mm512_cmple_epi64_mask(
                         _mm512_popcnt_epi64(x), bnd) << (8 * q);
            }
        } else
#endif
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
                         int64_t cap, int64_t *passed, int64_t *stop) {
    int64_t count = 0, i = row0;
    for (; i < row1; i++) {
        if (fbf) {
            int64_t c = fbf_span(L + i * width, R, width, wc, 0, nr, bound,
                                 NULL, i, out_i, out_j, count, cap);
            if (c < 0) break;
            count = c;
        } else {
            if (count + nr > cap) break;
            for (int64_t j = 0; j < nr; j++) {
                out_i[count] = i;
                out_j[count++] = j;
            }
        }
    }
    *stop = i;
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
                            int64_t *scratch, int64_t *stop) {
    int64_t count = 0, in_window = 0, i = row0;
    for (; i < row1; i++) {
        int64_t la = len_l[i], start = count, row_window = 0;
        int64_t s = bisect(len_r, 0, nr, la - k, 0);
        while (count >= 0 && s < nr && len_r[s] <= la + k) {
            int64_t e = bisect(len_r, s, nr, len_r[s], 1);
            int64_t mid = count;
            row_window += e - s;
            if (fbf) {
                count = fbf_span(L + i * width, R, width, wc, s, e, bound,
                                 order, i, out_i, out_j, count, cap);
            } else if (count + (e - s) > cap) {
                count = -1;
            } else {
                for (int64_t p = s; p < e; p++) {
                    out_i[count] = i;
                    out_j[count++] = order[p];
                }
            }
            if (count >= 0)
                merge_runs(out_j + start, mid - start, count - mid, scratch);
            s = e;
        }
        if (count < 0) { /* the row does not fit: drop its part */
            count = start;
            break;
        }
        in_window += row_window;
    }
    *stop = i;
    passed[0] = in_window;
    if (fbf) passed[1] = count;
    return count;
}

int64_t fused_rows_u64(const uint64_t *L, const uint64_t *R, int64_t width,
                       const int64_t *len_l, const int64_t *len_r,
                       const int64_t *order, int64_t row0, int64_t row1,
                       int64_t nr, int64_t bound, int64_t k, int32_t chain,
                       int64_t *out_i, int64_t *out_j, int64_t cap,
                       int64_t *passed, int64_t *scratch, int64_t *stop) {
#define ALL(wc, fbf) \
    sweep_all(L, R, width, wc, fbf, row0, row1, nr, bound, out_i, out_j, \
              cap, passed, stop)
#define WINDOW(wc, fbf) \
    sweep_window(L, R, width, wc, fbf, len_l, len_r, order, row0, row1, \
                 nr, bound, k, out_i, out_j, cap, passed, scratch, stop)
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
/* PASS-JOIN run: probe, filter and verify one query at a time, so    */
/* candidates never leave this loop.  The probe is                     */
/* core/passjoin.py::SegmentIndex.probe_codes over the flat (hashes,   */
/* ids, table) index: every (length, segment) bucket with |dlen| <= pk */
/* is probed at the multi-match-aware windows of probe_window (segment */
/* seg: at most seg edits left of it, pk - seg right) with the         */
/* window's hash and its vR right-boundary swap (the same FNV          */
/* polynomial as _fold).  Hits are deduplicated with a per-query stamp */
/* (one bit per indexed id, in seen) and each stamp is cleared as its  */
/* candidate is visited.  A candidate then runs the method's filter    */
/* chain (chain bits as in the dense sweep) and, for verify = DL, PDL  */
/* or HAM, the verifier: the query's bit-parallel match masks are      */
/* built once when |q| <= 64, else osa_pair's shorter-side / banded    */
/* path decides.                                                       */
/*                                                                     */
/* Queries are rows order[0, nq) of the left codes (the caller's       */
/* stable length order).  A symmetric weighting keeps only the         */
/* j >= row triangle; a candidate weighs w_l[row] * w_r[j] (1 without  */
/* weights), doubled off the diagonal when symmetric.  tally[T_*]      */
/* accumulates the funnel in those units (T_COMPARED and T_VERIFIED    */
/* count pairs); T_MATCHED and T_DIAGONAL only under a verifier, whose */
/* diagonal is vid_l[row] == vid_r[j] when vid_l is given, else        */
/* row == j.  Emitted per query, ids ascending: the matches, or under  */
/* VERIFY_NONE every filter survivor; out_q == NULL emits nothing.     */
/*                                                                     */
/* Repeated queries: when slots is given (the caller passes it only   */
/* for a run that emits, without weights, vids or a symmetric cut), a  */
/* query whose length, codes and, under an FBF chain, signature row    */
/* equal an earlier query's of the same run has that query's           */
/* candidates, verdicts and matches.  It copies the first copy's       */
/* sorted ids and per-query tally instead of probing, filtering and    */
/* verifying again; only T_DIAGONAL is its own (is its row among the   */
/* ids), and T_REUSED counts it.  Each first copy that is emitted gets */
/* one memo row (MEMO_WORDS words: key, row, ids offset, ids count,    */
/* tally) and its ids in memo_ids; slots is an open-addressed table of */
/* row numbers + 1 (0: empty) of a power-of-two size (mask + 1) at     */
/* least twice the queries.  The memo lives for the whole run:         */
/* state[2] and state[3] are the rows and ids used, kept by the caller */
/* across resumes, and memo_ids has room for cap more ids at every     */
/* call (a call emits at most cap ids), so a twin finds its first copy */
/* even when that copy was emitted into an earlier call's buffer.      */
/*                                                                     */
/* state[0] is the order position to start from and, on return, the   */
/* first one not done; a query is emitted and tallied whole or not at  */
/* all.  When one does not fit an empty buffer, state[1] receives the  */
/* capacity it needs.  rows is banded-DP scratch of 3 x (max(wl, wr) + */
/* 2) entries.  Returns the number of pairs emitted, or -1 when a      */
/* length it reads exceeds its code matrix width (or is negative).     */
/* ------------------------------------------------------------------ */

#define HASH_BASE 1099511628211ULL
#define HASH_OFFSET 1469598103934665603ULL

#define VERIFY_NONE 0
#define VERIFY_DL 1
#define VERIFY_PDL 2
#define VERIFY_HAM 3

enum { T_COMPARED, T_EMITTED, T_PASSED0, T_PASSED1, T_VERIFIED,
       T_SURVIVORS, T_MATCHED, T_DIAGONAL, T_REUSED, T_SLOTS };

enum { M_KEY, M_ROW, M_OFF, M_COUNT, M_TALLY };
#define MEMO_WORDS (M_TALLY + T_SLOTS)

INLINE uint64_t fold(uint64_t h, uint64_t c) { return h * HASH_BASE + c + 1; }

/* Append the ids of bucket [lo, hi) whose hash is h and whose stamp   */
/* is not yet set.  The bucket is searched by a branch-free lower bound */
/* that prefetches both of the next step's probes: its steps depend on */
/* the data, so a branch per step would mispredict half of them.       */
INLINE int64_t collect(const uint64_t *hashes, const int64_t *ids,
                       int64_t lo, int64_t hi, uint64_t h, uint64_t *seen,
                       int64_t *cand, int64_t nc) {
    if (lo >= hi) return nc;
    const uint64_t *base = hashes + lo;
    int64_t n = hi - lo;
    while (n > 1) {
        int64_t half = n >> 1;
        __builtin_prefetch(base + (half >> 1));
        __builtin_prefetch(base + half + (half >> 1));
        base += half & -(int64_t)(base[half] < h);
        n -= half;
    }
    int64_t a = (base - hashes) + (*base < h);
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

/* Every candidate of one query q of length qlen, unsorted, into cand, */
/* stamped in seen.                                                    */
static int64_t probe_query(const uint8_t *q, int64_t qlen, int64_t k,
                           const uint64_t *hashes, const int64_t *ids,
                           const int64_t *table, int64_t m, uint64_t *seen,
                           int64_t *cand) {
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
        int64_t delta = qlen - length, rest = k - seg;
        int64_t lo = 0, hi = qlen - seg_len;
        if (p_i - seg > lo) lo = p_i - seg;
        if (p_i + delta - rest > lo) lo = p_i + delta - rest;
        if (p_i + seg < hi) hi = p_i + seg;
        if (p_i + delta + rest < hi) hi = p_i + delta + rest;
        if (hi < lo) continue;
        if (seg_len == 0) { /* every window is the empty string */
            nc = collect(hashes, ids, blo, bhi, HASH_OFFSET, seen, cand, nc);
            continue;
        }
        for (int64_t p = lo; p <= hi; p++) {
            /* The window and, when q goes on past it, its vR swap:    */
            /* one fold over p .. p + seg_len - 2, two last chars.     */
            uint64_t h = HASH_OFFSET;
            for (int64_t j = p; j < p + seg_len - 1; j++) h = fold(h, q[j]);
            nc = collect(hashes, ids, blo, bhi, fold(h, q[p + seg_len - 1]),
                         seen, cand, nc);
            if (p + seg_len < qlen)
                nc = collect(hashes, ids, blo, bhi, fold(h, q[p + seg_len]),
                             seen, cand, nc);
        }
    }
    return nc;
}

/* Hamming distance (overhang counted, distance/hamming.py) <= k. */
INLINE int ham_within(const uint8_t *a, int64_t la, const uint8_t *b,
                      int64_t lb, int64_t k) {
    int64_t d = (la > lb) ? la - lb : lb - la;
    int64_t common = (la < lb) ? la : lb;
    for (int64_t x = 0; x < common && d <= k; x++)
        d += a[x] != b[x];
    return d <= k;
}

static int cmp_id(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Sort one query's ids: few (a query's matches) by insertion. */
static void sort_ids(int64_t *a, int64_t n) {
    if (n > 32) {
        qsort(a, (size_t)n, sizeof(int64_t), cmp_id);
        return;
    }
    for (int64_t x = 1; x < n; x++) {
        int64_t v = a[x], y = x;
        for (; y > 0 && a[y - 1] > v; y--) a[y] = a[y - 1];
        a[y] = v;
    }
}

/* A query's memo key: its length, codes and signature row (sig NULL: */
/* a chain without FBF never reads it), folded and finalised so the    */
/* low bits pick the slot.                                             */
static uint64_t query_key(const uint8_t *q, int64_t qlen,
                          const uint64_t *sig, int64_t width) {
    uint64_t h = fold(HASH_OFFSET, (uint64_t)qlen);
    for (int64_t x = 0; x < qlen; x++) h = fold(h, q[x]);
    if (sig)
        for (int64_t x = 0; x < width; x++) h = (h ^ sig[x]) * HASH_BASE;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
}

/* The memo row of query qi's first copy, or NULL with *slot the empty */
/* slot its own row goes in.                                           */
static int64_t *memo_find(const int32_t *slots, int64_t mask,
                          int64_t *memo, uint64_t key, int64_t qi,
                          const uint8_t *codes_l, int64_t wl,
                          const int64_t *len_l, const uint64_t *sig_l,
                          int64_t width, int64_t *slot) {
    int64_t s = (int64_t)(key & (uint64_t)mask);
    for (; slots[s]; s = (s + 1) & mask) {
        int64_t *row = memo + (int64_t)(slots[s] - 1) * MEMO_WORDS;
        int64_t fi = row[M_ROW];
        if ((uint64_t)row[M_KEY] == key && len_l[fi] == len_l[qi]
            && memcmp(codes_l + fi * wl, codes_l + qi * wl,
                      (size_t)len_l[qi]) == 0
            && (sig_l == NULL
                || memcmp(sig_l + fi * width, sig_l + qi * width,
                          (size_t)width * sizeof(uint64_t)) == 0))
            return row;
    }
    *slot = s;
    return NULL;
}

int64_t passjoin_run(const uint8_t *codes_l, int64_t wl,
                     const int64_t *len_l, const int64_t *order, int64_t nq,
                     const uint8_t *codes_r, int64_t wr,
                     const int64_t *len_r, const uint64_t *hashes,
                     const int64_t *ids, const int64_t *table, int64_t m,
                     int64_t pk, int64_t k, int32_t chain, int32_t verify,
                     const uint64_t *sig_l, const uint64_t *sig_r,
                     int64_t width, int64_t bound, const int64_t *w_l,
                     const int64_t *w_r, int32_t symmetric,
                     const int64_t *vid_l, const int64_t *vid_r,
                     uint64_t *seen, int64_t *cand, int32_t *rows,
                     int32_t *slots, int64_t mask, int64_t *memo,
                     int64_t *memo_ids,
                     int64_t *out_q, int64_t *out_j, int64_t cap,
                     int64_t *state, int64_t *tally) {
    uint64_t peq[256];
    memset(peq, 0, sizeof(peq));
    int64_t rowlen = ((wl > wr) ? wl : wr) + 2;
    int64_t count = 0, pos = state[0];
    int fbf_slot = (chain & CHAIN_LEN) ? T_PASSED1 : T_PASSED0;
    const uint64_t *key_sig = (chain & CHAIN_FBF) ? sig_l : NULL;
    state[1] = 0;
    for (; pos < nq; pos++) {
        int64_t qi = order[pos], qlen = len_l[qi];
        const uint8_t *q = codes_l + qi * wl;
        if (qlen < 0 || qlen > wl) return -1;
        uint64_t key = 0;
        int64_t slot = 0;
        if (slots) {
            key = query_key(q, qlen, key_sig ? key_sig + qi * width : NULL,
                            width);
            const int64_t *twin = memo_find(slots, mask, memo, key, qi,
                                            codes_l, wl, len_l, key_sig,
                                            width, &slot);
            if (twin) {
                int64_t nm = twin[M_COUNT];
                const int64_t *src = memo_ids + twin[M_OFF];
                if (count + nm > cap) {
                    if (count == 0) state[1] = nm;
                    break;
                }
                for (int64_t x = 0; x < nm; x++) {
                    out_q[count] = qi;
                    out_j[count++] = src[x];
                }
                for (int s = 0; s < T_DIAGONAL; s++)
                    tally[s] += twin[M_TALLY + s];
                if (verify != VERIFY_NONE) { /* is qi among the ids? */
                    int64_t at = bisect(src, 0, nm, qi, 0);
                    tally[T_DIAGONAL] += at < nm && src[at] == qi;
                }
                tally[T_REUSED]++;
                continue;
            }
        }
        int64_t nc = probe_query(q, qlen, pk, hashes, ids, table, m, seen,
                                 cand);
        int64_t t[T_SLOTS] = {0};
        int64_t nm = 0;
        int masks = 0; /* peq holds q's match masks */
        for (int64_t c = 0; c < nc; c++) {
            int64_t j = cand[c];
            seen[j >> 6] = 0; /* every stamp set in it is this query's */
            if (symmetric && j < qi) continue;
            int64_t w = 1;
            if (w_l) {
                w = w_l[qi] * w_r[j];
                if (symmetric && j != qi) w *= 2;
            }
            t[T_COMPARED]++;
            t[T_EMITTED] += w;
            int64_t lb = len_r[j];
            if (chain & CHAIN_LEN) {
                int64_t d = (qlen > lb) ? qlen - lb : lb - qlen;
                if (d > k) continue;
                t[T_PASSED0] += w;
            }
            if (chain & CHAIN_FBF) {
                const uint64_t *a = sig_l + qi * width;
                const uint64_t *b = sig_r + j * width;
                int64_t db = 0;
                for (int64_t x = 0; x < width; x++) db += POP64(a[x] ^ b[x]);
                if (db > bound) continue;
                t[fbf_slot] += w;
            }
            t[T_SURVIVORS] += w;
            if (verify != VERIFY_NONE) {
                const uint8_t *r = codes_r + j * wr;
                int64_t d = (qlen > lb) ? qlen - lb : lb - qlen;
                int hit;
                if (lb < 0 || lb > wr) return -1;
                t[T_VERIFIED]++;
                if (verify == VERIFY_HAM) {
                    hit = ham_within(q, qlen, r, lb, k);
                } else if (qlen == 0 || lb == 0) {
                    hit = verify == VERIFY_DL && qlen + lb <= k;
                } else if (d > k) {
                    hit = 0;
                } else if (qlen <= 64) {
                    if (!masks) {
                        peq_set(peq, q, qlen);
                        masks = 1;
                    }
                    hit = osa_peq(peq, qlen, r, lb) <= k;
                } else {
                    hit = osa_pair(q, qlen, r, lb, k, rows, rowlen);
                }
                if (!hit) continue;
                t[T_MATCHED] += w;
                if (vid_l ? vid_l[qi] == vid_r[j] : qi == j)
                    t[T_DIAGONAL] += w;
            }
            if (out_q) cand[nm++] = j; /* nm <= c: compact in place */
        }
        if (masks) peq_clear(peq, q, qlen);
        if (out_q) {
            if (count + nm > cap) {
                if (count == 0) state[1] = nm;
                break;
            }
            sort_ids(cand, nm);
            for (int64_t x = 0; x < nm; x++) {
                out_q[count] = qi;
                out_j[count++] = cand[x];
            }
        }
        if (slots) { /* the first copy: remember it for its twins */
            int64_t *row = memo + state[2] * MEMO_WORDS;
            row[M_KEY] = (int64_t)key;
            row[M_ROW] = qi;
            row[M_OFF] = state[3];
            row[M_COUNT] = nm;
            memcpy(row + M_TALLY, t, sizeof(t));
            memcpy(memo_ids + state[3], cand, (size_t)nm * sizeof(int64_t));
            slots[slot] = (int32_t)(++state[2]);
            state[3] += nm;
        }
        for (int s = 0; s < T_SLOTS; s++) tally[s] += t[s];
    }
    state[0] = pos;
    return count;
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
        p, p, i64, p, p, p, i64, i64, i64, i64, i64, i32, p, p, i64, p, p, p,
    ]
    lib.fused_rows_u64.restype = i64
    lib.passjoin_run.argtypes = [
        p, i64, p, p, i64, p, i64, p, p, p, p, i64, i64, i64, i32, i32,
        p, p, i64, i64, p, p, i32, p, p, p, p, p, p, i64, p, p,
        p, p, i64, p, p,
    ]
    lib.passjoin_run.restype = i64
    lib.encode_rows.argtypes = [
        p, i64, p, i64, i64, p, p, i64, i32, i32, p, p, i64,
    ]
    lib.encode_rows.restype = i64
    lib.format_rows.argtypes = [p, p, i64, i64, i32, p]
    lib.format_rows.restype = i64
    return {
        "pair_mask_u64": lib.pair_mask_u64,
        "osa_mask": lib.osa_mask,
        "fused_rows_u64": lib.fused_rows_u64,
        "passjoin_run": lib.passjoin_run,
        "encode_rows": lib.encode_rows,
        "format_rows": lib.format_rows,
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
