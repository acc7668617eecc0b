"""C source and build driver for the compiled kernel provider.

The native tier prefers numba when it is importable, but a C toolchain is
far more common than numba in production containers, so the same three
kernels also ship as a single C translation unit compiled on first use
with whatever ``cc`` the host provides and loaded through :mod:`ctypes`.
The build is content-addressed: the shared object lands in a per-user
cache directory keyed by the SHA-256 of the source, so recompiles happen
only when the kernels change and concurrent processes (hybrid pool
workers) converge on one artifact via an atomic rename.

Kernels mirror the pure-Python/NumPy references bit for bit:

* ``fbf_scan_u64`` — fused XOR + POPCNT + threshold candidate emission
  over packed signature matrices, row-major order so the output matches
  ``np.nonzero`` exactly (no (rows x n_right x width) intermediates).
* ``pair_mask_u64`` — the gathered-pair signature filter used by
  index-driven generators.
* ``osa_mask`` — batched bounded OSA (restricted Damerau-Levenshtein)
  decisions: Hyyro bit-parallel for patterns up to 64 chars
  (``distance/bitparallel.py``), banded rolling-row DP beyond that
  (``distance/pruned.py::_banded_osa``).
* ``fused_rows_u64`` — the hybrid worker's dense sweep: length + FBF
  filters and candidate emission in one pass, with per-filter survivor
  counts for funnel accounting.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["load_library", "build_error"]

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define POP64(x) ((int64_t)__builtin_popcountll((uint64_t)(x)))

/* ------------------------------------------------------------------ */
/* Fused XOR + popcount + threshold candidate scan.                    */
/* Emits (i, j) pairs with diff_bits <= bound for rows [row0, row1) of */
/* L against all of R, in row-major order (identical to np.nonzero).   */
/* Returns the number of pairs emitted, or -1 if cap would overflow.   */
/* ------------------------------------------------------------------ */

int64_t fbf_scan_u64(const uint64_t *L, const uint64_t *R,
                     int64_t row0, int64_t row1, int64_t nr, int64_t width,
                     int64_t bound, int64_t *out_i, int64_t *out_j,
                     int64_t cap) {
    int64_t count = 0;
    for (int64_t i = row0; i < row1; i++) {
        const uint64_t *li = L + i * width;
        for (int64_t j = 0; j < nr; j++) {
            const uint64_t *rj = R + j * width;
            int64_t db = 0;
            for (int64_t w = 0; w < width; w++)
                db += POP64(li[w] ^ rj[w]);
            if (db <= bound) {
                if (count >= cap) return -1;
                out_i[count] = i;
                out_j[count] = j;
                count++;
            }
        }
    }
    return count;
}

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
/* Hybrid dense sweep: length + FBF filters fused with candidate       */
/* emission over packed uint64 signatures.  filters[] holds stage      */
/* codes in evaluation order (0 = length, 1 = fbf); passed[] receives  */
/* the cumulative-AND survivor count after each stage, matching the    */
/* NumPy mask chain's funnel accounting.  Returns emitted pair count,  */
/* or -1 if cap would overflow.                                        */
/* ------------------------------------------------------------------ */

int64_t fused_rows_u64(const uint64_t *L, const uint64_t *R, int64_t width,
                       const int64_t *len_l, const int64_t *len_r,
                       int64_t row0, int64_t row1, int64_t nr,
                       int64_t bound, int64_t k,
                       const int32_t *filters, int64_t nf,
                       int64_t *out_i, int64_t *out_j, int64_t cap,
                       int64_t *passed) {
    int64_t count = 0;
    for (int64_t f = 0; f < nf; f++) passed[f] = 0;
    for (int64_t i = row0; i < row1; i++) {
        const uint64_t *li = L + i * width;
        int64_t la = len_l[i];
        for (int64_t j = 0; j < nr; j++) {
            int ok = 1;
            for (int64_t f = 0; f < nf; f++) {
                if (filters[f] == 0) {
                    int64_t dlen = la - len_r[j];
                    if (dlen < 0) dlen = -dlen;
                    ok = dlen <= k;
                } else {
                    const uint64_t *rj = R + j * width;
                    int64_t db = 0;
                    for (int64_t w = 0; w < width; w++)
                        db += POP64(li[w] ^ rj[w]);
                    ok = db <= bound;
                }
                if (!ok) break;
                passed[f]++;
            }
            if (ok) {
                if (count >= cap) return -1;
                out_i[count] = i;
                out_j[count] = j;
                count++;
            }
        }
    }
    return count;
}
"""

#: populated with the failure reason when the build was attempted and failed
_BUILD_ERROR: str | None = None


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


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    return None


def _compile(cc: str, src: Path, out: Path) -> None:
    """Compile ``src`` into ``out`` atomically (tmp + rename)."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    base = [cc, "-O3", "-shared", "-fPIC", "-o", tmp, str(src), "-lm"]
    attempts = (
        base[:1] + ["-march=native"] + base[1:],  # best codegen (POPCNT)
        base,  # portable fallback
    )
    last = None
    for cmd in attempts:
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.TimeoutExpired) as exc:  # pragma: no cover
            last = str(exc)
            continue
        if proc.returncode == 0:
            os.replace(tmp, out)
            return
        last = proc.stderr.strip() or f"exit code {proc.returncode}"
    try:
        os.unlink(tmp)
    except OSError:  # pragma: no cover
        pass
    raise RuntimeError(f"{cc} failed: {last}")


def _bind(lib: ctypes.CDLL) -> dict[str, ctypes._CFuncPtr]:
    """Declare argtypes/restypes and return the raw entry points."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32

    lib.fbf_scan_u64.argtypes = [p, p, i64, i64, i64, i64, i64, p, p, i64]
    lib.fbf_scan_u64.restype = i64
    lib.pair_mask_u64.argtypes = [p, p, i64, p, p, i64, i64, p]
    lib.pair_mask_u64.restype = None
    lib.osa_mask.argtypes = [p, p, i64, p, p, i64, p, p, i64, i64, i32, p]
    lib.osa_mask.restype = i32
    lib.fused_rows_u64.argtypes = [
        p, p, i64, p, p, i64, i64, i64, i64, i64, p, i64, p, p, i64, p,
    ]
    lib.fused_rows_u64.restype = i64
    return {
        "fbf_scan_u64": lib.fbf_scan_u64,
        "pair_mask_u64": lib.pair_mask_u64,
        "osa_mask": lib.osa_mask,
        "fused_rows_u64": lib.fused_rows_u64,
    }


def load_library() -> dict[str, ctypes._CFuncPtr] | None:
    """Build (if needed) and load the kernel library.

    Returns the bound entry points, or ``None`` when no C compiler is
    available or the build failed (reason retrievable via
    :func:`build_error`).  Safe to call from multiple processes
    concurrently: the compile lands via an atomic rename, so racers
    either reuse the winner's artifact or harmlessly overwrite it with
    identical bytes.
    """
    global _BUILD_ERROR
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    tag = f"{platform.system()}-{platform.machine()}".lower()
    cache = _cache_dir()
    sofile = cache / f"repro_native_{digest}_{tag}.so"
    try:
        if not sofile.exists():
            cc = _find_compiler()
            if cc is None:
                _BUILD_ERROR = "no C compiler found (tried $CC, cc, gcc, clang)"
                return None
            cache.mkdir(parents=True, exist_ok=True)
            csrc = cache / f"repro_native_{digest}.c"
            if not csrc.exists():
                tmp = csrc.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(C_SOURCE)
                os.replace(tmp, csrc)
            _compile(cc, csrc, sofile)
        return _bind(ctypes.CDLL(str(sofile)))
    except (OSError, RuntimeError) as exc:
        _BUILD_ERROR = str(exc)
        return None
