"""ctypes wrappers presenting the C kernels at NumPy level.

:func:`load` returns the provider primitive dict consumed by
:class:`repro.native.KernelSet`.  All wrappers assume the caller already
coerced inputs to C-contiguous arrays of the right dtype (the KernelSet
layer does this once); they only manage output buffers.

The dense sweep uses an adaptive capacity scheme: rows are cut into
blocks of bounded pair count, each block starts from a density-informed
capacity guess, and a ``-1`` overflow return doubles the buffer and
re-runs the block.  Capacity never exceeds the block's pair count, so
the retry loop always terminates.

The PASS-JOIN probe resumes instead: each call fills the output buffer
with whole queries and reports where it stopped, and a query too large
for an empty buffer grows the buffer to the size the kernel asks for.
The wrapper cuts the pairs into ``probe_codes``' blocks — one run of
blocks per query length, each at most ``max_pairs`` pairs — so a block
may join the tail of one call's output to the head of the next.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.native import _csrc

__all__ = ["load"]

#: target pairs per kernel call — bounds both scan latency per call and
#: the worst-case output buffer a single retry can demand
_BLOCK_PAIRS = 1 << 24
#: the PASS-JOIN probe's default output buffer, in pairs: a serve batch
#: fits in one call, and a large probe pays one call per 64 Ki pairs
#: instead of holding buffers of ``max_pairs`` (8 MiB each by default)
_PROBE_PAIRS = 1 << 16


def _ptr(arr: np.ndarray | None) -> int:
    return 0 if arr is None else arr.ctypes.data


def _fused_rows(fn, L, R, len_l, len_r, order, r0, r1, bound, k, chain):
    nr = R.shape[0]
    n_stages = bin(chain).count("1")
    passed_total = np.zeros(n_stages, dtype=np.int64)
    passed_block = np.zeros(n_stages, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if r1 <= r0 or nr == 0:
        return empty, empty.copy(), passed_total
    # length-first chains merge each length class into the row's output
    scratch = np.empty(nr if order is not None else 0, dtype=np.int64)
    rows_per = max(1, min(r1 - r0, _BLOCK_PAIRS // nr))
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
            n = fn(
                L.ctypes.data, R.ctypes.data, L.shape[1],
                _ptr(len_l), _ptr(len_r), _ptr(order),
                b0, b1, nr, bound, k, chain,
                out_i.ctypes.data, out_j.ctypes.data, cap,
                passed_block.ctypes.data, scratch.ctypes.data,
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


def _passjoin_probe(fn, codes, lens, hashes, ids, table, n, k, max_pairs,
                    capacity):
    nq = len(lens)
    if not n or not nq:
        return
    order = np.argsort(lens, kind="stable")
    seen = np.zeros((n + 63) // 64, dtype=np.uint64)
    cand = np.empty(n, dtype=np.int64)
    state = np.zeros(2, dtype=np.int64)
    cap = max(1, capacity or _PROBE_PAIRS)
    # The block being filled: pieces of one query length, < max_pairs.
    pend_q: list[np.ndarray] = []
    pend_j: list[np.ndarray] = []
    pend_n = pend_len = 0

    def flush():
        nonlocal pend_n
        block = (
            (pend_q[0], pend_j[0]) if len(pend_q) == 1
            else (np.concatenate(pend_q), np.concatenate(pend_j))
        )
        pend_q.clear()
        pend_j.clear()
        pend_n = 0
        return block

    while state[0] < nq:
        out_q = np.empty(cap, dtype=np.int64)
        out_j = np.empty(cap, dtype=np.int64)
        got = fn(
            codes.ctypes.data, codes.itemsize, codes.shape[1],
            lens.ctypes.data, order.ctypes.data, nq,
            hashes.ctypes.data, ids.ctypes.data, table.ctypes.data,
            table.shape[0], k, seen.ctypes.data, cand.ctypes.data,
            out_q.ctypes.data, out_j.ctypes.data, cap, state.ctypes.data,
        )
        if state[1]:  # one query needs more than an empty buffer holds
            cap = max(2 * cap, int(state[1]))
            continue
        if not got:
            continue
        ql = lens[out_q[:got]]
        cuts = (np.flatnonzero(ql[1:] != ql[:-1]) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, got]):
            if pend_n and ql[a] != pend_len:
                yield flush()
            pend_len = ql[a]
            while a < b:
                take = min(b - a, max_pairs - pend_n)
                pend_q.append(out_q[a : a + take])
                pend_j.append(out_j[a : a + take])
                pend_n += take
                a += take
                if pend_n == max_pairs:
                    yield flush()
    if pend_n:
        yield flush()


def load():
    """Bind the compiled library, or raise with the build failure."""
    raw = _csrc.load_library()
    if raw is None:
        raise RuntimeError(_csrc.build_error() or "C kernel build failed")

    def pair_mask_u64(L, R, ii, jj, bound):
        n = ii.shape[0]
        out = np.empty(n, dtype=np.uint8)
        if n:
            raw["pair_mask_u64"](
                L.ctypes.data, R.ctypes.data, L.shape[1],
                ii.ctypes.data, jj.ctypes.data, n, bound, out.ctypes.data,
            )
        return out

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

    fused_rows_u64 = functools.partial(_fused_rows, raw["fused_rows_u64"])
    passjoin_probe = functools.partial(_passjoin_probe, raw["passjoin_probe"])
    return {
        "pair_mask_u64": pair_mask_u64,
        "osa_mask": osa_mask,
        "fused_rows_u64": fused_rows_u64,
        "passjoin_probe": passjoin_probe,
    }
