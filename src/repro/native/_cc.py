"""ctypes wrappers presenting the C kernels at NumPy level.

:func:`load` returns the provider primitive dict consumed by
:class:`repro.native.KernelSet`.  All wrappers assume the caller already
coerced inputs to C-contiguous arrays of the right dtype (the KernelSet
layer does this once); they only manage output buffers.

Both row kernels resume.  The dense sweep cuts rows into blocks of
bounded pair count; each block starts from a density-informed capacity
guess, and a call that fills its buffer keeps its complete rows and
reports the first row it did not finish, so the next call sweeps on
from there with a doubled buffer.  Capacity never exceeds the pairs
left in the block, which always hold a whole row, so the loop always
terminates, and no complete row is swept twice.

The PASS-JOIN run fills the output buffer with whole queries and
reports where it stopped, and a query too large for an empty buffer
grows the buffer to the size the kernel asks for.  Its funnel tally,
and the memo a repeated query is answered from, last across the calls.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.native import _csrc

__all__ = ["load"]

#: target pairs per kernel call — bounds both scan latency per call and
#: the worst-case output buffer a single resume can demand
_BLOCK_PAIRS = 1 << 24
#: the share of a block's pairs the dense sweep's first output buffer
#: holds (plus 1024 pairs); later blocks start from the densest block
#: seen
_DENSITY = 0.05
#: the PASS-JOIN run's default output buffer, in pairs: a serve batch
#: fits in one call, and a large run pays one call per 64 Ki pairs
_RUN_PAIRS = 1 << 16
#: slots of the PASS-JOIN run's funnel tally (the kernel's T_* enum)
_TALLY_SLOTS = 9
#: words of one memo row of the PASS-JOIN run (the kernel's MEMO_WORDS):
#: key, row, ids offset, ids count and the query's tally
_MEMO_WORDS = 4 + _TALLY_SLOTS
#: the longest spill line ``format_rows`` writes (the kernel's
#: FORMAT_ROW_BYTES): two 20-character int64 ids in ``[i, j]\n``
_FORMAT_ROW_BYTES = 45


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
    stop = np.zeros(1, dtype=np.int64)
    density = _DENSITY
    for b0 in range(r0, r1, rows_per):
        b1 = min(r1, b0 + rows_per)
        pairs = (b1 - b0) * nr
        cap = min(pairs, max(1024, int(pairs * density) + 1024))
        row, got = b0, 0
        while row < b1:
            out_i = np.empty(cap, dtype=np.int64)
            out_j = np.empty(cap, dtype=np.int64)
            n = fn(
                L.ctypes.data, R.ctypes.data, L.shape[1],
                _ptr(len_l), _ptr(len_r), _ptr(order),
                row, b1, nr, bound, k, chain,
                out_i.ctypes.data, out_j.ctypes.data, cap,
                passed_block.ctypes.data, scratch.ctypes.data,
                stop.ctypes.data,
            )
            passed_total += passed_block
            got += n
            row = int(stop[0])
            if n:
                # The call's only part is returned as it is; others are
                # copied out, so no buffer is held until the parts join.
                lone = not ii_parts and row >= r1
                ii_parts.append(out_i[:n] if lone else out_i[:n].copy())
                jj_parts.append(out_j[:n] if lone else out_j[:n].copy())
            if row < b1:  # the buffer filled up: resume with twice the room
                cap = min((b1 - row) * nr, 2 * cap)
        density = max(density, got / pairs)
    if not ii_parts:
        return empty, empty.copy(), passed_total
    if len(ii_parts) == 1:
        return ii_parts[0], jj_parts[0], passed_total
    return np.concatenate(ii_parts), np.concatenate(jj_parts), passed_total


def _passjoin_run(fn, codes_l, len_l, order, codes_r, len_r, hashes, ids,
                  table, n, pk, k, chain, verify, sig_l, sig_r, bound, w_l,
                  w_r, symmetric, vid_l, vid_r, emit, reuse, capacity):
    tally = np.zeros(_TALLY_SLOTS, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    nq = len(order)
    if not n or not nq:
        return empty, empty.copy(), tally
    seen = np.zeros((n + 63) // 64, dtype=np.uint64)
    cand = np.empty(n, dtype=np.int64)
    rows = np.empty(3 * (max(codes_l.shape[1], codes_r.shape[1]) + 2),
                    dtype=np.int32)
    state = np.zeros(4, dtype=np.int64)
    cap = max(1, capacity or _RUN_PAIRS) if emit else 0
    width = 0 if sig_l is None else sig_l.shape[1]
    # The memo of first copies (reuse needs emit): slots for at least
    # twice the queries, one row per first copy, and ids grown so that
    # every call has room for the cap ids it may emit.
    slots = memo = memo_ids = None
    mask = 0
    if reuse and emit and nq < 1 << 31:
        slots = np.zeros(1 << (2 * nq - 1).bit_length(), dtype=np.int32)
        mask = len(slots) - 1
        memo = np.empty((nq, _MEMO_WORDS), dtype=np.int64)
        memo_ids = np.empty(cap, dtype=np.int64)
    # The arguments every call of the run repeats, converted once.
    fixed = (
        codes_l.ctypes.data, codes_l.shape[1], len_l.ctypes.data,
        order.ctypes.data, nq,
        codes_r.ctypes.data, codes_r.shape[1], len_r.ctypes.data,
        hashes.ctypes.data, ids.ctypes.data, table.ctypes.data,
        table.shape[0], pk, k, chain, verify,
        _ptr(sig_l), _ptr(sig_r), width, bound,
        _ptr(w_l), _ptr(w_r), symmetric, _ptr(vid_l), _ptr(vid_r),
        seen.ctypes.data, cand.ctypes.data, rows.ctypes.data,
        _ptr(slots), mask, _ptr(memo),
    )
    state_p, tally_p = state.ctypes.data, tally.ctypes.data
    parts_q: list[np.ndarray] = []
    parts_j: list[np.ndarray] = []
    while state[0] < nq:
        out_q = np.empty(cap, dtype=np.int64) if emit else None
        out_j = np.empty(cap, dtype=np.int64) if emit else None
        if memo_ids is not None and len(memo_ids) - state[3] < cap:
            grown = np.empty(max(2 * len(memo_ids), int(state[3]) + cap),
                             dtype=np.int64)
            grown[: state[3]] = memo_ids[: state[3]]
            memo_ids = grown
        got = fn(*fixed, _ptr(memo_ids), _ptr(out_q), _ptr(out_j), cap,
                 state_p, tally_p)
        if got < 0:
            raise ValueError("a length exceeds the code matrix width")
        if state[1]:  # one query needs more than an empty buffer holds
            cap = max(2 * cap, int(state[1]))
        elif got:
            parts_q.append(out_q[:got])
            parts_j.append(out_j[:got])
    if not parts_q:
        return empty, empty.copy(), tally
    if len(parts_q) == 1:
        return parts_q[0], parts_j[0], tally
    return np.concatenate(parts_q), np.concatenate(parts_j), tally


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

    def encode_rows(buf, lens, width, alpha, numeric, extended, letter_of,
                    digit_of):
        n = lens.shape[0]
        words = alpha + numeric + (alpha + numeric) % 2
        codes = np.empty((n, width), dtype=np.uint8)
        sigs = np.empty((n, words // 2), dtype=np.uint64)
        if n and raw["encode_rows"](
            buf.ctypes.data, len(buf), lens.ctypes.data, n, width,
            letter_of.ctypes.data, digit_of.ctypes.data, alpha, numeric,
            extended, codes.ctypes.data, sigs.ctypes.data, words,
        ):
            raise ValueError("a length is negative, exceeds the width or "
                             "overruns the byte buffer")
        return codes, sigs

    def format_rows(ii, jj, base, csv):
        # Sized for the longest lines but never zero-filled: only the
        # pages written are touched.
        n = ii.shape[0]
        out = np.empty(n * _FORMAT_ROW_BYTES, dtype=np.uint8)
        size = raw["format_rows"](
            ii.ctypes.data, jj.ctypes.data, n, base, csv, out.ctypes.data
        )
        return out[:size].tobytes()

    fused_rows_u64 = functools.partial(_fused_rows, raw["fused_rows_u64"])
    passjoin_run = functools.partial(_passjoin_run, raw["passjoin_run"])
    return {
        "pair_mask_u64": pair_mask_u64,
        "osa_mask": osa_mask,
        "fused_rows_u64": fused_rows_u64,
        "passjoin_run": passjoin_run,
        "encode_rows": encode_rows,
        "format_rows": format_rows,
    }
