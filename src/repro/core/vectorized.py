"""NumPy batch engines for FBF signatures and signature filtering.

The paper's constant factors come from signatures living in machine words
and the filter being one XOR + POPCNT.  Interpreted CPython cannot show
that per call, so — per the calibration note in DESIGN.md — this module
moves the *batch* operations into NumPy:

* :func:`codes_and_signatures` — the one walk that prepares a batch
  (the paper's "Gen", Algorithms 4-5): from the batch's latin-1 bytes,
  the padded code matrix and the packed signature words together.  Each
  byte is looked up in per-code tables (:data:`LETTER_OF`,
  :data:`DIGIT_OF`); the compiled :mod:`repro.native` kernel does it in
  one pass, and the NumPy body here histograms the codes it already
  has.  :func:`repro.parallel.kernels.encode_side` runs it for every
  prepared side;
* :func:`alpha_signatures_batch` / :func:`num_signatures_batch` /
  :func:`alnum_signatures_batch` / :func:`signatures_for_scheme` —
  signature matrices ``(n, width)`` of ``uint32``, bit-identical to the
  scalar Algorithms 4-5 (pinned by tests): a lossy latin-1 encode, then
  the same walk;
* :func:`pairwise_diff_bits` — the full ``(n_left, n_right)`` diff-bit
  matrix via XOR broadcasting and a byte-table popcount.
* :func:`fbf_candidates` — the filter proper: the index pairs whose
  diff-bits are within the safe threshold, computed in row chunks so
  memory stays flat at ``O(chunk * n_right)``.
* :func:`length_candidates` — the length filter over a batch.

These are the building blocks of the scaled joins in
:mod:`repro.parallel`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.popcount import popcount_batch_u32
from repro.core.signatures import (
    ALPHA_DOUBLED_BIT,
    ALPHA_INDEX,
    ALPHA_OVERFLOW_BIT,
    DIGIT_INDEX,
    SignatureScheme,
    parse_scheme_name,
)
from repro.native import loaded_kernels

__all__ = [
    "DIGIT_OF",
    "LETTER_OF",
    "codes_and_signatures",
    "split_rows",
    "stock_layout",
    "alpha_signatures_batch",
    "num_signatures_batch",
    "alnum_signatures_batch",
    "signatures_for_scheme",
    "pairwise_diff_bits",
    "fbf_candidates",
    "length_candidates",
    "value_identity_codes",
]


def value_identity_codes(
    left: Sequence[str], right: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes under which ``code_l[i] == code_r[j]`` iff
    ``left[i] == right[j]``.

    One shared dictionary pass over both sides; the vectorized engines
    use these for the value-identity diagonal of self-joins, where an
    ``(ii == jj)`` positional test would miss duplicate values.
    """
    table: dict[str, int] = {}

    def encode(strings: Sequence[str]) -> np.ndarray:
        out = np.empty(len(strings), dtype=np.int64)
        for idx, s in enumerate(strings):
            code = table.get(s)
            if code is None:
                code = table[s] = len(table)
            out[idx] = code
        return out

    codes_l = encode(left)
    codes_r = codes_l if right is left else encode(right)
    return codes_l, codes_r


#: Per-code tables of the signature walk: latin-1 byte -> letter index
#: 0-25 (A-Z, case-folded, per Figure 3) or digit index 0-9 (Figure 4),
#: :data:`NO_SYMBOL` for every other byte (NUL, the padding byte, too).
NO_SYMBOL = 255
LETTER_OF = np.full(256, NO_SYMBOL, dtype=np.uint8)
for _ch, _c in ALPHA_INDEX.items():
    LETTER_OF[ord(_ch)] = _c
DIGIT_OF = np.full(256, NO_SYMBOL, dtype=np.uint8)
for _ch, _c in DIGIT_INDEX.items():
    DIGIT_OF[ord(_ch)] = _c
del _ch, _c

#: rows per block of the NumPy signature body (bounds its temporaries)
_SIG_BLOCK_CELLS = 1 << 20


def stock_layout(scheme: SignatureScheme) -> tuple[int, bool, bool] | None:
    """``(alpha words, numeric word, extended)`` of a stock scheme, or
    ``None`` for a custom one (dispatch is on the scheme's name)."""
    parts = parse_scheme_name(scheme.name)
    if parts is None:
        return None
    kind, levels, extended = parts
    return levels, kind != "alpha", extended


def split_rows(raw: bytes, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """A batch's bytes joined by NUL separators, as a uint8 array, and
    each string's length read off the separators (``None`` when a string
    holds a NUL itself, so the separators do not delimit the rows)."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    if n == 0:
        return buf, np.zeros(0, dtype=np.int64)
    seps = np.flatnonzero(buf == 0)
    if len(seps) != n - 1:
        return buf, None
    bounds = np.empty(n + 1, dtype=np.int64)
    bounds[0], bounds[1:-1], bounds[-1] = -1, seps, len(buf)
    return buf, np.diff(bounds) - 1


def codes_and_signatures(
    buf: np.ndarray,
    lengths: np.ndarray,
    layout: tuple[int, bool, bool],
    native=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One walk over a batch: padded codes and packed signatures.

    ``buf`` is the batch's latin-1 bytes with one separator byte between
    rows (:func:`split_rows`) and ``lengths`` the row lengths; ``layout``
    a :func:`stock_layout`.  Returns the ``(n, max(lengths))`` uint8 code
    matrix (:data:`~repro.distance.codec.PAD` past each row's end) and
    the signature words packed little-endian into ``uint64`` with a zero
    column for odd widths
    (:func:`repro.parallel.kernels.pack_signatures`).  ``native`` (a
    :class:`repro.native.KernelSet`) writes both in one compiled pass;
    without it the NumPy body maps the codes through :data:`LETTER_OF`
    and :data:`DIGIT_OF` and histograms them.  Bits are identical.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(lengths)
    width = int(lengths.max()) if n else 0
    if native is not None:
        return native.encode_rows(
            buf, lengths, width, layout, LETTER_OF, DIGIT_OF
        )
    codes = np.zeros((n, width), dtype=np.uint8)
    rows = np.ones(len(buf), dtype=bool)
    rows[np.cumsum(lengths[:-1] + 1) - 1] = False  # the separators
    codes[np.arange(width) < lengths[:, None]] = buf[rows]
    return codes, _code_signatures(codes, layout).view(np.uint64)


def _code_signatures(codes: np.ndarray, layout) -> np.ndarray:
    """The NumPy signature body: ``(n, words)`` uint32, ``words`` even
    (a zero column pads an odd scheme width), from a padded code
    matrix."""
    alpha, numeric, extended = layout
    width = alpha + numeric
    n, w = codes.shape
    out = np.zeros((n, width + width % 2), dtype=np.uint32)
    step = max(1, _SIG_BLOCK_CELLS // max(1, w))
    for r0 in range(0, n, step):
        block, o = codes[r0 : r0 + step], out[r0 : r0 + step]
        if alpha:
            letters = LETTER_OF[block]
            counts = _histogram(letters, 26)
            for j in range(alpha):
                o[:, j] = _bits(counts > j)
            if extended:
                overflow = (counts > alpha).any(axis=1)
                doubled = (
                    (letters[:, 1:] == letters[:, :-1]) & (letters[:, 1:] < 26)
                ).any(axis=1)
                o[:, alpha - 1] |= (
                    overflow.astype(np.uint32) << np.uint32(ALPHA_OVERFLOW_BIT)
                ) | (doubled.astype(np.uint32) << np.uint32(ALPHA_DOUBLED_BIT))
        if numeric:
            counts = _histogram(DIGIT_OF[block], 10)
            # bit 3c + j: digit c occurs more than j times, j < 3
            o[:, alpha] = _bits(
                (counts[:, :, None] > np.arange(3)).reshape(len(block), 30)
            )
    return out


def _histogram(symbols: np.ndarray, m: int) -> np.ndarray:
    """Per-row occurrence count of each symbol ``0..m-1``: ``(n, m)``
    (:data:`NO_SYMBOL` cells are not counted)."""
    n = len(symbols)
    flat = np.minimum(symbols, m).astype(np.int64)
    flat += (np.arange(n, dtype=np.int64) * (m + 1))[:, None]
    counts = np.bincount(flat.ravel(), minlength=n * (m + 1))
    return counts.reshape(n, m + 1)[:, :m]


def _bits(mask: np.ndarray) -> np.ndarray:
    """Row ``i`` of a ``(n, <= 32)`` boolean mask as a uint32, column
    ``c`` at bit ``c``."""
    full = np.zeros((len(mask), 32), dtype=bool)
    full[:, : mask.shape[1]] = mask
    return np.packbits(full, axis=1, bitorder="little").view("<u4")[:, 0]


def _stock_signatures(
    strings: Sequence[str], layout: tuple[int, bool, bool]
) -> np.ndarray:
    """``(n, width)`` uint32 signatures of a stock layout: a lossy
    latin-1 encode (one ``?``, neither letter nor digit, per character
    outside latin-1), then :func:`codes_and_signatures`."""
    raw = "\x00".join(strings).encode("latin-1", errors="replace")
    buf, lengths = split_rows(raw, len(strings))
    if lengths is None:  # a string holds NUL: count the rows instead
        lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    _, sigs = codes_and_signatures(buf, lengths, layout, loaded_kernels())
    alpha, numeric, _ = layout
    return np.ascontiguousarray(sigs.view(np.uint32)[:, : alpha + numeric])


def alpha_signatures_batch(
    strings: Sequence[str], levels: int = 1, *, extended: bool = False
) -> np.ndarray:
    """Batch Algorithm 4: ``(n, levels)`` uint32 signature matrix.

    Equivalent to ``[alpha_signature(s, levels, extended=extended) for s
    in strings]`` (property-tested).
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return _stock_signatures(strings, (levels, False, extended))


def num_signatures_batch(strings: Sequence[str]) -> np.ndarray:
    """Batch Algorithm 5: ``(n,)`` uint32 numeric signatures."""
    return _stock_signatures(strings, (0, True, False))[:, 0]


def alnum_signatures_batch(
    strings: Sequence[str], alpha_levels: int = 2, *, extended: bool = False
) -> np.ndarray:
    """Batch alphanumeric signatures: ``(n, alpha_levels + 1)`` uint32."""
    if alpha_levels < 1:
        raise ValueError(f"levels must be >= 1, got {alpha_levels}")
    return _stock_signatures(strings, (alpha_levels, True, extended))


def signatures_for_scheme(
    strings: Sequence[str], scheme: SignatureScheme
) -> np.ndarray:
    """Batch signatures matching a scalar :class:`SignatureScheme`:
    ``(n, scheme.width)`` uint32.

    Stock schemes (:func:`stock_layout`) run the one code-based walk;
    custom schemes fall back to calling the scalar generator per string.
    """
    layout = stock_layout(scheme)
    if layout is not None:
        return _stock_signatures(strings, layout)
    rows = [scheme.signature(s) for s in strings]
    return np.array(rows, dtype=np.uint32).reshape(len(strings), scheme.width)


def _as_sig_matrix(sigs: np.ndarray) -> np.ndarray:
    """Coerce a signature array to ``(n, width)`` uint32.

    A 1-D input is a width-1 signature *column* (one word per string),
    not a single multi-word signature — hence the explicit reshape
    rather than ``np.atleast_2d`` (which would produce ``(1, n)``).
    """
    arr = np.asarray(sigs, dtype=np.uint32)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"signatures must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def pairwise_diff_bits(left_sigs: np.ndarray, right_sigs: np.ndarray) -> np.ndarray:
    """Full diff-bit matrix: ``out[i, j] = diff_bits(left[i], right[j])``.

    Inputs are ``(n, width)`` uint32 matrices (a 1-D array is treated as
    width 1).  Output is ``(n_left, n_right)`` uint16.  Allocates one
    ``n_left x n_right`` uint32 temporary per signature word; use
    :func:`fbf_candidates` for products too large to hold.
    """
    L = _as_sig_matrix(left_sigs)
    R = _as_sig_matrix(right_sigs)
    if L.shape[1] != R.shape[1]:
        raise ValueError(f"signature widths differ: {L.shape[1]} vs {R.shape[1]}")
    out = np.zeros((L.shape[0], R.shape[0]), dtype=np.uint16)
    for w in range(L.shape[1]):
        xor = L[:, w][:, None] ^ R[:, w][None, :]
        out += popcount_batch_u32(xor)
    return out


def fbf_candidates(
    left_sigs: np.ndarray,
    right_sigs: np.ndarray,
    bound: int,
    *,
    chunk_rows: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs with ``diff_bits <= bound`` — the FBF filter at scale.

    Streams the left side in ``chunk_rows`` blocks so peak memory is
    ``O(chunk_rows * n_right)`` regardless of product size.  Returns
    ``(ii, jj)`` int64 arrays.
    """
    L = _as_sig_matrix(left_sigs)
    R = _as_sig_matrix(right_sigs)
    ii_parts: list[np.ndarray] = []
    jj_parts: list[np.ndarray] = []
    for start in range(0, L.shape[0], chunk_rows):
        block = L[start : start + chunk_rows]
        db = pairwise_diff_bits(block, R)
        bi, bj = np.nonzero(db <= bound)
        ii_parts.append(bi.astype(np.int64) + start)
        jj_parts.append(bj.astype(np.int64))
    if not ii_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(ii_parts), np.concatenate(jj_parts)


def length_candidates(
    left_lengths: np.ndarray, right_lengths: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs passing the length filter: ``abs(|s| - |t|) <= k``."""
    ll = np.asarray(left_lengths, dtype=np.int64)
    rl = np.asarray(right_lengths, dtype=np.int64)
    diff = np.abs(ll[:, None] - rl[None, :])
    ii, jj = np.nonzero(diff <= k)
    return ii.astype(np.int64), jj.astype(np.int64)
