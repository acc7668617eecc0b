"""String-to-integer code encodings shared by the vectorized engines.

The NumPy batch engines in :mod:`repro.core.vectorized` and
:mod:`repro.parallel` operate on fixed-width ``uint8`` code matrices rather
than Python strings.  A :class:`Codec` maps characters to small integer
codes; position 0 is reserved as the padding code so that padded cells never
equal a real character.

Three stock codecs cover the paper's data families:

* :data:`ALPHA_CODEC` — case-folded A-Z (names).
* :data:`DIGIT_CODEC` — 0-9 (SSNs, phone numbers, birthdates).
* :data:`ASCII_CODEC` — printable ASCII (addresses and anything else).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Codec",
    "ALPHA_CODEC",
    "DIGIT_CODEC",
    "ASCII_CODEC",
    "encode_batch",
    "encode_raw",
]

#: Code value used for cells beyond a string's length in a padded matrix.
PAD = 0


@dataclass(frozen=True)
class Codec:
    """A character→code mapping with optional case folding.

    Characters outside the alphabet are mapped to a dedicated "other"
    code (distinct from padding) so that, e.g., the hyphens in a phone
    number still participate in positional comparisons, matching how the
    scalar metrics see raw strings.
    """

    name: str
    alphabet: str
    casefold: bool = True
    #: 256-entry lookup, char ordinal -> code (built in ``__post_init__``)
    _table: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        table = np.full(256, len(self.alphabet) + 1, dtype=np.uint8)  # "other"
        for i, ch in enumerate(self.alphabet):
            table[ord(ch)] = i + 1  # 0 is PAD
            if self.casefold and ch.isalpha():
                table[ord(ch.swapcase())] = i + 1
        object.__setattr__(self, "_table", table)

    @property
    def size(self) -> int:
        """Number of distinct codes including PAD and "other"."""
        return len(self.alphabet) + 2

    def encode(self, s: str) -> np.ndarray:
        """Encode one string to a 1-D uint8 code array (no padding)."""
        raw = np.frombuffer(s.encode("latin-1", errors="replace"), dtype=np.uint8)
        return self._table[raw]

    def encode_padded(
        self, strings: Sequence[str], width: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode a batch into a padded ``(n, width)`` matrix plus lengths.

        Returns ``(codes, lengths)`` where ``codes[i, j]`` is the code of
        ``strings[i][j]`` (or :data:`PAD` past the end) and
        ``lengths[i] == len(strings[i])``.  Characters outside latin-1
        encode as one ``?`` each, so every string keeps one code per
        character.
        """
        return _pad_rows(strings, width, self.encode)


ALPHA_CODEC = Codec("alpha", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
DIGIT_CODEC = Codec("digit", "0123456789", casefold=False)
ASCII_CODEC = Codec(
    "ascii",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,'#&/-",
)


def encode_batch(
    strings: Sequence[str], codec: Codec = ASCII_CODEC
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper: ``codec.encode_padded(strings)``."""
    return codec.encode_padded(strings)


def encode_raw(
    strings: Sequence[str], width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lossless latin-1 encoding into a padded ``(n, width)`` uint8 matrix.

    Every distinct character keeps a distinct code (its latin-1 byte), so
    the vectorized DP engines agree with the scalar metrics character for
    character.  NUL (the padding byte) must not occur in the data; a
    string containing it raises :class:`ValueError`.  Characters outside
    latin-1 likewise raise rather than silently aliasing.
    """

    def latin1(joined: str) -> np.ndarray:
        try:
            raw = joined.encode("latin-1")
        except UnicodeEncodeError as exc:
            _reject(strings, exc.start, joined.find("\x00", 0, exc.start), exc)
        nul = raw.find(b"\x00")
        if nul >= 0:
            _reject(strings, len(joined), nul, None)
        return np.frombuffer(raw, dtype=np.uint8)

    return _pad_rows(strings, width, latin1)


def _reject(
    strings: Sequence[str], wide: int, nul: int, exc: Exception | None
) -> None:
    """Raise for the first string, in input order, that :func:`encode_raw`
    refuses.  ``wide`` and ``nul`` are offsets into the joined batch of
    the first non-latin-1 character and the first NUL before it (``-1``
    if none); a string with both is reported as non-latin-1."""
    ends = np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings)))
    i = int(np.searchsorted(ends, wide, side="right"))
    if nul >= 0 and (j := int(np.searchsorted(ends, nul, side="right"))) < i:
        raise ValueError(
            f"string {j} contains NUL, the padding byte: {strings[j]!r}"
        )
    raise ValueError(
        f"string {i} contains non-latin-1 characters: {strings[i]!r}"
    ) from exc


def _pad_rows(
    strings: Sequence[str],
    width: int | None,
    encode: Callable[[str], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a batch in one pass into a padded ``(n, width)`` matrix.

    ``encode`` maps the concatenation of every string to a flat code
    array with exactly one code per character, which one boolean-mask
    assignment scatters into the rows (cells past a row's length stay
    :data:`PAD`); rows longer than ``width`` are cut.  ``width=None`` is
    the longest string's length.  Returns ``(codes, lengths)``.
    """
    n = len(strings)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=n)
    flat = encode("".join(strings))
    longest = int(lengths.max()) if n else 0
    w = longest if width is None else int(width)
    codes = np.zeros((n, max(w, longest)), dtype=flat.dtype)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = flat
    if w < longest:
        codes = np.ascontiguousarray(codes[:, :w])
    return codes, lengths
