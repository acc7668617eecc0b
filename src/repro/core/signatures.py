"""FBF signature generation and comparison (paper Algorithms 4-6).

An FBF signature is a checklist of character occurrences packed into
32-bit words:

* **Alphabetic** (Algorithm 4, ``SetAlphaBits``): word ``j`` has bit ``c``
  set iff the ``(j+1)``-th occurrence of letter ``c`` appears in the
  string.  One word records first occurrences of A-Z; an ``l``-word
  vector records up to ``l`` occurrences of each letter.  Case-folded;
  non-letters ignored.
* **Numeric** (Algorithm 5, ``SetNumBits``): one word, bits ``3c + j``
  for digit ``c`` occurrence level ``j`` in {0, 1, 2} — up to three
  occurrences of each digit in 30 bits.  Non-digits ignored.
* **Alphanumeric**: the concatenation of an alphabetic vector and a
  numeric word (the paper's 12-byte address signature = 2 alpha words +
  1 numeric word).

Signature comparison (Algorithm 6, ``FindDiffBits``) XORs the word
vectors and counts set bits.  The load-bearing property (paper Section 4,
property-tested in ``tests/core/test_safety.py``)::

    diff_bits(sig(s), sig(t)) <= 2 * damerau_levenshtein(s, t)

so a pair with ``diff_bits > 2k`` is *guaranteed* not to match within
``k`` edits and can be discarded without running the DP — zero false
negatives.

Extended signatures (the paper's "unused bits" remark, Section 3) may add
global indicator bits (e.g. "some letter occurs more than *l* times",
"two identical letters are adjacent").  Each indicator is a single bit
and can therefore differ at most once per pair, so the safe threshold
relaxes from ``2k`` to ``2k + slack`` where ``slack`` is the number of
indicator bits — tracked by :class:`SignatureScheme` and consumed by
:class:`repro.core.filters.FBFFilter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "ALPHA_INDEX",
    "DIGIT_INDEX",
    "alpha_signature",
    "num_signature",
    "alnum_signature",
    "find_diff_bits",
    "diff_bits",
    "SignatureScheme",
    "scheme_for",
    "scheme_from_name",
    "parse_scheme_name",
    "detect_kind",
    "ALPHA_OVERFLOW_BIT",
    "ALPHA_DOUBLED_BIT",
]

#: Letter -> bit index 0..25 ('A' -> 0 ... 'Z' -> 25), per Figure 3.
ALPHA_INDEX = {chr(ord("A") + i): i for i in range(26)}
ALPHA_INDEX.update({chr(ord("a") + i): i for i in range(26)})

#: Digit -> index 0..9, per Figure 4.
DIGIT_INDEX = {chr(ord("0") + i): i for i in range(10)}

#: Bit positions for the extended ("unused bits") indicators in the last
#: alphabetic word.  A-Z occupy bits 0-25, leaving 26-31 free.
ALPHA_OVERFLOW_BIT = 26  # some letter occurs more than `levels` times
ALPHA_DOUBLED_BIT = 27  # two identical letters are adjacent

_U32 = 0xFFFFFFFF


def alpha_signature(
    s: str, levels: int = 1, *, extended: bool = False
) -> tuple[int, ...]:
    """Paper Algorithm 4 (``SetAlphaBits``): alphabetic FBF signature.

    Returns a ``levels``-word tuple; word ``j`` bit ``c`` is set iff the
    string contains at least ``j + 1`` occurrences of letter ``c``.

    With ``extended=True``, two indicator bits are packed into the unused
    high bits of the **last** word: :data:`ALPHA_OVERFLOW_BIT` (some
    letter occurs more than ``levels`` times) and
    :data:`ALPHA_DOUBLED_BIT` (a doubled letter, e.g. the "TT" in
    "OTTO").  These tighten the filter at the cost of a slack of 2 on
    the safe threshold (see module docstring).

    >>> bin(alpha_signature("SMITH")[0]).count("1")
    5
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    words = [0] * levels
    seen = [0] * 26
    overflow = False
    doubled = False
    prev_idx = -1
    for ch in s:
        c = ALPHA_INDEX.get(ch)
        if c is None:
            prev_idx = -1
            continue
        j = seen[c]
        if j < levels:
            words[j] |= 1 << c
        else:
            overflow = True
        seen[c] = j + 1
        if c == prev_idx:
            doubled = True
        prev_idx = c
    if extended:
        if overflow:
            words[-1] |= 1 << ALPHA_OVERFLOW_BIT
        if doubled:
            words[-1] |= 1 << ALPHA_DOUBLED_BIT
    return tuple(words)


def num_signature(s: str) -> int:
    """Paper Algorithm 5 (``SetNumBits``): numeric FBF signature.

    One 32-bit word; bit ``3c + j`` set iff digit ``c`` occurs at least
    ``j + 1`` times (``j`` saturates at 2, i.e. at most three occurrences
    of each digit are recorded).  Non-digits are ignored, so formatted
    values like ``"800-555-1212"`` and ``"8005551212"`` share a
    signature.

    >>> num_signature("8005551212") == num_signature("800-555-1212")
    True
    """
    x = 0
    seen = [0] * 10
    for ch in s:
        c = DIGIT_INDEX.get(ch)
        if c is None:
            continue
        j = seen[c]
        if j < 3:
            x |= 1 << (3 * c + j)
            seen[c] = j + 1
    return x


def alnum_signature(
    s: str, alpha_levels: int = 2, *, extended: bool = False
) -> tuple[int, ...]:
    """Alphanumeric FBF signature: alpha vector followed by a numeric word.

    The paper's street-address configuration is ``alpha_levels=2`` (12
    bytes total).  Characters that are neither letters nor digits (space,
    punctuation) contribute nothing, exactly as in Algorithms 4-5.
    """
    return alpha_signature(s, alpha_levels, extended=extended) + (num_signature(s),)


def find_diff_bits(m: Sequence[int], n: Sequence[int]) -> int:
    """Paper Algorithm 6 (``FindDiffBits``), Wegner loop included.

    Counts the set bits of the word-wise XOR of two signatures — the
    number of character-occurrence slots present in exactly one of the
    two strings.  Kept as the literal transcription (the Wegner
    ``d &= d - 1`` loop); :func:`diff_bits` is the production variant.
    """
    if len(m) != len(n):
        raise ValueError(f"signature widths differ: {len(m)} vs {len(n)}")
    x = 0
    for mi, ni in zip(m, n):
        d = mi ^ ni
        while d > 0:
            x += 1
            d &= d - 1
    return x


def diff_bits(m: Sequence[int], n: Sequence[int]) -> int:
    """Signature difference via ``int.bit_count`` (hardware POPCNT)."""
    if len(m) != len(n):
        raise ValueError(f"signature widths differ: {len(m)} vs {len(n)}")
    x = 0
    for mi, ni in zip(m, n):
        x += (mi ^ ni).bit_count()
    return x


@dataclass(frozen=True)
class SignatureScheme:
    """A named FBF signature configuration.

    Bundles the generation function with the two numbers the filter
    needs: the word ``width`` of every signature it produces and the
    ``slack`` its indicator bits add to the safe threshold
    (``diff_bits <= 2k + slack`` preserves all true matches).
    """

    name: str
    width: int
    generate: Callable[[str], tuple[int, ...]]
    slack: int = 0

    def signature(self, s: str) -> tuple[int, ...]:
        """Signature of one string (fixed ``width``-word tuple)."""
        sig = self.generate(s)
        if len(sig) != self.width:
            raise ValueError(
                f"scheme {self.name!r} produced width {len(sig)}, "
                f"declared {self.width}"
            )
        return sig

    def signatures(self, strings: Iterable[str]) -> list[tuple[int, ...]]:
        """Signatures of a batch, in order."""
        return [self.signature(s) for s in strings]

    def safe_threshold(self, k: int) -> int:
        """Largest ``diff_bits`` value a true match within ``k`` edits
        can produce: ``2k + slack``."""
        return 2 * k + self.slack


def _alpha_scheme(levels: int, extended: bool) -> SignatureScheme:
    def gen(s: str, _l: int = levels, _e: bool = extended) -> tuple[int, ...]:
        return alpha_signature(s, _l, extended=_e)

    suffix = f"{levels}" + ("x" if extended else "")
    return SignatureScheme(
        name=f"alpha{suffix}",
        width=levels,
        generate=gen,
        slack=2 if extended else 0,
    )


def _alnum_scheme(levels: int, extended: bool) -> SignatureScheme:
    def gen(s: str, _l: int = levels, _e: bool = extended) -> tuple[int, ...]:
        return alnum_signature(s, _l, extended=_e)

    suffix = f"{levels}" + ("x" if extended else "")
    return SignatureScheme(
        name=f"alnum{suffix}",
        width=levels + 1,
        generate=gen,
        slack=2 if extended else 0,
    )


_NUMERIC_SCHEME = SignatureScheme(
    name="numeric", width=1, generate=lambda s: (num_signature(s),)
)


def scheme_for(kind: str, levels: int = 2, *, extended: bool = False) -> SignatureScheme:
    """Stock scheme factory.

    ``kind`` is one of:

    * ``"numeric"`` — one word, Algorithm 5 (SSNs, phones, birthdates).
    * ``"alpha"`` — ``levels`` words, Algorithm 4 (names; the paper uses
      ``levels=2``, 8 bytes).
    * ``"alnum"`` — ``levels`` alpha words + 1 numeric word (addresses;
      the paper's 12-byte configuration is ``levels=2``).
    """
    if kind == "numeric":
        if extended:
            raise ValueError("numeric signatures have no spare indicator bits")
        return _NUMERIC_SCHEME
    if kind == "alpha":
        return _alpha_scheme(levels, extended)
    if kind == "alnum":
        return _alnum_scheme(levels, extended)
    raise ValueError(f"unknown signature kind {kind!r}")


def scheme_from_name(name: str) -> SignatureScheme:
    """Reconstruct a stock scheme from its :attr:`SignatureScheme.name`.

    The inverse of :func:`scheme_for` for every scheme it can produce
    (``"numeric"``, ``"alpha2"``, ``"alnum2x"``, ...) — the hook
    snapshot loaders use to revive a persisted index.  Custom schemes
    have no parseable name and raise ``ValueError``.

    >>> scheme_from_name("alnum2x").name
    'alnum2x'
    """
    parts = parse_scheme_name(name)
    if parts is None:
        raise ValueError(f"not a stock scheme name: {name!r}")
    kind, levels, extended = parts
    return scheme_for(kind, levels, extended=extended)


def parse_scheme_name(name: str) -> tuple[str, int, bool] | None:
    """``(kind, levels, extended)`` of a stock scheme name (``levels``
    is 0 for ``"numeric"``), or ``None`` for any other name.

    >>> parse_scheme_name("alnum2x")
    ('alnum', 2, True)
    """
    if name == "numeric":
        return "numeric", 0, False
    for prefix in ("alpha", "alnum"):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            extended = suffix.endswith("x")
            digits = suffix[:-1] if extended else suffix
            if digits.isdigit() and int(digits) >= 1:
                return prefix, int(digits), extended
    return None


def resolve_scheme(
    scheme: SignatureScheme | str | None, strings: Iterable[str] = ()
) -> SignatureScheme:
    """``scheme`` itself, the stock scheme of a kind string, or (for
    ``None``) the stock scheme of the kind :func:`detect_kind` sees in
    ``strings``."""
    if scheme is None:
        scheme = detect_kind(strings)
    return scheme_for(scheme) if isinstance(scheme, str) else scheme


def detect_kind(strings: Iterable[str], sample: int = 256) -> str:
    """Guess the signature kind for a dataset by inspecting a sample.

    All-digit (allowing separators) samples map to ``"numeric"``,
    all-letter samples to ``"alpha"``, anything mixed to ``"alnum"``.
    """
    has_alpha = False
    has_digit = False
    for i, s in enumerate(strings):
        if i >= sample:
            break
        for ch in s:
            if ch in ALPHA_INDEX:
                has_alpha = True
            elif ch in DIGIT_INDEX:
                has_digit = True
        if has_alpha and has_digit:
            return "alnum"
    if has_digit and not has_alpha:
        return "numeric"
    if has_alpha and not has_digit:
        return "alpha"
    return "alnum"
