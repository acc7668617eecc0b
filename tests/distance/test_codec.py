"""Unit tests for the string codecs backing the vectorized engines."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st


from repro.distance.codec import (
    ALPHA_CODEC,
    ASCII_CODEC,
    DIGIT_CODEC,
    Codec,
    encode_raw,
)

latin_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=255), max_size=12
)

#: Full Unicode: astral characters, lone surrogates and NUL included.
any_char = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
    st.sampled_from(["\x00", "\U0001F600", "\xff", "?"]),
)


def sized_text(alphabet):
    """Short strings plus the padding-width edges 0/1/63/64/65 and a
    length far past 64."""
    return st.one_of(
        st.text(alphabet, max_size=4),
        st.sampled_from([0, 1, 63, 64, 65, 300]).flatmap(
            lambda n: st.text(alphabet, min_size=n, max_size=n)
        ),
    )


#: Batches where most strings encode (clean latin-1) and some may not.
mixed_batches = st.lists(
    st.one_of(
        sized_text(st.characters(min_codepoint=1, max_codepoint=255)),
        sized_text(any_char),
    ),
    max_size=8,
)
widths = st.one_of(st.none(), st.integers(0, 80))


def reference_encode_raw(strings, width=None):
    """One string at a time: the definition the bulk encoder must match."""
    n = len(strings)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    w = int(lengths.max()) if (width is None and n) else int(width or 0)
    codes = np.zeros((n, w), dtype=np.uint8)
    for i, s in enumerate(strings):
        if not s:
            continue
        try:
            raw = s.encode("latin-1")
        except UnicodeEncodeError:
            raise ValueError(
                f"string {i} contains non-latin-1 characters: {s!r}"
            ) from None
        if b"\x00" in raw:
            raise ValueError(f"string {i} contains NUL, the padding byte: {s!r}")
        codes[i, : len(raw)] = np.frombuffer(raw, dtype=np.uint8)[:w]
    return codes, lengths


def reference_encode_padded(codec, strings, width=None):
    n = len(strings)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    w = int(lengths.max()) if (width is None and n) else int(width or 0)
    codes = np.zeros((n, w), dtype=np.uint8)
    for i, s in enumerate(strings):
        if s:
            codes[i, : len(s)] = codec.encode(s)[:w]
    return codes, lengths


def outcome(encode, strings, width):
    try:
        return encode(strings, width)
    except ValueError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
        assert g.flags.c_contiguous


class TestCodec:
    def test_pad_is_zero(self):
        codes, lengths = ALPHA_CODEC.encode_padded(["AB", "ABCD"])
        assert codes.shape == (2, 4)
        assert codes[0, 2] == 0 and codes[0, 3] == 0
        assert lengths.tolist() == [2, 4]

    def test_casefold(self):
        a = ALPHA_CODEC.encode("smith")
        b = ALPHA_CODEC.encode("SMITH")
        assert (a == b).all()

    def test_digit_codec_no_casefold(self):
        codes = DIGIT_CODEC.encode("0129")
        assert codes.tolist() == [1, 2, 3, 10]

    def test_other_code_distinct_from_pad(self):
        codes = DIGIT_CODEC.encode("1-2")
        assert codes[1] == DIGIT_CODEC.size - 1
        assert codes[1] != 0

    def test_empty_batch(self):
        codes, lengths = ASCII_CODEC.encode_padded([])
        assert codes.shape[0] == 0 and lengths.shape[0] == 0

    def test_empty_string_in_batch(self):
        codes, lengths = ASCII_CODEC.encode_padded(["", "AB"])
        assert lengths.tolist() == [0, 2]
        assert (codes[0] == 0).all()

    def test_explicit_width_truncates(self):
        codes, lengths = ASCII_CODEC.encode_padded(["ABCDEF"], width=3)
        assert codes.shape == (1, 3)
        # lengths keep the true length even when codes are truncated
        assert lengths[0] == 6

    def test_size(self):
        assert DIGIT_CODEC.size == 12  # 10 digits + PAD + other

    def test_custom_codec(self):
        c = Codec("tiny", "XY", casefold=False)
        assert c.encode("XYZ").tolist() == [1, 2, 3]  # Z -> other

    @pytest.mark.parametrize(
        "codec",
        [ALPHA_CODEC, DIGIT_CODEC, ASCII_CODEC, Codec("tiny", "xY", casefold=False)],
        ids=lambda c: c.name,
    )
    @given(strings=mixed_batches, width=widths)
    def test_bulk_matches_per_string_reference(self, codec, strings, width):
        assert_same(
            codec.encode_padded(strings, width),
            reference_encode_padded(codec, strings, width),
        )

    def test_nul_and_unencodable_map_to_other(self):
        # One "?" per unencodable code point keeps the rows aligned; a
        # NUL is a character like any other, never padding.
        codes, lengths = ALPHA_CODEC.encode_padded(["\x00A", "\U0001F600\ud800B"])
        other = ALPHA_CODEC.size - 1
        assert lengths.tolist() == [2, 3]
        assert codes.tolist() == [[other, 1, 0], [other, other, 2]]


class TestEncodeRaw:
    def test_roundtrip_codes(self):
        codes, lengths = encode_raw(["AB", "c"])
        assert codes[0, :2].tolist() == [ord("A"), ord("B")]
        assert codes[1, 0] == ord("c")
        assert lengths.tolist() == [2, 1]

    def test_distinct_chars_stay_distinct(self):
        codes, _ = encode_raw(["aA"])
        assert codes[0, 0] != codes[0, 1]

    def test_nul_rejected(self):
        with pytest.raises(ValueError):
            encode_raw(["A\x00B"])

    def test_non_latin1_rejected(self):
        with pytest.raises(ValueError):
            encode_raw(["ABC☃"])

    def test_empty_batch(self):
        codes, lengths = encode_raw([])
        assert codes.shape[0] == 0

    @given(st.lists(latin_text.filter(lambda s: "\x00" not in s), max_size=6))
    def test_lengths_always_true_lengths(self, strings):
        _, lengths = encode_raw(strings)
        assert lengths.tolist() == [len(s) for s in strings]

    @given(latin_text.filter(lambda s: "\x00" not in s))
    def test_padding_never_collides(self, s):
        codes, lengths = encode_raw([s])
        n = int(lengths[0])
        assert (codes[0, :n] != 0).all()
        assert (codes[0, n:] == 0).all()

    def test_dtype(self):
        codes, lengths = encode_raw(["AB"])
        assert codes.dtype == np.uint8
        assert lengths.dtype == np.int64

    @given(strings=mixed_batches, width=widths)
    def test_bulk_matches_per_string_reference(self, strings, width):
        assert_same(
            outcome(encode_raw, strings, width),
            outcome(reference_encode_raw, strings, width),
        )

    @pytest.mark.parametrize(
        "strings, message",
        [
            (["AB", "A\x00", "Ł"], "string 1 contains NUL, the padding byte: 'A\\x00'"),
            (["AB", "Ł", "A\x00"], "string 1 contains non-latin-1 characters: 'Ł'"),
            (["", "\x00Ł"], "string 1 contains non-latin-1 characters: '\\x00Ł'"),
            (["\x00", "", "Ł\x00"], "string 0 contains NUL, the padding byte: '\\x00'"),
            (["", "AB", "\ud800"], "string 2 contains non-latin-1 characters: '\\ud800'"),
        ],
    )
    def test_first_offender_in_input_order(self, strings, message):
        with pytest.raises(ValueError) as exc:
            encode_raw(strings)
        assert str(exc.value) == message
        assert outcome(reference_encode_raw, strings, None) == message

    def test_truncating_width_still_validates_whole_string(self):
        with pytest.raises(ValueError, match="string 0 contains non-latin-1"):
            encode_raw(["ABCŁ"], width=2)
        with pytest.raises(ValueError, match="string 0 contains NUL"):
            encode_raw(["ABC\x00"], width=2)

    def test_scatter_temporaries_stay_small(self):
        # The scatter goes through a boolean (n, width) mask.  One int64
        # index per cell would alone be 8x the code matrix; the whole
        # call (joined text, its bytes, mask, result) stays below 7x.
        strings = ["ABCDEFGHIJ" * 3] * 2000
        tracemalloc.start()
        codes, _ = encode_raw(strings)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 7 * codes.nbytes
