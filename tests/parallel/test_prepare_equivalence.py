"""Differential suite for side preparation: one walk against the
references.

A prepared side's codes and lengths must equal ``encode_raw``'s, and its
packed signatures must equal packing the scalar Algorithms 4-5
(``alpha_signature`` / ``num_signature`` / ``alnum_signature``), for
every stock scheme.  Each test runs on the NumPy body and, when the
compiled provider loads, on its ``encode_rows`` kernel; under
``REPRO_NO_NATIVE=1`` the compiled leg is skipped.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core import vectorized
from repro.core.signatures import scheme_for
from repro.core.vectorized import signatures_for_scheme
from repro.distance.codec import encode_raw
from repro.parallel import kernels
from repro.parallel.kernels import encode_side, pack_signatures
from repro.parallel.prepared import PreparedSide
from repro.serve.mutable import MutableIndex

SCHEMES = [scheme_for("numeric")] + [
    scheme_for(kind, levels, extended=extended)
    for kind in ("alpha", "alnum")
    for levels in (1, 2, 3)
    for extended in (False, True)
]

PROVIDERS = [
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native.available(), reason="no compiled provider"
        ),
    ),
]

#: the cases the walk must get right, whatever hypothesis draws
SPECIAL = [
    "",
    "Tt",  # a doubled letter that differs only in case
    "T-T",  # a doubled letter split by a non-letter
    "tTt",
    "\xe9\xdf\xff",  # latin-1 letters outside A-Z
    "CAF\xc9 STRA\xdfE",
    "11111",  # a digit repeated more than 3 times
    "9999999999 OAK ST",
    "AAAAAAA",  # overflow at every level
    "a" * 63,
    "Ab" * 32,
    "xY1" * 21 + "zz",
    "PAUL" * 200,
]

CHARS = "AaBbTtZz-' .0123456789\xe9\xdf\xff\xc0"
short = st.text(CHARS, max_size=14)
#: rows around the 64-char word boundary and far past it
long = st.builds(
    lambda n, unit: (unit * n)[:n],
    st.sampled_from([63, 64, 65, 300]),
    st.text(CHARS, min_size=1, max_size=6),
)
batches = st.lists(st.one_of(short, short, long), max_size=12)


@contextmanager
def provider(name):
    """Run side preparation on the NumPy body or the compiled kernel."""
    ks = native.load_kernels() if name == "native" else None
    with mock.patch.object(kernels, "loaded_kernels", lambda: ks), \
            mock.patch.object(vectorized, "loaded_kernels", lambda: ks):
        yield


def reference(strings, scheme):
    codes, lengths = encode_raw(strings)
    sigs = np.array(
        [scheme.signature(s) for s in strings], dtype=np.uint32
    ).reshape(len(strings), scheme.width)
    return codes, lengths, pack_signatures(sigs)


def assert_side(side, strings, scheme):
    codes, lengths, sigs = reference(strings, scheme)
    assert side.n == len(strings)
    assert side.codes.dtype == np.uint8 and side.sigs.dtype == np.uint64
    np.testing.assert_array_equal(side.codes, codes)
    np.testing.assert_array_equal(side.lengths, lengths)
    np.testing.assert_array_equal(side.sigs, sigs)


@pytest.mark.parametrize("name", PROVIDERS)
class TestPreparedSide:
    def test_special_inputs(self, name):
        with provider(name):
            for scheme in SCHEMES:
                strings = list(SPECIAL)
                assert_side(PreparedSide(strings, scheme).side(), strings, scheme)

    @settings(max_examples=60, deadline=None)
    @given(batch=batches)
    def test_side_equals_references(self, name, batch):
        with provider(name):
            for scheme in SCHEMES:
                assert_side(PreparedSide(batch, scheme).side(), batch, scheme)

    @settings(max_examples=40, deadline=None)
    @given(first=batches, second=batches)
    def test_append_wider_rows(self, name, first, second):
        widest = max(map(len, first), default=0)
        second = second + ["Q7" * (widest // 2 + 3)]  # wider than any held
        with provider(name):
            for scheme in SCHEMES:
                strings = list(first)
                prepared = PreparedSide(strings, scheme)
                prepared.side()
                strings.extend(second)
                assert_side(prepared.side(), strings, scheme)

    def test_empty_batch(self, name):
        with provider(name):
            for scheme in SCHEMES:
                codes, lengths, sigs = encode_side([], scheme)
                assert codes.shape == (0, 0) and lengths.shape == (0,)
                assert sigs.shape == (0, (scheme.width + 1) // 2)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["AB", "C\x00D", "ł"], "string 1 contains NUL"),
            (["AB", "CłD", "E\x00"], "string 1 contains non-latin-1"),
            (["\x00"], "string 0 contains NUL"),
        ],
    )
    def test_rejections_match_encode_raw(self, name, bad, message):
        with pytest.raises(ValueError) as want:
            encode_raw(bad)
        with provider(name):
            with pytest.raises(ValueError, match=message) as got:
                encode_side(bad, SCHEMES[1])
        assert str(got.value) == str(want.value)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.lists(
            st.text(CHARS + "\x00ł☃\U0001f600\ud800", max_size=10),
            max_size=10,
        )
    )
    def test_signatures_for_scheme_lossy(self, name, batch):
        """Characters outside latin-1 and NUL are neither letter nor
        digit, as in the scalar functions."""
        with provider(name):
            for scheme in SCHEMES:
                got = signatures_for_scheme(batch, scheme)
                assert got.dtype == np.uint32
                assert got.shape == (len(batch), scheme.width)
                assert [tuple(map(int, row)) for row in got] == [
                    scheme.signature(s) for s in batch
                ]


class TestCompaction:
    NAMES = [f"{a}{b}{c}" for a in "SMJ" for b in "IYO" for c in "THNE"]
    NAMES += ["PAUL" * 30, "ZZ", ""]

    def compacted(self, *, append=()):
        idx = MutableIndex(self.NAMES, compact_ratio=None)
        idx.prepared.side()
        for s in append:  # appended after the encode
            idx.add(s)
        for sid in range(1, len(self.NAMES), 3):
            idx.remove(sid)
        idx.remove(len(self.NAMES) - 3)  # the widest row goes
        idx.compact()
        return idx, [s for _, s in idx.items()]

    def test_held_arrays_equal_a_fresh_side(self):
        idx, live = self.compacted()
        held = idx.prepared.encoded
        fresh = PreparedSide(list(live), idx.scheme).side()
        assert held is not None and held.n == len(live)
        for attr in ("codes", "lengths", "sigs"):
            np.testing.assert_array_equal(
                getattr(held, attr), getattr(fresh, attr)
            )

    def test_rows_appended_since_the_encode_are_encoded_after(self):
        idx, live = self.compacted(append=["A-VERY-LONG-UNENCODED-NAME" * 3])
        assert idx.prepared.encoded.n == len(live) - 1
        side = idx.prepared.side()
        fresh = PreparedSide(list(live), idx.scheme).side()
        for attr in ("codes", "lengths", "sigs"):
            np.testing.assert_array_equal(
                getattr(side, attr), getattr(fresh, attr)
            )
