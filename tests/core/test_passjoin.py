"""PASS-JOIN partition index: layout, completeness, OSA boundary swaps.

The load-bearing property is *completeness for OSA*: for every pair
within edit distance ``k`` (restricted Damerau-Levenshtein — the repo's
``dl``/``pdl`` metric), the probe must emit the pair.  The classic
Levenshtein partition probe is incomplete under transpositions that
straddle a segment boundary, and the probe takes only the
multi-match-aware windows, so the exhaustive small-universe sweep and
the edit-script suite here are the regression net for both the window
bounds and the right-boundary swap.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import native
from repro.core.passjoin import (
    PassJoinIndex,
    SegmentIndex,
    _encode_codes,
    _hash_rows,
    dedup_sorted,
    probe_window,
    segment_layout,
)
from repro.distance.bitparallel import osa_bitparallel_batch
from repro.distance.codec import encode_raw
from repro.distance.damerau import damerau_levenshtein


def universe(alphabet, max_len):
    return [
        "".join(t)
        for n in range(max_len + 1)
        for t in itertools.product(alphabet, repeat=n)
    ]


class TestSegmentLayout:
    def test_even_partition_covers_string(self):
        for length in range(0, 25):
            for parts in range(1, 6):
                layout = segment_layout(length, parts)
                assert len(layout) == parts
                pos = 0
                for start, seg_len in layout:
                    assert start == pos
                    pos += seg_len
                assert pos == length

    def test_lengths_differ_by_at_most_one_and_long_last(self):
        layout = segment_layout(10, 3)
        assert layout == [(0, 3), (3, 3), (6, 4)]
        sizes = [seg_len for _, seg_len in segment_layout(11, 4)]
        assert max(sizes) - min(sizes) == 1
        assert sizes == sorted(sizes)  # remainder lands on the tail

    def test_zero_length_segments_when_short(self):
        layout = segment_layout(1, 3)
        assert [seg_len for _, seg_len in layout] == [0, 0, 1]
        assert segment_layout(0, 2) == [(0, 0), (0, 0)]


class TestDedupSorted:
    def test_matches_numpy_unique(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 50, size=500)
        np.testing.assert_array_equal(
            dedup_sorted(values), np.unique(values)
        )

    def test_empty(self):
        out = dedup_sorted(np.empty(0, dtype=np.int64))
        assert len(out) == 0


#: Exhaustive universes: every string over the alphabet up to the length.
UNIVERSES = [("ab", 8), ("abc", 6), ("abcd", 5)]


@functools.lru_cache(maxsize=None)
def universe_distances(alphabet, max_len):
    """The universe and its all-pairs OSA distance matrix."""
    strings = universe(alphabet, max_len)
    codes, lens = encode_raw(strings)
    return strings, np.stack(
        [osa_bitparallel_batch(s, codes, lens) for s in strings]
    )


def compiled_candidates(index, queries):
    """The compiled run's candidates (no filter, no verifier) as
    ``(query, id)`` pairs, or ``None`` without a provider or when the
    queries are not latin-1 without NUL (its ``uint8`` codes)."""
    if not native.available():
        return None
    try:
        codes, lens = encode_raw(queries)
    except ValueError:
        return None
    ii, jj, _ = native.load_kernels().passjoin_run(index, codes, lens)
    return set(zip(ii.tolist(), jj.tolist()))


class TestCompleteness:
    """Exhaustive sweep: every OSA <= k pair is emitted."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_dense_universe(self, k):
        for alphabet, max_len in UNIVERSES:
            strings, dist = universe_distances(alphabet, max_len)
            index = PassJoinIndex(strings, k=k)
            emitted = np.zeros(dist.shape, dtype=bool)
            for qs, ids in index.candidate_blocks(strings):
                emitted[qs, ids] = True
            missed = [
                (strings[qi], strings[sid])
                for qi, sid in np.argwhere((dist <= k) & ~emitted).tolist()
            ]
            assert not missed, f"missed {missed[:5]} at k={k}"
            if native.available():
                # The compiled run emits the very same pairs, each once.
                codes, lens = encode_raw(strings)
                ks = native.load_kernels()
                ii, jj, _ = ks.passjoin_run(index, codes, lens)
                compiled = np.zeros_like(emitted)
                compiled[ii, jj] = True
                assert len(ii) == emitted.sum()
                np.testing.assert_array_equal(compiled, emitted)

    def test_boundary_transposition_regression(self):
        # osa("AB", "BA") == 1 but the transposition straddles the
        # "A"|"B" segment boundary — the classic probe misses it.
        index = PassJoinIndex(["AB"], k=1)
        assert 0 in index.candidates("BA")

    @pytest.mark.parametrize("k", [1, 2])
    def test_unicode(self, k):
        strings = ["", "a", "é漢字", "漢é字", "naïve", "naive", "nàive", "AB"]
        index = PassJoinIndex(strings, k=k)
        probes = strings + ["BAX", "éAB", "n\x00ive"]
        for q in probes:
            got = set(index.candidates(q).tolist())
            for sid, s in enumerate(strings):
                if damerau_levenshtein(q, s) <= k:
                    assert sid in got, f"missed {q!r} ~ {s!r} at k={k}"

    def test_empty_strings_reachable(self):
        index = PassJoinIndex(["", "a", "ab"], k=1)
        assert set(index.candidates("").tolist()) >= {0, 1}
        assert 0 in index.candidates("x")

    def test_k0_is_exact_lookup(self):
        strings = ["abc", "abd", "abc", ""]
        index = PassJoinIndex(strings, k=0)
        assert set(index.candidates("abc").tolist()) == {0, 2}
        assert set(index.candidates("").tolist()) == {3}
        assert len(index.candidates("zzz")) == 0


class TestProbeWindows:
    """Multi-match-aware selection: the windows Li et al. prove enough."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_window_count_is_the_closed_form(self, k):
        # Unclipped, per (query length, indexed length): the segment
        # starts cancel, so the count depends on k and delta alone.
        for length in (k + 1, 2 * k + 3, 20):
            layout = segment_layout(length, k + 1)
            for delta in range(-k, k + 1):
                count = 0
                for seg, (p_i, _) in enumerate(layout):
                    lo, hi = probe_window(p_i, seg, k, delta)
                    count += max(0, hi - lo + 1)
                assert count == (k * k - delta * delta) // 2 + k + 1


#: Latin-1 text the compiled run can probe too, and full text with NUL
#: and code points past latin-1, which only the NumPy probe takes.
LATIN = "abcé"
FULL = LATIN + "\x00Ł漢\U0001F600"
alphabets = st.sampled_from([LATIN, FULL])


def assert_reached(indexed, query, k):
    """The index over ``indexed`` emits it for ``query`` through every
    available probe whenever their OSA distance is at most ``k``."""
    if damerau_levenshtein(query, indexed) > k:
        return
    index = PassJoinIndex([indexed], k=k)
    assert 0 in index.candidates(query).tolist(), (
        f"missed {query!r} ~ {indexed!r} at k={k}"
    )
    compiled = compiled_candidates(index, [query])
    assert compiled is None or (0, 0) in compiled, (
        f"compiled run missed {query!r} ~ {indexed!r} at k={k}"
    )


def apply_edit(s, op, pos, ch):
    """One edit at ``pos`` (taken modulo the valid positions)."""
    if op == "ins":
        pos %= len(s) + 1
        return s[:pos] + ch + s[pos:]
    if not s:
        return s
    pos %= len(s)
    if op == "del":
        return s[:pos] + s[pos + 1 :]
    if op == "sub":
        return s[:pos] + ch + s[pos + 1 :]
    if pos + 1 == len(s):
        return s
    return s[:pos] + s[pos + 1] + s[pos] + s[pos + 2 :]


@st.composite
def edited_pairs(draw, short=False):
    """``(indexed, query, k)``: a query made from the indexed string by
    at most ``k`` edits; a ``short`` indexed string has at most ``k``
    characters, so it has zero-length segments."""
    alphabet = draw(alphabets)
    k = draw(st.integers(1, 3))
    indexed = draw(st.text(alphabet, max_size=k if short else 12))
    query = indexed
    for _ in range(draw(st.integers(0, k))):
        query = apply_edit(
            query,
            draw(st.sampled_from(["ins", "del", "sub", "swap"])),
            draw(st.integers(0, 64)),
            draw(st.sampled_from(alphabet)),
        )
    return indexed, query, k


class TestEditScripts:
    """Both probes against the scalar OSA reference (``dl``) on queries
    edited from the indexed string, in both roles."""

    @given(edited_pairs())
    def test_edit_scripts(self, case):
        indexed, query, k = case
        assert_reached(indexed, query, k)
        assert_reached(query, indexed, k)

    @given(alphabets.flatmap(lambda a: st.text(a, min_size=2, max_size=14)),
           st.integers(1, 3), st.data())
    def test_transpositions_at_segment_boundaries(self, indexed, k, data):
        # A swap across each chosen boundary of the indexed string's
        # k + 1 segments, every boundary alone and several at once.
        boundaries = [
            start for start, _ in segment_layout(len(indexed), k + 1)[1:]
            if 0 < start < len(indexed)
        ]
        chosen = data.draw(st.sets(st.sampled_from(boundaries)))
        chars, last = list(indexed), -2
        for b in sorted(chosen):
            if b - 1 > last:  # non-overlapping: OSA edits a char once
                chars[b - 1], chars[b] = chars[b], chars[b - 1]
                last = b
        query = "".join(chars)
        assert_reached(indexed, query, k)
        assert_reached(query, indexed, k)
        for b in boundaries:
            swapped = indexed[b] + indexed[b - 1]
            alone = indexed[: b - 1] + swapped + indexed[b + 1 :]
            assert_reached(indexed, alone, k)

    @given(st.data())
    def test_length_difference_of_k(self, data):
        # delta = +k (the query has k more characters) and -k.
        alphabet = data.draw(alphabets)
        k = data.draw(st.integers(1, 3))
        indexed = data.draw(st.text(alphabet, max_size=12))
        longer = indexed
        for _ in range(k):
            longer = apply_edit(
                longer, "ins", data.draw(st.integers(0, 64)),
                data.draw(st.sampled_from(alphabet)),
            )
        assert_reached(indexed, longer, k)
        assert_reached(longer, indexed, k)

    @given(edited_pairs(short=True))
    def test_strings_shorter_than_k_plus_one(self, case):
        indexed, query, k = case
        assert_reached(indexed, query, k)
        assert_reached(query, indexed, k)


def _pairs(index, probes):
    return sorted(
        (int(qi), int(sid))
        for qs, ids in index.candidate_blocks(probes)
        for qi, sid in zip(qs, ids)
    )


class TestExtend:
    """An index extended row by row equals a fresh build."""

    BASE = ["SMITH", "SMYTH", "JONES"]
    ADDED = {
        "wider": ["SMITHERSON", "ABCDEFGHIJKLMNOP"],
        "new-length": ["LEE", "BROWNE", "LI"],
        "same-length": ["SMITT", "JONSE", "SMITH"],
        "empty": ["", "AB", ""],
    }

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(ADDED))
    def test_row_by_row_equals_fresh_build(self, k, case):
        added = self.ADDED[case]
        grown = PassJoinIndex(self.BASE, k=k)
        for s in added:
            grown.extend([s])
        fresh = PassJoinIndex(self.BASE + added, k=k)
        assert grown.strings == fresh.strings
        # The same flat arrays, down to the order of equal hashes: ties
        # keep id order either way.
        for held, built in zip(grown.flat(), fresh.flat()):
            assert held.dtype == built.dtype
            np.testing.assert_array_equal(held, built)
        probes = self.BASE + added + ["SMIHT", "BA", "X", ""]
        assert _pairs(grown, probes) == _pairs(fresh, probes)

    def test_batch_extend_from_empty(self):
        strings = universe("ab", 3)
        grown = PassJoinIndex([], k=1)
        grown.extend(strings[:5])
        grown.extend(strings[5:])
        fresh = PassJoinIndex(strings, k=1)
        assert len(grown) == len(fresh)
        assert _pairs(grown, strings) == _pairs(fresh, strings)


#: Full Unicode: astral characters, lone surrogates and NUL included.
any_char = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
    st.sampled_from(["\x00", "\U0001F600", "\ud83d", "\ude00"]),
)
any_text = st.one_of(
    st.text(any_char, max_size=4),
    st.sampled_from([0, 1, 63, 64, 65, 300]).flatmap(
        lambda n: st.text(any_char, min_size=n, max_size=n)
    ),
)


def reference_encode_codes(strings):
    """One string at a time: the definition the bulk encoder must match."""
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    codes = np.zeros((len(strings), int(lens.max(initial=0))), dtype=np.uint32)
    for i, s in enumerate(strings):
        if s:
            codes[i, : len(s)] = np.frombuffer(
                s.encode("utf-32-le", "surrogatepass"), dtype="<u4"
            )
    return codes, lens


class TestFromArrays:
    """An index rebuilt from its flat arrays probes and extends like the
    built one; :meth:`SegmentIndex.check` refuses arrays a probe would
    read past."""

    NAMES = ["SMITH", "SMYTH", "JONES", "", "LI", "BROWNE"]

    def _adopted(self, k=1):
        built = PassJoinIndex(self.NAMES, k=k)
        return built, PassJoinIndex.from_arrays(
            self.NAMES, k, *(a.copy() for a in built.flat())
        )

    def test_adopted_index_equals_built(self):
        built, adopted = self._adopted()
        adopted.check(len(self.NAMES))
        probes = self.NAMES + ["SMIHT", "JONSE", "L"]
        assert _pairs(adopted, probes) == _pairs(built, probes)
        built.extend(["SMITT"])
        adopted.extend(["SMITT"])
        for held, want in zip(adopted.flat(), built.flat()):
            np.testing.assert_array_equal(held, want)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda ix: ix.ids.__setitem__(0, 6),
            lambda ix: ix.ids.__setitem__(0, -1),
            lambda ix: ix.table.__setitem__((-1, 3), len(ix.hashes) + 1),
            lambda ix: ix.table.__setitem__((0, 2), -1),
            lambda ix: ix.table.__setitem__((0, 1), 2),
            lambda ix: ix.table.__setitem__((0, 0), -1),
            lambda ix: setattr(ix, "table", ix.table[::-1].copy()),
            lambda ix: setattr(ix, "ids", ix.ids[:-1].copy()),
        ],
        ids=["id-past-n", "negative-id", "hi-past-hashes", "negative-lo",
             "segment-past-k", "negative-length", "unsorted", "short-ids"],
    )
    def test_check_rejects_unsafe_arrays(self, edit):
        _, adopted = self._adopted()
        edit(adopted)
        with pytest.raises(ValueError, match="invalid PASS-JOIN"):
            adopted.check(len(self.NAMES))


class TestEncodeCodes:
    @given(st.lists(any_text, max_size=8))
    def test_bulk_matches_per_string_reference(self, strings):
        codes, lens = _encode_codes(strings)
        want_codes, want_lens = reference_encode_codes(strings)
        assert codes.dtype == np.uint32 and lens.dtype == np.int64
        np.testing.assert_array_equal(lens, want_lens)
        assert codes.shape == want_codes.shape
        np.testing.assert_array_equal(codes, want_codes)

    def test_surrogate_halves_split_across_rows_stay_apart(self):
        # Joining the batch puts "\ud83d" next to "\ude00"; each row must
        # still get its own lone surrogate, not a combined pair.
        codes, lens = _encode_codes(["a\ud83d", "\ude00b", ""])
        assert lens.tolist() == [2, 2, 0]
        assert codes.tolist() == [[97, 0xD83D], [0xDE00, 98], [0, 0]]

    @given(st.lists(st.text(any_char, max_size=5), min_size=1, max_size=6))
    def test_unicode_index_is_complete(self, strings):
        index = PassJoinIndex(strings, k=1)
        found = set(_pairs(index, strings))
        for qi, q in enumerate(strings):
            for sid, r in enumerate(strings):
                if damerau_levenshtein(q, r) <= 1:
                    assert (qi, sid) in found


class TestBlocks:
    def test_blocks_are_deduplicated(self):
        strings = universe("ab", 3)
        index = PassJoinIndex(strings, k=2)
        seen = set()
        for qs, ids in index.candidate_blocks(strings):
            for pair in zip(qs.tolist(), ids.tolist()):
                assert pair not in seen, f"duplicate candidate {pair}"
                seen.add(pair)

    def test_max_pairs_caps_blocks(self):
        strings = universe("ab", 3)
        index = PassJoinIndex(strings, k=2)
        blocks = list(index.candidate_blocks(strings, max_pairs=64))
        assert len(blocks) > 1
        assert all(len(qs) <= 64 for qs, _ in blocks)
        capped = {
            (int(qi), int(sid))
            for qs, ids in blocks
            for qi, sid in zip(qs, ids)
        }
        full = {
            (int(qi), int(sid))
            for qs, ids in index.candidate_blocks(strings)
            for qi, sid in zip(qs, ids)
        }
        assert capped == full

    def test_empty_sides(self):
        assert list(PassJoinIndex([], k=1).candidate_blocks(["a"])) == []
        assert list(PassJoinIndex(["a"], k=1).candidate_blocks([])) == []

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            PassJoinIndex(["a"], k=-1)


#: What the packed join codecs accept: latin-1 without NUL.
latin1_text = st.one_of(
    st.text(st.characters(min_codepoint=1, max_codepoint=255), max_size=6),
    st.sampled_from([0, 1, 63, 64, 65]).flatmap(
        lambda n: st.text(alphabet="aéÿ", min_size=n, max_size=n)
    ),
)


def _block_list(blocks):
    return [(qs.tolist(), ids.tolist()) for qs, ids in blocks]


class TestProbeFromCodes:
    """Probing from already-encoded codes — the pool workers' path."""

    @given(
        st.lists(latin1_text, max_size=8),
        st.lists(latin1_text, max_size=8),
        st.sampled_from([0, 1, 2]),
    )
    def test_latin1_codes_probe_like_strings(self, indexed, queries, k):
        # encode_raw's uint8 latin-1 codes hash like UTF-32 code points,
        # so the probe yields exactly the blocks the string path yields.
        index = PassJoinIndex(indexed, k=k)
        codes, lens = encode_raw(queries)
        assert _block_list(index.probe_codes(codes, lens)) == _block_list(
            index.candidate_blocks(queries)
        )

    @given(
        st.lists(latin1_text, max_size=8),
        st.lists(latin1_text, max_size=8),
        st.sampled_from([0, 1, 2]),
    )
    def test_flat_round_trip_probes_alike(self, indexed, queries, k):
        index = PassJoinIndex(indexed, k=k)
        view = SegmentIndex.from_flat(k, len(index), *index.flat())
        assert len(view) == len(index)
        codes, lens = encode_raw(queries)
        assert _block_list(view.probe_codes(codes, lens)) == _block_list(
            index.probe_codes(codes, lens)
        )

    def test_flat_layout(self):
        index = PassJoinIndex(["ab", "abc", "b", "abd"], k=1)
        hashes, ids, table = index.flat()
        assert table.tolist() == [
            [1, 0, 0, 1], [1, 1, 1, 2],
            [2, 0, 2, 3], [2, 1, 3, 4],
            [3, 0, 4, 6], [3, 1, 6, 8],
        ]
        strings = index.strings
        codes, _ = _encode_codes(strings)
        for length, seg, lo, hi in table.tolist():
            start, seg_len = segment_layout(length, 2)[seg]
            rows = [i for i, s in enumerate(strings) if len(s) == length]
            want = _hash_rows(codes[rows, start : start + seg_len])
            order = np.argsort(want, kind="stable")
            np.testing.assert_array_equal(hashes[lo:hi], want[order])
            np.testing.assert_array_equal(ids[lo:hi], np.array(rows)[order])
        assert all(a is b for a, b in zip(index.flat(), index.flat()))
        empty = PassJoinIndex([], k=1).flat()
        assert [len(a) for a in empty] == [0, 0, 0]
        assert empty[2].shape == (0, 4)


def _pairs_of(blocks):
    """A probe's blocks as one ``(queries, ids)`` pair of lists."""
    pairs = [p for qs, ids in _block_list(blocks) for p in zip(qs, ids)]
    return [q for q, _ in pairs], [j for _, j in pairs]


@pytest.mark.skipif(
    not native.available(), reason="no compiled kernel provider in this env"
)
class TestCompiledProbe:
    """The compiled run with an empty chain and no verifier
    (``KernelSet.passjoin_run``) against the NumPy reference: the same
    candidates in the same order, over ``encode_raw``'s latin-1 codes."""

    @given(
        st.lists(latin1_text, max_size=10),
        st.lists(latin1_text, max_size=10),
        st.sampled_from([0, 1, 2, 3]),
    )
    def test_matches_numpy_blocks(self, indexed, queries, k):
        index = PassJoinIndex(indexed, k=k)
        codes, lens = encode_raw(queries)
        ii, jj, tally = native.load_kernels().passjoin_run(index, codes, lens)
        want = _pairs_of(index.probe_codes(codes, lens))
        assert (ii.tolist(), jj.tolist()) == want
        assert tally["compared"] == tally["emitted"] == len(want[0])

    def test_long_latin1_strings(self):
        # 160 chars: the banded verifier's range, on both sides of a pair.
        base = "e\xe9\xff\x01" * 40
        indexed = [base, base[1:], base[:80] + "x" + base[81:], "", "\x01"]
        queries = indexed + [base[::-1], base[:2] + base[3:], "e\xe9"]
        codes, lens = encode_raw(queries)
        right = encode_raw(indexed)
        ks = native.load_kernels()
        for k in (0, 1, 2, 3):
            index = PassJoinIndex(indexed, k=k)
            want = _pairs_of(index.probe_codes(codes, lens))
            assert want[0], "the fixture should produce candidates"
            ii, jj, _ = ks.passjoin_run(index, codes, lens)
            assert (ii.tolist(), jj.tolist()) == want
            ii, jj, _ = ks.passjoin_run(
                index, codes, lens, right=right, verifier="dl"
            )
            assert list(zip(ii.tolist(), jj.tolist())) == [
                (q, j) for q, j in zip(*want)
                if damerau_levenshtein(queries[q], indexed[j]) <= k
            ]
