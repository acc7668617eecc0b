"""Unit tests for the MatchStrings join driver (Algorithm 7)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.join import _scalar_join
from repro.core.matchers import build_matcher
from repro.distance.damerau import damerau_levenshtein

pool = st.lists(
    st.text(alphabet="0123456789", min_size=3, max_size=9), min_size=1, max_size=6
)


class TestMatchStrings:
    def test_counts_and_diagonal(self):
        m = build_matcher("FPDL", k=1, scheme="numeric")
        r = _scalar_join(
            ["123456789", "555555555"], ["123456780", "111111111"], m
        )
        assert r.match_count == 1
        assert r.diagonal_matches == 1
        assert r.off_diagonal_matches == 0
        assert r.pairs_compared == 4

    def test_record_matches(self):
        m = build_matcher("DL", k=1)
        r = _scalar_join(["AB"], ["AB", "AC"], m, record_matches=True)
        assert r.matches == [(0, 0), (0, 1)]
        assert r.match_count == 2

    def test_matches_not_recorded_by_default(self):
        m = build_matcher("DL", k=1)
        r = _scalar_join(["AB"], ["AB"], m)
        assert r.matches == []
        assert r.match_count == 1

    def test_explicit_pairs_subset(self):
        m = build_matcher("DL", k=0)
        r = _scalar_join(["A", "B"], ["A", "B"], m, pairs=[(0, 0), (0, 1)])
        assert r.match_count == 1
        assert r.diagonal_matches == 1

    def test_verified_pairs_propagated(self):
        m = build_matcher("FDL", k=1, scheme="numeric")
        r = _scalar_join(["123456789"], ["123456780"], m)
        assert r.verified_pairs == 1

    def test_empty_datasets(self):
        m = build_matcher("DL", k=1)
        r = _scalar_join([], [], m)
        assert r.match_count == 0 and r.pairs_compared == 0

    def test_asymmetric_sizes(self):
        m = build_matcher("DL", k=0)
        r = _scalar_join(["X"], ["X", "Y", "Z"], m)
        assert r.pairs_compared == 3
        assert r.match_count == 1

    @given(pool, pool, st.integers(1, 2))
    def test_fpdl_join_equals_dl_join(self, left, right, k):
        # Algorithm 7's guarantee: the filtered join returns exactly the
        # DL match set.
        r_dl = _scalar_join(
            left, right, build_matcher("DL", k=k), record_matches=True
        )
        r_f = _scalar_join(
            left,
            right,
            build_matcher("FPDL", k=k, scheme="numeric"),
            record_matches=True,
        )
        assert r_dl.matches == r_f.matches

    @given(pool, pool)
    def test_match_count_consistency(self, left, right):
        m = build_matcher("DL", k=1)
        r = _scalar_join(left, right, m, record_matches=True)
        assert len(r.matches) == r.match_count
        if list(left) == list(right):
            # Self-join semantics: the diagonal counts value-identity
            # matches, not positional ones.
            assert r.diagonal_matches == sum(
                1 for i, j in r.matches if left[i] == right[j]
            )
        else:
            assert r.diagonal_matches == sum(1 for i, j in r.matches if i == j)
        expected = sum(
            1
            for s in left
            for t in right
            if damerau_levenshtein(s, t) <= 1
        )
        assert r.match_count == expected
