"""Equivalence tests: VectorEngine vs the scalar join, all 15 methods."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join import _scalar_join
from repro.core.matchers import METHOD_NAMES, build_matcher
from repro.data.datasets import dataset_for_family
from repro.parallel.chunked import VectorEngine

small_pool = st.lists(
    st.text(alphabet="ABC123", min_size=1, max_size=8), min_size=1, max_size=7
)


@pytest.fixture(scope="module")
def ln_pair():
    return dataset_for_family("LN", 60, seed=5)


class TestChunkedJoinEquivalence:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_matches_scalar_on_names(self, ln_pair, method):
        join = VectorEngine(ln_pair.clean, ln_pair.error, k=1, theta=0.8,
                           scheme_kind="alpha")
        vec = join.run(method)
        matcher = build_matcher(method, k=1, theta=0.8, scheme="alpha")
        ref = _scalar_join(ln_pair.clean, ln_pair.error, matcher)
        assert (vec.match_count, vec.diagonal_matches) == (
            ref.match_count,
            ref.diagonal_matches,
        )

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFPDL", "Ham"])
    def test_k2(self, ln_pair, method):
        join = VectorEngine(ln_pair.clean, ln_pair.error, k=2, scheme_kind="alpha")
        vec = join.run(method)
        matcher = build_matcher(method, k=2, scheme="alpha")
        ref = _scalar_join(ln_pair.clean, ln_pair.error, matcher)
        assert (vec.match_count, vec.diagonal_matches) == (
            ref.match_count,
            ref.diagonal_matches,
        )

    @settings(max_examples=15)
    @given(small_pool, small_pool, st.integers(1, 2))
    def test_random_data_fpdl(self, left, right, k):
        join = VectorEngine(left, right, k=k, scheme_kind="alnum", chunk=16)
        vec = join.run("FPDL")
        matcher = build_matcher("FPDL", k=k, scheme="alnum")
        ref = _scalar_join(left, right, matcher)
        assert (vec.match_count, vec.diagonal_matches) == (
            ref.match_count,
            ref.diagonal_matches,
        )

    @settings(max_examples=15)
    @given(small_pool, small_pool)
    def test_random_data_all_full_product_methods(self, left, right):
        join = VectorEngine(left, right, k=1, theta=0.8, scheme_kind="alnum", chunk=8)
        for method in ("DL", "PDL", "Jaro", "Wink", "Ham", "SDX"):
            vec = join.run(method)
            matcher = build_matcher(method, k=1, theta=0.8, scheme="alnum")
            ref = _scalar_join(left, right, matcher)
            assert (vec.match_count, vec.diagonal_matches) == (
                ref.match_count,
                ref.diagonal_matches,
            ), method


class TestChunkedJoinBehaviour:
    def test_record_matches(self):
        join = VectorEngine(["AB", "XY"], ["AB", "AC"], k=1, record_matches=True)
        res = join.run("DL")
        assert set(res.matches) == {(0, 0), (0, 1)}

    def test_tiny_chunks_agree_with_big(self, ln_pair):
        small = VectorEngine(ln_pair.clean, ln_pair.error, k=1, chunk=7).run("FDL")
        big = VectorEngine(ln_pair.clean, ln_pair.error, k=1, chunk=1 << 18).run("FDL")
        assert small.match_count == big.match_count

    def test_unknown_method(self):
        join = VectorEngine(["A"], ["A"], k=1)
        with pytest.raises(ValueError):
            join.run("BOGUS")

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            VectorEngine(["A"], ["A"], k=-1)

    def test_verified_pairs_reported(self, ln_pair):
        res = VectorEngine(ln_pair.clean, ln_pair.error, k=1).run("FPDL")
        assert 0 < res.verified_pairs <= res.pairs_compared

    def test_filter_only_has_no_verified(self, ln_pair):
        res = VectorEngine(ln_pair.clean, ln_pair.error, k=1).run("FBF")
        assert res.verified_pairs == 0

    def test_scheme_autodetection(self):
        join = VectorEngine(["123456789"], ["123456780"], k=1)
        assert join.scheme.name == "numeric"
        assert join.run("FPDL").match_count == 1

    def test_fbf_pass_counts_monotone_in_k(self, ln_pair):
        r1 = VectorEngine(ln_pair.clean, ln_pair.error, k=1).run("FBF")
        r2 = VectorEngine(ln_pair.clean, ln_pair.error, k=2).run("FBF")
        assert r2.match_count >= r1.match_count

    def test_off_diagonal_property(self, ln_pair):
        res = VectorEngine(ln_pair.clean, ln_pair.error, k=1).run("LF")
        assert res.off_diagonal_matches == res.match_count - res.diagonal_matches
