"""Option-surface tests for VectorEngine (variants, schemes, levels)."""

import pytest

from repro.core.join import _scalar_join
from repro.core.matchers import build_matcher
from repro.core.plan import JoinPlanner
from repro.core.signatures import scheme_for
from repro.core.vectorized import signatures_for_scheme
from repro.data.datasets import dataset_for_family
from repro.parallel.chunked import VectorEngine
from repro.parallel.kernels import _group_by_value
from repro.parallel.partition import iter_pair_blocks
from repro.parallel.prepared import PreparedSide

import numpy as np


@pytest.fixture(scope="module")
def ad_pair():
    return dataset_for_family("Ad", 50, seed=31)


class TestSchemeOptions:
    def test_alnum_scheme_on_addresses(self, ad_pair):
        join = VectorEngine(ad_pair.clean, ad_pair.error, k=1, scheme_kind="alnum")
        assert join.scheme.name == "alnum2"
        res = join.run("FPDL")
        matcher = build_matcher("FPDL", k=1, scheme="alnum")
        ref = _scalar_join(ad_pair.clean, ad_pair.error, matcher)
        assert (res.match_count, res.diagonal_matches) == (
            ref.match_count,
            ref.diagonal_matches,
        )

    def test_levels_parameter(self, ad_pair):
        j1 = VectorEngine(ad_pair.clean, ad_pair.error, k=1, scheme_kind="alnum", levels=1)
        j3 = VectorEngine(ad_pair.clean, ad_pair.error, k=1, scheme_kind="alnum", levels=3)
        # 1 alpha word + 1 numeric in one packed word; 3 + 1 in two
        assert j1.sigs_l.shape[1] == 1
        assert j3.sigs_l.shape[1] == 2
        # Deeper signatures pass fewer or equal candidates.
        assert j3.run("FBF").match_count <= j1.run("FBF").match_count
        # Verified results identical regardless.
        assert j1.run("FPDL").match_count == j3.run("FPDL").match_count

    def test_jaro_variant_standard(self):
        left = ["SMITH"]
        right = ["SMIHT"]
        paper = VectorEngine(left, right, theta=0.95, variant="paper")
        standard = VectorEngine(left, right, theta=0.95, variant="standard")
        # 0.967 (paper) passes theta=0.95; 0.933 (standard) does not.
        assert paper.run("Jaro").match_count == 1
        assert standard.run("Jaro").match_count == 0

    def test_sdx_codes_cached(self, ad_pair):
        join = VectorEngine(ad_pair.clean, ad_pair.error, k=1)
        join.run("SDX")
        first = join._side_l.sdx
        join.run("SDX")
        assert join._side_l.sdx is first  # computed once


class TestChunkSizing:
    def test_filter_chunk_never_below_dp_chunk(self):
        join = VectorEngine(["AB"], ["AB"], chunk=1 << 18, filter_chunk=1 << 4)
        assert join.filter_chunk == 1 << 18

    def test_filter_chunk_does_not_change_results(self, ad_pair):
        small = VectorEngine(
            ad_pair.clean, ad_pair.error, k=1, filter_chunk=1 << 6
        )
        big = VectorEngine(
            ad_pair.clean, ad_pair.error, k=1, filter_chunk=1 << 20
        )
        for method in ("FBF", "LFPDL", "Ham", "SDX"):
            a, b = small.run(method), big.run(method)
            assert (a.match_count, a.diagonal_matches) == (
                b.match_count,
                b.diagonal_matches,
            ), method


class TestLengthBucketing:
    def test_group_by_value(self):
        groups = _group_by_value(np.array([3, 5, 3, 7, 5, 3]))
        assert set(groups) == {3, 5, 7}
        assert sorted(groups[3].tolist()) == [0, 2, 5]
        assert sorted(groups[5].tolist()) == [1, 4]

    def test_group_by_value_empty(self):
        assert _group_by_value(np.array([], dtype=np.int64)) == {}

    def test_length_pairs_cover_exactly_passing_pairs(self, ad_pair):
        join = VectorEngine(ad_pair.clean, ad_pair.error, k=1)
        ii, jj = join._length_pairs()
        got = set(zip(ii.tolist(), jj.tolist()))
        want = {
            (i, j)
            for i in range(50)
            for j in range(50)
            if abs(len(ad_pair.clean[i]) - len(ad_pair.error[j])) <= 1
        }
        assert got == want

    def test_record_matches_on_filtered_method(self, ad_pair):
        join = VectorEngine(
            ad_pair.clean, ad_pair.error, k=1, record_matches=True
        )
        res = join.run("LFPDL")
        assert len(res.matches) == res.match_count
        assert all(
            abs(len(ad_pair.clean[i]) - len(ad_pair.error[j])) <= 1
            for i, j in res.matches
        )

    def test_k0_bucketing(self, ad_pair):
        join = VectorEngine(ad_pair.clean, ad_pair.error, k=0)
        res = join.run("LFPDL")
        # At k=0 only identical strings match; error injection means
        # nothing on the diagonal survives.
        matcher = build_matcher("LFPDL", k=0, scheme="alnum")
        ref = _scalar_join(ad_pair.clean, ad_pair.error, matcher)
        assert res.match_count == ref.match_count


class TestShareRight:
    """Engines over one prepared right side share its arrays."""

    def test_reuses_right_arrays_and_scheme(self):
        right = PreparedSide(["123456789", "555443333", "999887777"], "numeric")
        base = VectorEngine([], right, k=1)
        eng = VectorEngine(["123456780"], right, k=1)
        assert eng.sigs_r is base.sigs_r
        assert eng.codes_r is base.codes_r
        assert eng.scheme is base.scheme is right.scheme
        result = eng.run("FPDL")
        assert result.match_count == 1

    def test_share_right_matches_fresh_engine(self):
        right = ["smith", "smyth", "jones", "jonse"]
        queries = ["smith", "jnoes"]
        shared = VectorEngine(queries, PreparedSide(right, "alpha"), k=1)
        fresh = VectorEngine(queries, right, k=1, scheme_kind="alpha")
        for method in ("FPDL", "LFPDL", "DL"):
            assert (
                shared.run(method).match_count
                == fresh.run(method).match_count
            )

    def test_planners_share_prepared_arrays(self):
        right = PreparedSide(["smith", "smyth", "jones", "jonse"], "alpha")
        a = JoinPlanner(["smith"], right, k=1, collapse="off")
        b = JoinPlanner(["jnoes", "smyth"], right, k=1, collapse="off")
        assert a.right is b.right is right.strings
        ea, eb = a.engine(), b.engine()
        assert ea.codes_r is eb.codes_r is right.encoded.codes
        assert ea.sigs_r is eb.sigs_r
        assert a.passjoin_index() is b.passjoin_index()
        assert a.index() is b.index()
        for planner in (a, b):
            got = planner.run(
                "FPDL", generator="pass-join", backend="vectorized",
                record_matches=True,
            )
            ref = JoinPlanner(
                planner.left, list(right.strings), k=1, collapse="off"
            ).run(
                "FPDL", generator="all-pairs", backend="scalar",
                record_matches=True,
            )
            assert sorted(got.matches) == sorted(ref.matches)

    def test_rejects_different_right_object(self):
        # Two prepared sides signed under different schemes cannot be
        # compared by the FBF filter.
        left = PreparedSide(["123"], "numeric")
        right = PreparedSide(["123"], "alpha")
        with pytest.raises(ValueError, match="signature schemes"):
            VectorEngine(left, right, k=1)

    def test_scheme_instance_accepted(self):
        from repro.core.signatures import scheme_for

        scheme = scheme_for("alnum", 3)
        eng = VectorEngine(["a1"], ["a1"], k=1, scheme_kind=scheme)
        assert eng.scheme is scheme
        assert eng.run("FPDL").match_count == 1


#: per kind, a dataset family whose strings suit its signatures
_PACKED_FAMILIES = {"numeric": "SSN", "alpha": "LN", "alnum": "Ad"}


def _scalar_reference(left, right, method, kind, levels, k=1):
    return JoinPlanner(
        left, right, k=k, scheme=kind, levels=levels, record_matches=True,
        self_join=False, collapse="off", memo="off",
    ).run(method, generator="all-pairs", backend="scalar")


class TestPackedLayout:
    """Signatures live in packed uint64 words: u32 widths 1-4 become
    packed widths 1-2, odd widths with a zero pad column."""

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["numeric", "alpha", "alnum"])
    def test_packed_words_hold_the_u32_signatures(self, kind, levels):
        pair = dataset_for_family(_PACKED_FAMILIES[kind], 40, seed=levels)
        eng = VectorEngine(
            pair.clean, pair.error, k=1, scheme_kind=kind, levels=levels
        )
        sides = ((pair.clean, eng.sigs_l), (pair.error, eng.sigs_r))
        for strings, packed in sides:
            words = signatures_for_scheme(strings, scheme_for(kind, levels))
            words = words.reshape(len(strings), -1)
            width = words.shape[1]
            assert packed.dtype == np.uint64
            assert packed.shape == (len(strings), (width + 1) // 2)
            as_u32 = packed.view(np.uint32)
            np.testing.assert_array_equal(as_u32[:, :width], words)
            assert not as_u32[:, width:].any()  # the pad column is zero

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["numeric", "alpha", "alnum"])
    def test_run_and_run_candidates_match_scalar(self, kind, levels):
        pair = dataset_for_family(_PACKED_FAMILIES[kind], 40, seed=levels)
        eng = VectorEngine(
            pair.clean, pair.error, k=1, scheme_kind=kind, levels=levels,
            filter_chunk=1 << 8, record_matches=True,
        )
        for method in ("FBF", "FPDL", "LFPDL"):
            ref = _scalar_reference(
                pair.clean, pair.error, method, kind, levels
            )
            full = eng.run(method)
            assert sorted(full.matches) == sorted(ref.matches), method
            assert full.diagonal_matches == ref.diagonal_matches
            blocks = iter_pair_blocks(len(pair.clean), len(pair.error), 97)
            cand = eng.run_candidates(method, blocks)
            assert sorted(cand.matches) == sorted(ref.matches), method
            assert cand.diagonal_matches == ref.diagonal_matches


@pytest.mark.parametrize("method", ["DL", "FPDL", "Jaro", "SDX"])
def test_kernels_freed_by_refcount(method):
    """A run's kernels hold no reference cycle: a streamed join builds
    one engine per chunk, and cyclic garbage would keep every chunk's
    side arrays alive until the next full collection."""
    import gc
    import weakref

    from repro.core.matchers import method_registry

    eng = VectorEngine(["SMITH", "JONES"], ["SMYTH", "JONES"], k=1)
    kern = eng._kernels(method_registry()[method])
    ref = weakref.ref(kern)
    gc.disable()
    try:
        del kern
        assert ref() is None
    finally:
        gc.enable()
