"""Cross-engine fuzzing: one semantics, three implementations.

Hypothesis drives random datasets, thresholds and method stacks through
the scalar join, the vectorized join and the FBF index; any divergence
between them is a bug in exactly one place.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import FBFIndex
from repro.core.join import _scalar_join
from repro.core.matchers import build_matcher
from repro.distance.damerau import damerau_levenshtein
from repro.parallel.chunked import VectorEngine

datasets = st.lists(
    st.text(alphabet="AB1 -", min_size=1, max_size=9), min_size=1, max_size=8
)
methods = st.sampled_from(
    ["DL", "PDL", "Jaro", "Wink", "Ham", "FDL", "FPDL", "FBF",
     "LDL", "LPDL", "LF", "LFDL", "LFPDL", "LFBF", "SDX"]
)


class TestScalarVsVectorized:
    @settings(max_examples=60)
    @given(datasets, datasets, methods, st.integers(0, 3),
           st.sampled_from([0.7, 0.8, 0.9]))
    def test_counts_agree(self, left, right, method, k, theta):
        scalar = _scalar_join(
            left, right, build_matcher(method, k=k, theta=theta, scheme="alnum")
        )
        vector = VectorEngine(
            left, right, k=k, theta=theta, scheme_kind="alnum", chunk=16
        ).run(method)
        assert (scalar.match_count, scalar.diagonal_matches) == (
            vector.match_count,
            vector.diagonal_matches,
        ), method

    @settings(max_examples=30)
    @given(datasets, datasets, st.integers(1, 2))
    def test_match_sets_agree(self, left, right, k):
        scalar = _scalar_join(
            left,
            right,
            build_matcher("LFPDL", k=k, scheme="alnum"),
            record_matches=True,
        )
        vector = VectorEngine(
            left, right, k=k, scheme_kind="alnum", chunk=8, record_matches=True
        ).run("LFPDL")
        assert sorted(scalar.matches) == sorted(vector.matches)


class TestIndexVsJoin:
    @settings(max_examples=40)
    @given(datasets, st.integers(0, 2), st.integers(0, 10**9))
    def test_index_search_equals_row_of_join(self, pool, k, seed):
        rng = random.Random(seed)
        query = rng.choice(pool)
        idx = FBFIndex(pool, scheme="alnum")
        got = idx.search(query, k)
        want = sorted(
            i
            for i, s in enumerate(pool)
            if s and query and damerau_levenshtein(query, s) <= k
        )
        assert got == want


class TestSafetyNeverViolated:
    @settings(max_examples=40)
    @given(datasets, st.integers(0, 3))
    def test_every_filter_stack_superset_of_dl(self, strings, k):
        join = VectorEngine(
            strings, strings, k=k, scheme_kind="alnum",
            chunk=8, record_matches=True,
        )
        dl = set(join.run("DL").matches)
        for stack in ("FBF", "LF", "LFBF"):
            stack_matches = set(join.run(stack).matches)
            # Filter-only stacks pass a superset (except pairs DL would
            # accept only via empty strings, which LF handles: a length
            # difference within k always passes LF; FBF diff of empty
            # sigs is 0).
            assert dl <= stack_matches, stack
