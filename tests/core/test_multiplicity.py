"""Unit tests for the multiplicity layer (collapse, triangle, memo)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.matchers import build_matcher
from repro.core.multiplicity import (
    CollapsedJoinResult,
    CollapsedSide,
    PairWeighter,
    VerificationMemo,
    estimate_uniqueness,
    expand_rows,
    positional_diagonal,
)
from repro.core.plan import JoinPlanner

dup_lists = st.lists(
    st.sampled_from(["SMITH", "SMYTH", "JONES", "JONAS", "LEE"]),
    min_size=1,
    max_size=12,
)


class TestCollapsedSide:
    def test_roundtrip_identity(self):
        strings = ["B", "A", "B", "C", "A", "B"]
        side = CollapsedSide.from_strings(strings)
        assert [side.values[u] for u in side.inverse] == strings
        assert side.n == 6 and side.n_unique == 3
        # First-appearance order: B=0, A=1, C=2.
        assert side.values == ["B", "A", "C"]
        assert side.counts.tolist() == [3, 2, 1]

    def test_groups_partition_the_indices(self):
        strings = ["X", "Y", "X", "Z", "Y"]
        side = CollapsedSide.from_strings(strings)
        order, start = side.members()
        groups = [
            order[s : s + c] for s, c in zip(start, side.counts)
        ]
        seen = sorted(i for g in groups for i in g.tolist())
        assert seen == list(range(5))
        for uid, g in enumerate(groups):
            assert all(strings[i] == side.values[uid] for i in g.tolist())

    def test_identity_view(self):
        strings = ["A", "A", "B"]
        side = CollapsedSide.identity(strings)
        assert side.values == strings
        assert side.counts.tolist() == [1, 1, 1]
        assert side.inverse.tolist() == [0, 1, 2]

    def test_empty(self):
        side = CollapsedSide.from_strings([])
        assert side.n == 0 and side.n_unique == 0

    @given(dup_lists)
    def test_counts_sum_to_n(self, strings):
        side = CollapsedSide.from_strings(strings)
        assert int(side.counts.sum()) == len(strings)
        assert side.n_unique == len(set(strings))


class TestEstimateUniqueness:
    def test_exact_on_small_inputs(self):
        assert estimate_uniqueness(["A", "A", "B", "C"]) == 0.75
        assert estimate_uniqueness([]) == 1.0
        assert estimate_uniqueness(["X"] * 50) == 1 / 50

    def test_sampled_on_large_inputs(self):
        # 10k rows of 10 distinct values: the stride sample must see
        # heavy duplication even though it reads only 1024 rows.
        strings = [f"V{i % 10}" for i in range(10_000)]
        assert estimate_uniqueness(strings) < 0.05


class TestPairWeighter:
    def test_plain_product_weights(self):
        w = PairWeighter([2, 3], [5, 1])
        assert w.weight(0, 0) == 10
        assert w.weight(1, 1) == 3
        assert w.block(np.array([0, 1]), np.array([1, 0])).tolist() == [2, 15]

    def test_symmetric_doubles_off_diagonal_only(self):
        w = PairWeighter([2, 3], [2, 3], symmetric=True)
        assert w.weight(0, 0) == 4
        assert w.weight(0, 1) == 12  # 2 * 3, doubled
        assert w.block(np.array([0, 0]), np.array([0, 1])).tolist() == [4, 12]

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    def test_triangle_identity(self, counts):
        # sum_{u<=v} weight(u, v) == (sum counts)**2 — the invariant the
        # triangular self-join's conservation accounting rests on.
        n = sum(counts)
        w = PairWeighter(counts, counts, symmetric=True)
        u = len(counts)
        total = sum(
            w.weight(i, j) for i in range(u) for j in range(i, u)
        )
        assert total == n * n


class TestVerificationMemo:
    def test_canonical_key_serves_both_orders(self):
        memo = VerificationMemo()
        memo.store("B", "A", True)
        assert memo.lookup("A", "B") is True
        assert memo.lookup("B", "A") is True
        assert memo.hits == 2

    def test_miss_then_hit_counters(self):
        memo = VerificationMemo()
        assert memo.lookup("X", "Y") is None
        memo.store("X", "Y", False)
        assert memo.lookup("X", "Y") is False
        assert (memo.misses, memo.hits) == (1, 1)

    def test_fifo_eviction(self):
        memo = VerificationMemo(capacity=2)
        memo.store("A", "A", True)
        memo.store("B", "B", True)
        memo.store("C", "C", True)  # evicts the (A, A) entry
        assert memo.lookup("A", "A") is None
        assert memo.lookup("B", "B") is True
        assert len(memo) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            VerificationMemo(capacity=0)

    def test_matcher_consults_memo(self):
        calls = []
        matcher = build_matcher("DL", k=1)
        real = matcher.verifier
        matcher.verifier = lambda s, t: calls.append((s, t)) or real(s, t)
        matcher.memo = VerificationMemo()
        matcher.prepare(["AB", "AB"], ["AC"])
        assert matcher.matches(0, 0) and matcher.matches(1, 0)
        assert len(calls) == 1  # second arrival answered from the memo
        assert matcher.verified_pairs == 2  # arrivals still both counted


def _pairs(rows):
    ii, jj = rows
    return list(zip(ii.tolist(), jj.tolist()))


def _unique_rows(pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


class TestExpansion:
    def test_expand_matches_brute_force(self):
        left = ["A", "B", "A", "C"]
        right = ["B", "A", "B"]
        cl = CollapsedSide.from_strings(left)
        cr = CollapsedSide.from_strings(right)
        # Unique matches: left A (uid 0) with right A (uid 1).
        got = sorted(_pairs(expand_rows(*_unique_rows([(0, 1)]), cl, cr)))
        want = sorted(
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
            if left[i] == "A" and right[j] == "A"
        )
        assert got == want

    def test_symmetric_expansion_mirrors(self):
        data = ["A", "B", "A"]
        side = CollapsedSide.from_strings(data)
        got = sorted(
            _pairs(
                expand_rows(*_unique_rows([(0, 1)]), side, side, symmetric=True)
            )
        )
        want = sorted(
            (i, j)
            for i in range(3)
            for j in range(3)
            if {data[i], data[j]} == {"A", "B"}
        )
        assert got == want

    def test_positional_diagonal(self):
        left = ["A", "B", "C"]
        right = ["A", "X", "C"]
        cl = CollapsedSide.from_strings(left)
        cr = CollapsedSide.from_strings(right)
        unique_matches = [
            (u, v)
            for u in range(cl.n_unique)
            for v in range(cr.n_unique)
            if cl.values[u] == cr.values[v]
        ]
        assert positional_diagonal(*_unique_rows(unique_matches), cl, cr) == 2

    @given(dup_lists, dup_lists, st.data(), st.booleans())
    def test_expansion_order_is_match_then_row_major(
        self, left, right, data, symmetric
    ):
        """Each match expands to its row-major product (then, when
        symmetric and off-diagonal, the mirrored product), in match
        order."""
        if symmetric:
            right = left
        cl = CollapsedSide.from_strings(left)
        cr = cl if symmetric else CollapsedSide.from_strings(right)
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, cl.n_unique - 1),
                    st.integers(0, cr.n_unique - 1),
                ),
                max_size=6,
            )
        )
        members_l = [
            [i for i in range(cl.n) if cl.inverse[i] == u]
            for u in range(cl.n_unique)
        ]
        members_r = [
            [j for j in range(cr.n) if cr.inverse[j] == v]
            for v in range(cr.n_unique)
        ]
        want = []
        for u, v in pairs:
            want += [(i, j) for i in members_l[u] for j in members_r[v]]
            if symmetric and u != v:
                want += [(i, j) for i in members_l[v] for j in members_r[u]]
        got = expand_rows(*_unique_rows(pairs), cl, cr, symmetric=symmetric)
        assert all(a.dtype == np.int64 for a in got)
        assert _pairs(got) == want

    def test_collapsed_result_expands_lazily(self):
        calls = []

        def expander(ui, uj):
            calls.append((ui, uj))
            return _unique_rows([(0, 0), (0, 1)])

        r = CollapsedJoinResult(
            "DL", 2, 2, match_count=2,
            unique_rows=_unique_rows([(0, 0)]), expander=expander,
        )
        assert calls == []  # nothing expanded yet
        assert r.matches == [(0, 0), (0, 1)]
        assert r.matches is r.matches  # cached after first access
        assert len(calls) == 1


class TestPlannerIntegration:
    DATA = ["SMITH"] * 5 + ["SMYTH"] * 3 + ["JONES"] * 2

    def _reference(self):
        p = JoinPlanner(
            list(self.DATA), list(self.DATA),
            k=1, scheme="alpha", collapse="off", self_join=False, memo="off",
        )
        return p.run(
            "FPDL", generator="all-pairs", backend="scalar",
            record_matches=True,
        )

    def test_collapsed_self_join_equals_reference(self):
        ref = self._reference()
        p = JoinPlanner(self.DATA, self.DATA, k=1, scheme="alpha")
        r = p.run("FPDL", record_matches=True)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert sorted(r.matches) == sorted(ref.matches)
        # The whole point: unique-space work, original-pair answers.
        assert r.unique_left == r.unique_right == 3
        assert r.pairs_compared == 6  # triangle of 3 uniques
        assert ref.pairs_compared == 100

    def test_collapse_on_two_datasets(self):
        left = ["ANNA", "ANNA", "BETH", "CARA", "CARA"]
        right = ["ANNA", "BETH", "BETH", "DANA"]
        p_ref = JoinPlanner(
            left, right, k=1, scheme="alpha", collapse="off", memo="off"
        )
        ref = p_ref.run(
            "LDL", generator="all-pairs", backend="scalar", record_matches=True
        )
        p = JoinPlanner(left, right, k=1, scheme="alpha", collapse="on")
        r = p.run("LDL", record_matches=True)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert sorted(r.matches) == sorted(ref.matches)
        assert (r.unique_left, r.unique_right) == (3, 3)

    def test_uncollapsed_results_have_no_unique_counts(self):
        p = JoinPlanner(
            ["AB"], ["AC"], k=1, collapse="off", memo="off"
        )
        r = p.run("DL")
        assert r.unique_left is None and r.unique_right is None

    def test_self_join_forced_on_unequal_data_rejected(self):
        with pytest.raises(ValueError, match="self_join"):
            JoinPlanner(["A"], ["B"], self_join=True)

    def test_collapse_auto_skips_unique_data(self):
        strings = [f"{i:06d}" for i in range(50)]
        p = JoinPlanner(strings, list(reversed(strings)), k=1)
        assert not p.collapse_active()

    def test_memo_auto_follows_duplication(self):
        dup = ["AA", "AA", "AB"]
        uniq = ["AA", "AB", "AC"]
        assert (
            JoinPlanner(dup, list(uniq), collapse="off").memo_for("DL")
            is not None
        )
        assert JoinPlanner(list(uniq), list(uniq)).memo_for("DL") is None
        # Filter-only stacks have nothing to memoize.
        assert (
            JoinPlanner(dup, list(uniq), collapse="off").memo_for("FBF")
            is None
        )

    def test_memoized_scalar_plan_equals_reference(self):
        left = ["SMITH", "SMITH", "SMYTH", "JONES", "SMITH"]
        right = ["SMYTH", "SMITH", "SMITH", "JONAS"]
        ref = JoinPlanner(
            left, right, k=1, scheme="alpha", collapse="off", memo="off"
        ).run("FPDL", generator="all-pairs", backend="scalar",
              record_matches=True)
        p = JoinPlanner(
            left, right, k=1, scheme="alpha", collapse="off", memo="on"
        )
        r = p.run("FPDL", generator="all-pairs", backend="scalar",
                  record_matches=True)
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.verified_pairs == ref.verified_pairs  # arrivals, not work
        memo = p.memo_for("FPDL")
        assert memo.hits > 0  # duplicates actually hit the cache
