"""Unit and property tests for the FBF signature index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import FBFIndex
from repro.data.ssn import build_ssn_pool
from repro.distance.damerau import damerau_levenshtein
from repro.distance.levenshtein import levenshtein

pool_strategy = st.lists(
    st.text(alphabet="0123456789", min_size=1, max_size=10),
    min_size=1,
    max_size=25,
)


class TestConstruction:
    def test_empty(self):
        idx = FBFIndex(scheme="numeric")
        assert len(idx) == 0
        assert idx.search("12345", 1) == []

    def test_scheme_by_string(self):
        idx = FBFIndex(["123"], scheme="numeric")
        assert idx.scheme.name == "numeric"

    def test_scheme_autodetect(self):
        idx = FBFIndex(["SMITH", "JONES"])
        assert idx.scheme.name.startswith("alpha")

    def test_invalid_verifier(self):
        with pytest.raises(ValueError):
            FBFIndex(verifier="hamming")

    def test_getitem(self):
        idx = FBFIndex(["A", "B"], scheme="alpha")
        assert idx[1] == "B"


class TestSearch:
    def test_exact_hit(self):
        idx = FBFIndex(["123456789", "987654321"], scheme="numeric")
        assert idx.search("123456789", 0) == [0]

    def test_single_edit_hit(self):
        idx = FBFIndex(["123456789"], scheme="numeric")
        assert idx.search("123456780", 1) == [0]

    def test_transposition_hit_osa(self):
        idx = FBFIndex(["123456789"], scheme="numeric")
        assert idx.search("123456798", 1) == [0]

    def test_miss(self):
        idx = FBFIndex(["111111111"], scheme="numeric")
        assert idx.search("999999999", 2) == []

    def test_length_pruning(self):
        idx = FBFIndex(["12", "1234", "123456"], scheme="numeric")
        assert idx.search("123", 1) == [0, 1]

    @settings(max_examples=25)
    @given(pool_strategy, st.integers(0, 2), st.integers(0, 10**10))
    def test_exact_vs_brute_force(self, pool, k, qseed):
        rng = random.Random(qseed)
        query = rng.choice(pool)
        idx = FBFIndex(pool, scheme="numeric")
        got = idx.search(query, k)
        want = sorted(
            i
            for i, s in enumerate(pool)
            if damerau_levenshtein(query, s) <= k
        )
        assert got == want

    def test_negative_k(self):
        idx = FBFIndex(["1"], scheme="numeric")
        with pytest.raises(ValueError):
            idx.search("1", -1)

    def test_search_strings(self):
        idx = FBFIndex(["123456789", "123456780"], scheme="numeric")
        assert idx.search_strings("123456789", 1) == ["123456789", "123456780"]


class TestIncremental:
    def test_add_then_find(self):
        idx = FBFIndex(scheme="numeric")
        sid = idx.add("555001234")
        assert idx.search("555001234", 0) == [sid]

    def test_interleaved_adds_and_searches(self):
        rng = random.Random(9)
        pool = build_ssn_pool(120, rng)
        idx = FBFIndex(scheme="numeric")
        reference: list[str] = []
        for i, s in enumerate(pool):
            idx.add(s)
            reference.append(s)
            if i % 10 == 9:
                q = rng.choice(reference)
                got = idx.search(q, 1)
                want = sorted(
                    j
                    for j, r in enumerate(reference)
                    if damerau_levenshtein(q, r) <= 1
                )
                assert got == want

    def test_extend(self):
        idx = FBFIndex(scheme="numeric")
        idx.extend(["123", "124"])
        assert len(idx) == 2
        assert idx.search("123", 1) == [0, 1]


class TestEmptyStrings:
    def test_empty_query_matches_nothing(self):
        idx = FBFIndex(["A", "AB"], scheme="alpha")
        assert idx.search("", 2) == []

    def test_empty_indexed_string_never_matches(self):
        idx = FBFIndex(["", "A"], scheme="alpha")
        assert idx.search("A", 1) == [1]


class TestBitparallelVerifier:
    @settings(max_examples=20)
    @given(pool_strategy, st.integers(0, 2), st.integers(0, 10**10))
    def test_exact_vs_osa_brute_force(self, pool, k, qseed):
        rng = random.Random(qseed)
        query = rng.choice(pool)
        idx = FBFIndex(pool, scheme="numeric", verifier="osa-bitparallel")
        got = idx.search(query, k)
        want = sorted(
            i
            for i, s in enumerate(pool)
            if damerau_levenshtein(query, s) <= k
        )
        assert got == want

    def test_transposition_counts_one(self):
        idx = FBFIndex(["12345"], scheme="numeric", verifier="osa-bitparallel")
        assert idx.search("12354", 1) == [0]


class TestMyersVerifier:
    def test_levenshtein_semantics(self):
        # The Myers verifier counts a transposition as two edits.
        idx = FBFIndex(["12345", "12354"], scheme="numeric", verifier="myers")
        assert idx.search("12345", 1) == [0]
        assert idx.search("12345", 2) == [0, 1]

    @settings(max_examples=20)
    @given(pool_strategy, st.integers(0, 2), st.integers(0, 10**10))
    def test_exact_vs_levenshtein_brute_force(self, pool, k, qseed):
        rng = random.Random(qseed)
        query = rng.choice(pool)
        idx = FBFIndex(pool, scheme="numeric", verifier="myers")
        got = idx.search(query, k)
        want = sorted(
            i for i, s in enumerate(pool) if levenshtein(query, s) <= k
        )
        assert got == want


class TestSearchCollector:
    def test_funnel_conserves_and_orders(self):
        from repro.obs import StatsCollector

        pool = ["12345", "12354", "99999", "123", ""]
        idx = FBFIndex(pool, scheme="numeric")
        c = StatsCollector("probe")
        hits = idx.search("12345", 1, collector=c)
        assert hits == [0, 1]
        assert c.pairs_considered == len(pool)
        assert c.conserved
        assert [s.name for s in c.stages.values()] == ["length", "fbf"]
        # Length windowing drops the length-3 and empty entries before
        # the signature stage ever sees them.
        assert c.stages["length"].tested == len(pool)
        assert c.stages["length"].passed == 3
        assert c.stages["fbf"].tested == 3
        assert c.matched == len(hits)
        assert c.verified == c.survivors

    def test_empty_query_still_accounts(self):
        from repro.obs import StatsCollector

        idx = FBFIndex(["123", "456"], scheme="numeric")
        c = StatsCollector("probe")
        assert idx.search("", 1, collector=c) == []
        assert c.pairs_considered == 2
        assert c.conserved

    def test_collector_does_not_change_results(self):
        from repro.obs import StatsCollector

        pool = ["12345", "12354", "54321"]
        idx = FBFIndex(pool, scheme="numeric")
        assert idx.search("12345", 1, collector=StatsCollector()) == idx.search(
            "12345", 1
        )


class TestGenerationAndPacking:
    def test_generation_counts_adds(self):
        idx = FBFIndex(scheme="numeric")
        assert idx.generation == 0
        idx.add("123")
        idx.extend(["456", "789"])
        assert idx.generation == 3

    def test_construction_batch_counts(self):
        idx = FBFIndex(["123", "456"], scheme="numeric")
        assert idx.generation == 2

    def test_dirty_until_packed(self):
        idx = FBFIndex(scheme="numeric")
        idx.add("12345")
        assert idx.dirty
        idx.pack()
        assert not idx.dirty

    def test_search_packs_only_touched_buckets(self):
        idx = FBFIndex(scheme="numeric")
        idx.add("12345")
        idx.add("9999999999")
        idx.search("12346", 1)
        assert idx.dirty  # the length-10 bucket is still pending
        idx.pack()
        assert not idx.dirty

    def test_search_does_not_bump_generation(self):
        idx = FBFIndex(["12345"], scheme="numeric")
        gen = idx.generation
        idx.search("12345", 1)
        idx.pack()
        assert idx.generation == gen

    def test_verifier_override_per_query(self):
        idx = FBFIndex(["13245"], scheme="numeric", verifier="osa")
        # One transposition: OSA says 1 edit, Levenshtein (myers) says 2.
        assert idx.search("12345", 1) == [0]
        assert idx.search("12345", 1, verifier="myers") == []
        assert idx.search("12345", 1) == [0]  # configured default intact

    def test_verifier_override_validated(self):
        idx = FBFIndex(["12345"], scheme="numeric")
        with pytest.raises(ValueError, match="verifier"):
            idx.search("12345", 1, verifier="bogus")
