"""Unit tests for MutableIndex: stable ids, tombstones, compaction."""

import pytest

from repro.core.index import FBFIndex
from repro.serve.mutable import MutableIndex

NAMES = ["SMITH", "SMYTH", "JONES", "JONSE", "BROWN", "BROWNE"]


class TestConstruction:
    def test_initial_ids_are_positions(self):
        idx = MutableIndex(NAMES)
        assert len(idx) == len(NAMES)
        assert [sid for sid, _ in idx.items()] == list(range(len(NAMES)))
        assert idx.get(2) == "JONES"

    def test_empty_index(self):
        idx = MutableIndex()
        assert len(idx) == 0
        assert idx.search("SMITH") == []

    def test_rejects_bad_compact_ratio(self):
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="compact_ratio"):
                MutableIndex(compact_ratio=ratio)

    def test_generation_starts_at_zero(self):
        assert MutableIndex(NAMES).generation == 0


class TestMutation:
    def test_add_returns_monotone_ids(self):
        idx = MutableIndex(NAMES[:2])
        assert idx.add("JONES") == 2
        assert idx.add("BROWN") == 3
        assert idx.extend(["TAYLOR", "WILSON"]) == [4, 5]

    def test_add_bumps_generation(self):
        idx = MutableIndex(NAMES)
        gen = idx.generation
        idx.add("TAYLOR")
        assert idx.generation == gen + 1

    def test_remove_tombstones(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.remove(1)
        assert len(idx) == len(NAMES) - 1
        assert 1 not in idx
        assert idx.tombstones == 1
        with pytest.raises(KeyError):
            idx.get(1)

    def test_remove_unknown_id_raises(self):
        idx = MutableIndex(NAMES)
        with pytest.raises(KeyError, match="no live entry"):
            idx.remove(99)
        idx.remove(0)
        with pytest.raises(KeyError, match="no live entry"):
            idx.remove(0)  # already tombstoned

    def test_removed_entries_never_match(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        assert idx.search("SMITH", 1) == [0, 1]
        idx.remove(1)
        assert idx.search("SMITH", 1) == [0]

    def test_ids_stay_stable_after_removal(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.remove(0)
        assert idx.get(1) == "SMYTH"
        assert idx.search("SMYTH", 0) == [1]


class TestCompaction:
    def test_explicit_compact_reclaims(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.remove(1)
        idx.remove(3)
        assert idx.compact() == 2
        assert idx.tombstones == 0
        assert idx.rows == len(NAMES) - 2

    def test_compact_preserves_external_ids(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.remove(0)
        idx.compact()
        assert idx.get(1) == "SMYTH"
        assert idx.search("SMITH", 1) == [1]
        assert [sid for sid, _ in idx.items()] == [1, 2, 3, 4, 5]

    def test_auto_compaction_at_threshold(self):
        idx = MutableIndex(NAMES, compact_ratio=0.5)
        for sid in (0, 1, 2):
            idx.remove(sid)
        assert idx.compactions == 1
        assert idx.tombstones == 0

    def test_no_auto_compaction_when_disabled(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        for sid in range(len(NAMES) - 1):
            idx.remove(sid)
        assert idx.compactions == 0
        assert idx.tombstones == len(NAMES) - 1

    def test_ids_resume_after_compaction(self):
        idx = MutableIndex(NAMES, compact_ratio=0.1)
        idx.remove(2)  # triggers compaction
        assert idx.add("TAYLOR") == len(NAMES)

    def test_compact_bumps_generation(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.remove(0)
        gen = idx.generation
        idx.compact()
        assert idx.generation == gen + 1


class TestRebuildEquivalence:
    def test_matches_fresh_index_after_churn(self):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.remove(1)
        idx.extend(["SMITT", "JONES"])
        live = [s for _, s in idx.items()]
        fresh = FBFIndex(live, scheme=idx.scheme)
        for query in ("SMITH", "JONES", "BROWN", "NOPE"):
            got = idx.search_strings(query, 1)
            want = fresh.search_strings(query, 1)
            assert sorted(got) == sorted(want), query
