"""Unit tests for the bounded LRU result cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.cache import MISS, ResultCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get("a") is MISS
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_miss_sentinel_distinct_from_cached_none(self):
        cache = ResultCache(4)
        cache.put("a", None)
        assert cache.get("a") is None
        assert cache.get("b") is MISS

    def test_contains_and_len(self):
        cache = ResultCache(4)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert len(cache) == 1

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="maxsize"):
            ResultCache(-1)


class TestEviction:
    def test_lru_order(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert
        cache.put("c", 3)
        assert cache.get("a") == 10 and "b" not in cache

    def test_zero_size_disables(self):
        cache = ResultCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is MISS
        assert cache.evictions == 0


class TestStats:
    def test_hit_rate(self):
        cache = ResultCache(4)
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_rate == 0.5

    def test_stats_dict(self):
        cache = ResultCache(4)
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["maxsize"] == 4
        assert stats["hits"] == 1
        assert stats["hit_rate"] == 1.0

    def test_clear_keeps_counters(self):
        cache = ResultCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1


class ModelLRU:
    """The LRU by definition, as a list of ``(key, value)`` oldest
    first: a put moves its key to the end and evicts the oldest entry
    when that overflows ``maxsize``."""

    def __init__(self, maxsize):
        self.maxsize, self.items, self.evictions = maxsize, [], 0

    def put(self, key, value):
        if self.maxsize == 0:
            return
        self.items = [(k, v) for k, v in self.items if k != key]
        self.items.append((key, value))
        if len(self.items) > self.maxsize:
            del self.items[0]
            self.evictions += 1

    def get(self, key):
        for k, v in self.items:
            if k == key:
                self.items.remove((k, v))
                self.items.append((k, v))
                return v
        return MISS


class TestPutMany:
    """``put_many`` is a loop of puts: entries, LRU order, evictions and
    ``stats()`` as the model LRU has them after the same puts."""

    ITEM = st.tuples(st.integers(0, 9), st.integers())
    BATCH = st.one_of(
        st.lists(ITEM, max_size=10),
        st.lists(ITEM, max_size=10, unique_by=lambda item: item[0]),
    )

    @given(
        st.integers(0, 6),
        st.lists(BATCH, max_size=5),
        st.lists(st.integers(0, 9), max_size=5),
    )
    def test_equals_put_loop(self, maxsize, batches, gets):
        bulk, loop = ResultCache(maxsize), ResultCache(maxsize)
        model = ModelLRU(maxsize)
        for batch, key in zip(batches, gets + [None] * len(batches)):
            bulk.put_many(iter(batch))
            for k, v in batch:
                loop.put(k, v)
                model.put(k, v)
            for cache in (bulk, loop):
                assert list(cache._data.items()) == model.items
                assert cache.evictions == model.evictions
            assert bulk.stats() == loop.stats()
            if key is not None:
                want = model.get(key)
                assert bulk.get(key) is want and loop.get(key) is want

    def test_fresh_keys_overflowing_the_cache(self):
        # A batch of keys new to the cache, more than fit: the old
        # entries go first, then the batch's own oldest.
        cache = ResultCache(3)
        cache.put("old", 0)
        cache.put_many([(f"k{i}", i) for i in range(5)])
        assert list(cache._data) == ["k2", "k3", "k4"]
        assert cache.evictions == 3
        assert cache.stats()["size"] == 3
