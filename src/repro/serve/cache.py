"""Bounded LRU cache for query results.

Online match traffic is heavily repetitive — the same client re-keys
the same (possibly typo-ed) value day after day — so a small LRU in
front of the index absorbs a large share of queries.  Correctness
under mutation comes from the *key*, not from explicit invalidation:
entries are keyed on ``(value, method, k, generation)``, and every
mutation bumps the index generation, so a stale entry can never be
returned — it simply stops being looked up and ages out of the LRU
window.

:class:`ResultCache` is deliberately dumb: an ``OrderedDict`` with a
size bound and hit/miss/eviction counters.  ``maxsize=0`` disables
caching entirely (every ``get`` is a miss, ``put`` is a no-op), which
is what the cache-off arm of the serving ablation runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable

__all__ = ["ResultCache", "MISS"]

#: sentinel distinguishing "not cached" from a cached empty result
MISS = object()


class ResultCache:
    """A bounded LRU mapping with hit/miss/eviction accounting."""

    def __init__(self, maxsize: int = 1024):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable):
        """The cached value, or :data:`MISS`; counts and refreshes LRU."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return MISS
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh one entry, evicting the least recent overflow."""
        self.put_many(((key, value),))

    def put_many(self, items: Iterable[tuple[Hashable, object]]) -> None:
        """Insert/refresh every ``(key, value)`` in order, in one call:
        the same entries, LRU order, evictions and stats as a loop of
        :meth:`put`."""
        if self.maxsize == 0:
            return
        data = self._data
        for key, value in items:
            data[key] = value
            data.move_to_end(key)
            if len(data) > self.maxsize:
                data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, object]:
        """JSON-ready counter snapshot."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
