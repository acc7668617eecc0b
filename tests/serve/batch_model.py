"""A reference model of :meth:`MatchService.query_batch`'s answers.

The stateful serving machines share it: a plain ``{id: string}`` model
of the live roster gives the expected ids and strings, and an LRU model
of the result cache (keyed, like the service's, on value, k and
generation) says which answers must come back ``cached``.
"""

from collections import OrderedDict

import hypothesis.strategies as st


class BatchModel:
    """Checks one ``query_batch`` call against the roster model.

    ``oracle(model, value, k)`` returns the expected ids (ascending);
    ``cache_size`` must equal the service's.  Call :meth:`reset` when
    the service's cache starts over (a snapshot load).
    """

    def __init__(self, oracle, cache_size: int):
        self.oracle = oracle
        self.cache_size = cache_size
        self.cache: OrderedDict = OrderedDict()
        #: every value checked so far, to draw repeats from
        self.asked: list[str] = []

    def reset(self) -> None:
        self.cache.clear()

    def draw(self, data, words) -> list[str]:
        """A batch of fresh ``words`` and values asked before, some of
        its own values repeated."""
        value = words
        if self.asked:
            value = st.one_of(words, st.sampled_from(self.asked))
        values = data.draw(st.lists(value, min_size=1, max_size=6))
        return values + data.draw(st.lists(st.sampled_from(values), max_size=3))

    def check(self, svc, model: dict[int, str], values: list[str], k: int):
        """Run ``svc.query_batch(values, k)`` and assert every answer:
        ids ascending and equal to the oracle's, ``matches[i]`` the
        live string of ``ids[i]``, ``cached`` exactly for values
        answered before in this generation and still in the cache, and
        ``generation`` the current one."""
        generation = svc.generation
        results = svc.query_batch(values, k)
        assert len(results) == len(values)
        hits, pending = set(), []
        for value in dict.fromkeys(values):
            key = (value, k, generation)
            if key in self.cache:
                self.cache.move_to_end(key)
                hits.add(value)
            else:
                pending.append(value)
        for value in pending:
            self.cache[(value, k, generation)] = None
            while len(self.cache) > self.cache_size:
                self.cache.popitem(last=False)
        for value, res in zip(values, results):
            assert res.value == value
            assert list(res.ids) == sorted(res.ids), res
            assert list(res.ids) == self.oracle(model, value, k), (value, k)
            assert res.matches == tuple(model[sid] for sid in res.ids), res
            assert res.cached == (value in hits), (value, res.cached)
            assert res.generation == generation, res
        self.asked.extend(values)
        return results
