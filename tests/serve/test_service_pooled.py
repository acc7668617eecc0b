"""The pooled batched-query path answers exactly like the in-process one.

`MatchService(workers=N)` hands the planner its worker count, and the
planner sends a batch to the shared-memory worker pool once its product
amortizes the pool; the ``hybrid_batches`` fixture lowers that bar so
these small rosters take the pool.  The tests pin identical answers,
identical funnel counters, and a roster publication that adds and
compaction renew but removes do not.
"""

import pytest

from repro import native
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector
from repro.parallel.shm import close_shared_pools
from repro.serve.mutable import MutableIndex
from repro.serve.service import MatchService

pytestmark = pytest.mark.usefixtures("hybrid_batches")


@pytest.fixture(scope="module")
def ln_pair():
    return dataset_for_family("LN", 400, seed=11)


def _batched(svc, queries):
    return [(r.value, r.ids) for r in svc.query_batch(queries)]


def _answers(svc, queries):
    """Every field of every answer."""
    return [
        (r.value, r.method, r.k, r.ids, r.matches, r.cached, r.generation)
        for r in svc.query_batch(queries)
    ]


class TestPooledEquivalence:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_answers_and_funnel_match_inprocess(self, ln_pair, shards):
        # Pooled PASS-JOIN batches probe the index inside the workers.
        queries = ln_pair.error[:60]
        c_ref, c_pool = StatsCollector("ref"), StatsCollector("pooled")
        ref = MatchService(
            ln_pair.clean, k=1, collector=c_ref, shards=shards
        )
        pooled = MatchService(
            ln_pair.clean, k=1, collector=c_pool, workers=2, shards=shards
        )

        assert _batched(pooled, queries) == _batched(ref, queries)
        assert c_pool.pairs_considered == c_ref.pairs_considered
        assert c_pool.conserved and c_ref.conserved
        assert list(c_pool.stages) == list(c_ref.stages)
        assert c_pool.meta["backend"] == "hybrid"
        for name, stage in c_ref.stages.items():
            other = c_pool.stages[name]
            assert (other.tested, other.passed) == (stage.tested, stage.passed)

    def test_roster_republished_on_add_not_on_remove(self, ln_pair):
        c = StatsCollector("pooled")
        svc = MatchService(
            ln_pair.clean, k=1, collector=c, workers=2, compact_ratio=None
        )
        ref = MatchService(ln_pair.clean, k=1, compact_ratio=None)
        queries = ln_pair.error[:20]

        svc.query_batch(queries)
        svc.query_batch(ln_pair.error[20:40])
        assert c.counters["shm_roster_publishes"] == 1

        for s in (svc, ref):
            s.remove(0)
        assert _batched(svc, queries) == _batched(ref, queries)
        assert c.counters["shm_roster_publishes"] == 1

        for s in (svc, ref):
            s.add("BRANDNEWNAME")
        probe = ["BRANDNEWNAME", *queries]
        assert _batched(svc, probe) == _batched(ref, probe)
        assert c.counters["shm_roster_publishes"] == 2
        assert svc.index.prepared.published.n == len(ln_pair.clean) + 1

        for s in (svc, ref):
            s.compact()
        assert _batched(svc, probe) == _batched(ref, probe)
        assert c.counters["shm_roster_publishes"] == 3

    def test_mutations_visible_through_pool(self, ln_pair):
        ref = MatchService(ln_pair.clean, k=1)
        pooled = MatchService(ln_pair.clean, k=1, workers=2)
        for svc in (ref, pooled):
            svc.add("ZZYZX")
            svc.remove(0)
        probe = ["ZZYZX", ln_pair.clean[0], *ln_pair.error[:10]]
        assert _batched(pooled, probe) == _batched(ref, probe)

    def test_passjoin_add_found_inprocess_and_pooled(
        self, ln_pair, monkeypatch
    ):
        # In process the compiled run answers (when a provider loads);
        # pooled, the workers probe.  A row added after the index was
        # built is found by both: extend refreshed the flat arrays.
        probed = []
        if native.available():
            real = native.KernelSet.passjoin_run

            def spy(self, index, *args, **kw):
                probed.append(len(index))
                return real(self, index, *args, **kw)

            monkeypatch.setattr(native.KernelSet, "passjoin_run", spy)
        ref = MatchService(ln_pair.clean, k=1, cache_size=0)
        pooled = MatchService(ln_pair.clean, k=1, cache_size=0, workers=2)
        queries = ln_pair.error[:20]
        assert _batched(pooled, queries) == _batched(ref, queries)
        for svc in (ref, pooled):
            svc.add("QWERTYNAME")
        probe = ["QWERTYNAMF", "QWETRYNAME", *queries]
        got = _batched(ref, probe)
        n = len(ln_pair.clean)
        assert got[0] == ("QWERTYNAMF", (n,))
        assert got[1] == ("QWETRYNAME", (n,))
        assert _batched(pooled, probe) == got
        if native.available():
            assert probed == [n, n + 1]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_scripted_writes_answer_like_inprocess(self, ln_pair, shards):
        # A fixed add/remove/compact script between batches that repeat
        # values and re-ask earlier ones: every answer field equals the
        # in-process service's after every step.
        ref = MatchService(ln_pair.clean, k=1, cache_size=32, shards=shards)
        pooled = MatchService(
            ln_pair.clean, k=1, cache_size=32, shards=shards, workers=2
        )
        queries = ln_pair.error[:24]
        script = [
            ("add", "SMITHSONIAN"),
            ("remove", 3),
            ("add", ln_pair.error[5]),
            ("remove", 7),
            ("compact", None),
            ("remove", len(ln_pair.clean)),
            ("add", ln_pair.clean[9] + "E"),
        ]
        for step, (op, arg) in enumerate(script):
            batch = queries[step : step + 8] + queries[step : step + 3]
            assert _answers(pooled, batch) == _answers(ref, batch), step
            for svc in (ref, pooled):
                if op == "add":
                    svc.add(arg)
                elif op == "remove":
                    svc.remove(arg)
                else:
                    svc.compact()
        probe = ["SMITHSONIAN", ln_pair.error[5], *queries]
        assert _answers(pooled, probe) == _answers(ref, probe)

    @pytest.mark.parametrize(
        "shards, workers", [(1, None), (2, None), (1, 2), (2, 2)]
    )
    def test_batched_fold_never_looks_up_by_id(
        self, ln_pair, monkeypatch, shards, workers
    ):
        # The fold takes match strings by internal row, in bulk: a
        # per-match MutableIndex.get would raise here.
        svc = MatchService(
            ln_pair.clean, k=1, shards=shards, workers=workers
        )
        want = MatchService(ln_pair.clean, k=1).query_batch(
            ln_pair.error[:30]
        )

        def no_get(self, sid):
            raise AssertionError("per-match MutableIndex.get")

        monkeypatch.setattr(MutableIndex, "get", no_get)
        got = svc.query_batch(ln_pair.error[:30])
        assert [(r.ids, r.matches) for r in got] == [
            (r.ids, r.matches) for r in want
        ]
        assert any(r.ids for r in got)

    def test_single_worker_stays_inprocess(self, ln_pair):
        c = StatsCollector("one")
        svc = MatchService(ln_pair.clean, k=1, collector=c, workers=1)
        svc.query_batch(ln_pair.error[:10])
        assert "shm_roster_publishes" not in c.counters


def teardown_module(module):
    close_shared_pools()
