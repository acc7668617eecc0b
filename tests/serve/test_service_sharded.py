"""Sharded `MatchService` behaviour: scatter/gather equivalence (both
in-process and pooled, one planner run per routed shard), per-shard
telemetry and roster publication events.
"""

import pytest

from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector
from repro.parallel import shm
from repro.parallel.shm import close_shared_pools
from repro.serve.service import MatchService


@pytest.fixture(scope="module")
def ln_pair():
    return dataset_for_family("LN", 400, seed=23)


def _batched(svc, queries):
    return [(r.value, r.ids) for r in svc.query_batch(queries)]


class TestShardedEquivalence:
    def test_inprocess_scatter_matches_single_shard(self, ln_pair):
        queries = ln_pair.error[:60]
        c_ref, c_shard = StatsCollector("ref"), StatsCollector("sharded")
        ref = MatchService(ln_pair.clean, k=1, collector=c_ref)
        sharded = MatchService(
            ln_pair.clean, k=1, collector=c_shard, shards=4
        )

        assert sharded.sharded and not ref.sharded
        assert _batched(sharded, queries) == _batched(ref, queries)
        assert c_shard.conserved and c_ref.conserved

    @pytest.mark.usefixtures("hybrid_batches")
    def test_pooled_scatter_matches_inprocess(self, ln_pair):
        queries = ln_pair.error[:60]
        c_in, c_pool = StatsCollector("in"), StatsCollector("pooled")
        inproc = MatchService(
            ln_pair.clean, k=1, collector=c_in, shards=4
        )
        pooled = MatchService(
            ln_pair.clean, k=1, collector=c_pool, shards=4, workers=2
        )

        assert _batched(pooled, queries) == _batched(inproc, queries)
        assert c_pool.conserved and c_in.conserved
        assert c_pool.meta["backend"] == "hybrid"

    @pytest.mark.usefixtures("hybrid_batches")
    def test_pooled_shards_share_one_pool(self, ln_pair):
        close_shared_pools()
        svc = MatchService(ln_pair.clean, k=1, shards=4, workers=2)
        svc.query_batch(ln_pair.error[:40])
        assert list(shm._SHARED_POOLS) == [2]

    @pytest.mark.usefixtures("hybrid_batches")
    def test_mutations_visible_through_sharded_pool(self, ln_pair):
        ref = MatchService(ln_pair.clean, k=1)
        pooled = MatchService(ln_pair.clean, k=1, shards=4, workers=2)
        for svc in (ref, pooled):
            svc.add("ZZYZX")
            svc.remove(0)
        probe = ["ZZYZX", ln_pair.clean[0], *ln_pair.error[:10]]
        assert _batched(pooled, probe) == _batched(ref, probe)


class TestShardedTelemetry:
    def test_per_shard_query_counters_conserve(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1, shards=4)
        svc.query_batch(ln_pair.error[:40])
        snap = svc.metrics_snapshot()["metrics"]
        per_shard = [
            v["value"]
            for name, v in snap.items()
            if name.startswith("shard_queries_total{")
        ]
        assert per_shard
        # Each query is routed to every shard in its length window; the
        # per-shard tallies sum to the number of (query, shard) visits,
        # which is at least one per query and at most shards per query.
        assert 40 <= sum(per_shard) <= 4 * 40

    @pytest.mark.usefixtures("hybrid_batches")
    def test_remove_keeps_published_shard_rosters(self, ln_pair):
        svc = MatchService(
            ln_pair.clean, k=1, shards=2, workers=2, compact_ratio=None
        )
        ref = MatchService(ln_pair.clean, k=1, compact_ratio=None)
        svc.query_batch(ln_pair.error[:10])
        published = svc.events.tail(kind="roster_publish")
        assert sorted(e["shard"] for e in published) == [0, 1]
        refs = {si: prep.published for si, prep in svc._rosters.items()}
        for s in (svc, ref):
            s.remove(0)
        probe = [ln_pair.clean[0], *ln_pair.error[:10]]
        assert _batched(svc, probe) == _batched(ref, probe)
        assert {si: p.published for si, p in svc._rosters.items()} == refs
        assert svc.events.tail(kind="roster_publish") == published

    def test_stats_reports_per_shard_breakdown(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1, shards=3)
        out = svc.stats()
        assert len(out["shards"]) == 3
        assert sum(s["size"] for s in out["shards"]) == len(ln_pair.clean)
        assert set(out["shards"][0]) == {
            "size", "rows", "tombstones", "generation"
        }


def teardown_module(module):
    close_shared_pools()
