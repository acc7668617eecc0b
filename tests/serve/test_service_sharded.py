"""Sharded `MatchService` behaviour: scatter/gather equivalence (both
in-process and pooled), per-shard telemetry, snapshot-based handoff
events, and load-driven rebalancing.
"""

import pytest

from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector
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

    def test_shard_worker_gauges_published(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1, shards=4, workers=2)
        svc.query_batch(ln_pair.error[:10])
        svc.refresh_metrics()
        snap = svc.metrics_snapshot()["metrics"]
        placements = {
            name: v["value"]
            for name, v in snap.items()
            if name.startswith("shard_worker{")
        }
        assert len(placements) == 4
        assert set(placements.values()) <= {0.0, 1.0}

    def test_handoff_emits_event_and_counter(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1, shards=2, workers=2)
        svc.query_batch(ln_pair.error[:10])  # first publish per shard
        svc.add("BRANDNEWNAME")
        svc.query_batch(ln_pair.error[:10])  # re-publish -> handoff
        handoffs = svc.events.tail(kind="shard_handoff")
        assert handoffs and "shard" in handoffs[0]
        snap = svc.metrics_snapshot()["metrics"]
        assert snap["shard_handoffs_total"]["value"] >= 1.0

    def test_remove_keeps_published_shard_rosters(self, ln_pair):
        svc = MatchService(
            ln_pair.clean, k=1, shards=2, workers=2, compact_ratio=None
        )
        ref = MatchService(ln_pair.clean, k=1, compact_ratio=None)
        svc.query_batch(ln_pair.error[:10])
        stamps = {si: prep.stamp for si, prep in svc._rosters.items()}
        for s in (svc, ref):
            s.remove(0)
        probe = [ln_pair.clean[0], *ln_pair.error[:10]]
        assert _batched(svc, probe) == _batched(ref, probe)
        assert {si: p.stamp for si, p in svc._rosters.items()} == stamps
        assert not svc.events.tail(kind="shard_handoff")

    def test_stats_reports_per_shard_breakdown(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1, shards=3)
        out = svc.stats()
        assert len(out["shards"]) == 3
        assert sum(s["size"] for s in out["shards"]) == len(ln_pair.clean)
        assert {"rows", "tombstones", "generation", "slot"} <= set(
            out["shards"][0]
        )


class TestRebalance:
    def test_rebalance_is_identity_for_single_shard(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1)
        assert svc.rebalance() == dict(svc._placement)

    def test_rebalance_spreads_load_and_emits_event(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1, shards=4, workers=2)
        svc.query_batch(ln_pair.error[:20])
        # Skew the observed load so the greedy pass must move something.
        svc._shard_load = {0: 1000, 1: 900, 2: 1, 3: 1}
        placement = svc.rebalance()
        assert set(placement) == {0, 1, 2, 3}
        assert set(placement.values()) == {0, 1}
        # The two heavy shards end up on different workers.
        assert placement[0] != placement[1]
        events = svc.events.tail(kind="shard_rebalance")
        assert events and "placement" in events[-1]
        snap = svc.metrics_snapshot()["metrics"]
        assert snap["shard_rebalances_total"]["value"] >= 1.0

    def test_balanced_load_keeps_default_placement(self, ln_pair):
        svc = MatchService(ln_pair.clean, k=1, shards=4, workers=2)
        svc.query_batch(ln_pair.error[:20])
        before = dict(svc._placement)
        svc._shard_load = {si: 10 for si in range(4)}
        svc.rebalance()
        assert svc._placement == before


def teardown_module(module):
    close_shared_pools()
