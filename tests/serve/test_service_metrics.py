"""Telemetry wiring through MatchService: histograms, counters,
gauges, events, snapshot/delta, and the metrics on/off/shared modes."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.service import MatchService

NAMES = ["SMITH", "SMYTH", "JONES", "JONSE", "BROWN"]


@pytest.fixture
def svc():
    return MatchService(NAMES, k=1)


class TestRequestInstruments:
    def test_query_observes_latency_and_counts(self, svc):
        svc.query("SMITH")
        svc.query("SMITH")  # cache hit
        assert svc._c_queries.value == 2
        assert svc._h_query.count == 2
        assert svc._c_cache_hits.value == 1
        assert svc._c_cache_misses.value == 1
        assert svc._h_query.sum > 0.0

    def test_batch_observes_size_and_per_query_count(self, svc):
        svc.query_batch(["SMITH", "JONES", "NOPE"])
        assert svc._c_queries.value == 3
        assert svc._h_batch.count == 1
        assert svc._h_batch_size.count == 1
        assert svc._h_batch_size.sum == 3.0
        assert svc._h_query.count == 0  # separate op label

    def test_queue_depth_resets_after_batch(self, svc):
        svc.query_batch(["SMITH", "JONES"])
        assert svc._g_queue_depth.value == 0

    def test_engine_rebuild_counts_full_builds_only(self, svc, tmp_path):
        svc.index.compact_ratio = None
        svc.query_batch(["SMITH"])
        assert svc._c_engine_rebuilds.value == 1
        svc.query_batch(["JONES"])  # nothing changed: no rebuild
        svc.add("NEW")  # extended in place
        svc.query_batch(["SMITH"])
        svc.remove(0)  # tombstoned, filtered after verification
        svc.query_batch(["JONES"])
        assert svc._c_engine_rebuilds.value == 1
        svc.compact()  # a new index: full build
        svc.query_batch(["SMITH"])
        assert svc._c_engine_rebuilds.value == 2
        kinds = [e["kind"] for e in svc.events.tail()]
        assert kinds.count("engine_rebuild") == 2
        # A snapshot stores the side: the loaded service builds nothing.
        warm = MatchService.load(svc.save(tmp_path / "svc.npz"))
        warm.query_batch(["SMITH"])
        assert warm._c_engine_rebuilds.value == 0

    def test_stats_latency_from_histograms(self, svc):
        svc.query("SMITH")
        stats = svc.stats()
        lat = stats["latency"]["query"]
        assert lat["count"] == 1
        assert lat["p95_ms"] >= 0.0
        assert stats["events"] == svc.events.total


class TestIndexGauges:
    def test_mutations_keep_gauges_current(self, svc):
        reg = svc.metrics
        svc.add("EXTRA")
        assert reg.gauge("index_size").value == 6
        svc.index.compact_ratio = None
        svc.remove(0)
        assert reg.gauge("index_size").value == 5
        assert reg.gauge("index_tombstone_ratio").value > 0.0
        svc.compact()
        assert reg.gauge("index_tombstone_ratio").value == 0.0
        assert reg.counter("index_compactions_total").value == 1
        assert any(e["kind"] == "compaction" for e in svc.events.tail())

    def test_refresh_metrics_updates_cache_gauge(self, svc):
        svc.query("SMITH")
        svc.refresh_metrics()
        assert svc.metrics.gauge("serve_cache_entries").value == 1


class TestSnapshotDelta:
    def test_delta_is_stateful_per_service(self, svc):
        svc.query("SMITH")
        first = svc.metrics_delta()  # no previous: absolute
        assert first["metrics"]["serve_queries_total"]["value"] == 1
        svc.query("JONES")
        second = svc.metrics_delta()
        assert second["metrics"]["serve_queries_total"]["value"] == 1
        assert second["since_seq"] == first["seq"]

    def test_snapshot_includes_index_gauges(self, svc):
        snap = svc.metrics_snapshot()
        assert snap["metrics"]["index_size"]["value"] == len(NAMES)


class TestTelemetryModes:
    def test_metrics_off_is_null_everywhere(self):
        svc = MatchService(NAMES, k=1, metrics=False)
        svc.query("SMITH")
        svc.query_batch(["JONES"])
        svc.note_request_error("bad_json")
        assert not svc.metrics
        assert not svc.events
        assert svc.metrics_snapshot()["metrics"] == {}
        assert "latency" not in svc.stats()

    def test_shared_registry_adopted(self):
        shared = MetricsRegistry()
        svc = MatchService(NAMES, k=1, metrics=shared)
        svc.query("SMITH")
        assert shared.counter("serve_queries_total").value == 1

    def test_load_wires_telemetry_and_logs_event(self, svc, tmp_path):
        path = svc.save(tmp_path / "snap.npz")
        assert any(e["kind"] == "snapshot_save" for e in svc.events.tail())
        warm = MatchService.load(path)
        assert any(e["kind"] == "snapshot_load" for e in warm.events.tail())
        warm.query("SMITH")
        assert warm.metrics.counter("serve_queries_total").value == 1
        cold = MatchService.load(path, metrics=False)
        assert not cold.metrics
        cold.query("SMITH")  # still answers


@pytest.mark.usefixtures("hybrid_batches")
class TestPooledHeartbeats:
    def test_pooled_batch_publishes_worker_gauges(self):
        from repro.parallel.shm import close_shared_pools

        svc = MatchService(NAMES * 40, k=1, workers=2)
        try:
            svc.query_batch([f"Q{i}" for i in range(32)] + ["SMITH"])
            names = {name for name, _, _ in svc.metrics.series()}
            assert "pool_workers" in names
            assert "pool_worker_busy_ratio" in names
            assert svc.metrics.gauge("pool_workers").value == 2
            # refresh_metrics re-polls the shared pool without traffic
            svc.refresh_metrics()
            assert (
                svc.metrics.counter("pool_tasks_completed_total").value > 0
            )
        finally:
            close_shared_pools()
