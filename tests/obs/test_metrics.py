"""Unit tests for the live-telemetry metrics registry."""

import json
import math

import pytest

from repro.obs import StatsCollector
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    registry_from_collector,
)
from repro.obs.trace import SpanStat


class TestLogBuckets:
    def test_spans_range_log_spaced(self):
        bounds = log_buckets(1e-3, 1.0)
        assert bounds[0] == 1e-3
        assert bounds[-1] >= 1.0
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        # 4/decade -> ratio ~1.778, rounded to 3 sig figs
        assert all(1.5 < r < 2.1 for r in ratios)

    def test_strictly_increasing(self):
        bounds = log_buckets(1.0, 1e6, per_decade=2)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(2.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, per_decade=0)

    def test_default_latency_buckets_cover_us_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-5
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


class TestCounter:
    def test_monotone(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_total_never_rewinds(self):
        c = Counter()
        c.set_total(10)
        assert c.value == 10
        c.set_total(7)  # stale reading
        assert c.value == 10
        c.set_total(12)
        assert c.value == 12

    def test_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(2)
        b.inc(3)
        a.merge(b)
        assert a.value == 5


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4

    def test_merge_last_write_wins(self):
        a, b = Gauge(), Gauge()
        a.set(1)
        b.set(9)
        a.merge(b)
        assert a.value == 9


class TestHistogram:
    def test_observe_is_bucketed_not_retained(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # last is the +Inf bucket
        assert h.count == 4
        assert h.sum == 555.5
        assert h.mean == pytest.approx(138.875)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_quantiles_empty_and_single(self):
        h = Histogram(bounds=(1.0, 10.0))
        assert h.quantile(0.99) == 0.0
        h.observe(5.0)
        # One sample in (1, 10]: every quantile lands in that bucket.
        assert 1.0 <= h.quantile(0.5) <= 10.0

    def test_quantile_error_bounded_by_bucket_ratio(self):
        h = Histogram()
        true = [0.001 * (i + 1) for i in range(1000)]  # 1ms..1s uniform
        for v in true:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            exact = true[math.ceil(q * len(true)) - 1]
            estimate = h.quantile(q)
            assert exact / 1.9 <= estimate <= exact * 1.9

    def test_overflow_quantile_reports_top_bound(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.quantile(0.99) == 2.0

    def test_quantile_validates_q(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_merge_requires_same_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_adds_everything(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(50.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.sum == 55.5

    def test_summary_keys(self):
        s = Histogram().summary()
        assert set(s) == {"count", "mean", "p50", "p95", "p99"}


class TestMetricsRegistry:
    def test_get_or_create_caches_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.gauge("g", labels={"x": "1"}) is not reg.gauge(
            "g", labels={"x": "2"}
        )
        assert len(reg) == 3

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", labels={"x": "1", "y": "2"})
        b = reg.gauge("g", labels={"y": "2", "x": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ValueError):
            reg.gauge("n")

    def test_remove_series_drops_one_labelset(self):
        reg = MetricsRegistry()
        reg.gauge("g", labels={"pid": "1"}).set(1)
        reg.gauge("g", labels={"pid": "2"}).set(2)
        assert reg.remove_series("g", {"pid": "1"}) is True
        assert reg.remove_series("g", {"pid": "1"}) is False  # idempotent
        snap = reg.snapshot()["metrics"]
        assert 'g{pid="1"}' not in snap
        assert snap['g{pid="2"}']["value"] == 2.0

    def test_remove_last_series_drops_the_family(self):
        reg = MetricsRegistry()
        reg.gauge("solo", labels={"x": "1"})
        assert reg.remove_series("solo", {"x": "1"}) is True
        assert "solo" not in reg.render_prometheus()
        # The name is free again for a different kind.
        reg.counter("solo")

    def test_merge_folds_workers(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.counter("req_total").inc(5)
        worker.counter("req_total").inc(3)
        worker.gauge("depth").set(7)
        worker.histogram("lat_seconds").observe(0.01)
        main.merge(worker)
        assert main.counter("req_total").value == 8
        assert main.gauge("depth").value == 7
        assert main.histogram("lat_seconds").count == 1

    def test_snapshot_and_delta(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total")
        g = reg.gauge("depth")
        h = reg.histogram("lat_seconds")
        c.inc(5)
        g.set(2)
        h.observe(0.01)
        first = reg.snapshot()
        c.inc(3)
        g.set(9)
        h.observe(0.02)
        second = reg.snapshot()
        assert second["seq"] == first["seq"] + 1
        d = MetricsRegistry.delta(second, first)
        assert d["since_seq"] == first["seq"]
        assert d["metrics"]["req_total"]["value"] == 3  # per-interval
        assert d["metrics"]["depth"]["value"] == 9  # gauges absolute
        assert d["metrics"]["lat_seconds"]["count"] == 1

    def test_delta_without_previous_passes_through(self):
        reg = MetricsRegistry()
        reg.counter("req_total").inc(5)
        snap = reg.snapshot()
        d = MetricsRegistry.delta(snap, None)
        assert d["metrics"]["req_total"]["value"] == 5
        assert d["since_seq"] is None

    def test_write_json_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests").inc(2)
        path = tmp_path / "m.json"
        reg.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["metrics"]["req_total"]["value"] == 2


class TestPrometheusExposition:
    def test_families_and_series(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests served").inc(5)
        reg.gauge("depth", "queue depth", labels={"op": "query"}).set(2)
        text = reg.render_prometheus()
        assert "# HELP req_total requests served" in text
        assert "# TYPE req_total counter" in text
        assert "req_total 5" in text
        assert 'depth{op="query"} 2' in text
        assert text.endswith("\n")

    def test_histogram_expands_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        text = reg.render_prometheus()
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="10"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 55.5" in text
        assert "lat_seconds_count 3" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("g", labels={"p": 'a"b\\c'}).set(1)
        assert 'g{p="a\\"b\\\\c"} 1' in reg.render_prometheus()

    def test_parses_as_prometheus_text(self):
        """Structural check of the 0.0.4 text format: every non-comment
        line is `name{labels} value`, TYPE precedes its samples, and
        histogram bucket counts are monotone in le-order."""
        reg = MetricsRegistry()
        reg.counter("req_total", "requests").inc(3)
        reg.histogram("lat_seconds", "latency").observe(0.01)
        reg.gauge("depth", labels={"op": "query"}).set(1)
        typed: dict[str, str] = {}
        for line in reg.render_prometheus().splitlines():
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(maxsplit=3)
                typed[name] = kind
                continue
            if line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            float(value)  # must parse
            base = name_part.split("{", 1)[0]
            family = base
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base[: -len(suffix)] in typed:
                    family = base[: -len(suffix)]
            assert family in typed, line
        assert typed == {
            "req_total": "counter",
            "lat_seconds": "histogram",
            "depth": "gauge",
        }


class TestNullMetrics:
    def test_falsy_and_inert(self):
        assert not NULL_METRICS
        c = NULL_METRICS.counter("x")
        c.inc(5)
        assert c.value == 0.0
        NULL_METRICS.histogram("h").observe(1.0)
        assert NULL_METRICS.render_prometheus() == ""
        assert NULL_METRICS.snapshot()["metrics"] == {}
        assert len(NULL_METRICS) == 0

    def test_same_instrument_for_everything(self):
        assert NULL_METRICS.counter("a") is NULL_METRICS.gauge("b")


class TestRegistryFromCollector:
    def test_bridges_funnel_and_spans(self):
        collector = StatsCollector("join")
        collector.pairs_considered += 100
        collector.survivors += 10
        collector.verified += 10
        collector.matched += 4
        stage = collector.stage("fbf")
        stage.tested += 100
        stage.passed += 10
        collector.add_counter("collapse_savings", 5)
        with collector.span("verify"):
            pass
        reg = registry_from_collector(collector)
        text = reg.render_prometheus()
        assert "repro_join_pairs_considered_total 100" in text
        assert (
            'repro_join_stage_pairs_total{outcome="rejected",stage="fbf"} 90'
            in text
        )
        assert "repro_join_collapse_savings_total 5" in text
        hist = reg.histogram(
            "repro_join_span_seconds", labels={"path": "verify"}
        )
        assert hist.count == 1

    def test_span_histogram_equals_tracer_histogram(self):
        collector = StatsCollector("join")
        for _ in range(3):
            with collector.span("verify"):
                pass
        stat = collector.tracer.spans["verify"]
        reg = registry_from_collector(collector)
        hist = reg.histogram(
            "repro_join_span_seconds", labels={"path": "verify"}
        )
        assert hist.count == 3
        assert sum(hist.counts) == 3
        assert hist.bounds == stat.hist.bounds
        assert hist.counts == stat.hist.counts

    def test_many_calls_bridge_to_consistent_histograms(self):
        """3,001 calls spread over seven decades (1 us .. 10 s): every
        bridged histogram's buckets sum to its count, and the
        exposition's cumulative buckets climb to ``+Inf`` == ``_count``."""
        collector = StatsCollector("join")
        stat = collector.tracer.spans["run.FPDL"] = SpanStat("run.FPDL")
        for i in range(3001):
            stat.record(int(10 ** (3 + 7 * i / 3000)))
        reg = registry_from_collector(collector)
        histograms = [
            inst for _, _, inst in reg.series() if isinstance(inst, Histogram)
        ]
        assert histograms
        for hist in histograms:
            assert sum(hist.counts) == hist.count
        buckets: dict[str, list[float]] = {}
        counts: dict[str, float] = {}
        for line in reg.render_prometheus().splitlines():
            if line.startswith("#"):
                continue
            series, _, value = line.rpartition(" ")
            if "_bucket{" in series:
                labels = series.split("{", 1)[1]
                key = labels.split(',le="', 1)[0]
                buckets.setdefault(key, []).append(float(value))
            elif "_count{" in series:
                counts[series.split("{", 1)[1].rstrip("}")] = float(value)
        assert counts == {'path="run.FPDL"': 3001.0}
        for key, cumulative in buckets.items():
            assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
            assert cumulative[-1] == counts[key]  # le="+Inf" == _count

    def test_children_fold_in(self):
        parent = StatsCollector("join")
        child = parent.child("worker0")
        child.pairs_considered += 7
        reg = registry_from_collector(parent)
        assert reg.counter("repro_join_pairs_considered_total").value == 7
