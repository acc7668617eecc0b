"""repro.obs — observability for the filter-and-verify pipeline.

Six small, dependency-free modules that every layer of the system
reports into:

* :mod:`repro.obs.stats` — :class:`StatsCollector`, the funnel counters
  (considered -> length-rejected -> FBF-rejected -> verified -> matched)
  with a falsy no-op default so the uninstrumented path costs nothing;
* :mod:`repro.obs.trace` — nested wall-time spans over
  ``time.perf_counter_ns`` (``with collector.span("fbf.filter"):``),
  each path's durations kept in a mergeable metrics histogram;
* :mod:`repro.obs.export` — the filtration-ratio table (text) and JSON
  snapshot, directly comparable to the paper's Tables 1-4 columns;
* :mod:`repro.obs.log` — the ``repro.*`` module-logger hierarchy behind
  the CLI's ``-v``/``-q`` flags;
* :mod:`repro.obs.metrics` — live telemetry: the
  :class:`MetricsRegistry` of counters, gauges and log-bucket
  histograms with Prometheus text + JSON snapshot/delta exposition
  (what the serving stack reports *while it runs*);
* :mod:`repro.obs.events` — the bounded JSON-lines :class:`EventLog`
  for discrete lifecycle events (compactions, worker respawns,
  snapshot load/save).

Quick tour::

    from repro import join
    from repro.obs import StatsCollector, render_funnel

    c = StatsCollector("ssn-join")
    join(left, right, "FPDL", k=1, collector=c)
    print(render_funnel(c))   # funnel table, then one row per span path
    assert c.conserved        # considered == rejected-by-stage + survivors
    c.tracer.as_dict()        # {"run.FPDL": {"calls": ..., "p99_ms": ...}, ...}
"""

from repro.obs.events import NULL_EVENTS, EventLog, NullEventLog
from repro.obs.export import render_funnel, stats_dict, write_stats_json
from repro.obs.log import ROOT_LOGGER_NAME, configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRICS,
    SPAN_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    log_buckets,
    registry_from_collector,
)
from repro.obs.stats import (
    NULL_COLLECTOR,
    NullStatsCollector,
    StageStat,
    StatsCollector,
)
from repro.obs.trace import NULL_SPAN, SpanStat, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COLLECTOR",
    "NULL_EVENTS",
    "NULL_METRICS",
    "NULL_SPAN",
    "NullEventLog",
    "NullMetricsRegistry",
    "NullStatsCollector",
    "ROOT_LOGGER_NAME",
    "SPAN_BUCKETS",
    "SpanStat",
    "StageStat",
    "StatsCollector",
    "Tracer",
    "configure_logging",
    "get_logger",
    "log_buckets",
    "registry_from_collector",
    "render_funnel",
    "stats_dict",
    "write_stats_json",
]
