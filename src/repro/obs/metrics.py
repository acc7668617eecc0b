"""Live telemetry: a metrics registry with Prometheus + JSON exposition.

The funnel counters (:mod:`repro.obs.stats`) and span tracer
(:mod:`repro.obs.trace`) answer "what did this run do" *after* it ends.
Since the serving stack (:mod:`repro.serve`) and the persistent worker
pool (:mod:`repro.parallel.shm`) run indefinitely, the system also needs
to answer "what is the service doing *right now*" — that is this
module's job.

Three instrument kinds, all O(1) to record and mergeable across pool
workers exactly like ``StatsCollector``/``Tracer`` are:

:class:`Counter`
    a monotonically non-decreasing total (requests served, cache hits);
:class:`Gauge`
    a value that goes both ways (index size, tombstone ratio, queue
    depth, per-worker busy ratio);
:class:`Histogram`
    a **fixed-bucket, log-spaced** distribution (request latency, batch
    size).  Recording is one bisect into the bucket bounds — no
    per-sample retention — so quantile estimates stay accurate over
    unbounded run lengths, unlike a sliding sample window whose
    percentiles only ever describe recent traffic.  The quantile
    estimator interpolates linearly inside the winning bucket, so its
    relative error is bounded by the bucket ratio (default ~1.78x, i.e.
    4 buckets per decade).

:class:`MetricsRegistry` owns the instruments, keyed by
``(name, labels)`` — labels are the Prometheus-style ``{key: value}``
dimensions (e.g. one gauge per pool worker pid).  It exports two ways:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition
  format (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``) that any
  Prometheus-compatible scraper ingests, served over HTTP by
  :mod:`repro.serve.httpd` and as the JSON-lines ``metrics`` op;
* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.delta` —
  JSON-ready dicts; ``delta`` subtracts a previous snapshot's counter
  and histogram totals so a poller sees per-interval rates while gauges
  stay absolute.

:data:`NULL_METRICS` is the falsy no-op twin (the
:data:`~repro.obs.stats.NULL_COLLECTOR` pattern): instruments it hands
out swallow every record, so uninstrumented paths cost one truthiness
test and the serving stack can be run with telemetry off for A/B
overhead measurements (``benchmarks/test_ablation_obs_overhead.py``).
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.stats import StatsCollector

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "SPAN_BUCKETS",
    "ms_summary",
    "registry_from_collector",
]


def log_buckets(
    lo: float, hi: float, *, per_decade: int = 4
) -> tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds covering ``[lo, hi]``.

    ``per_decade`` bounds per factor of 10, rounded to 3 significant
    digits so renderings are stable across platforms.  The returned
    tuple always starts at ``lo`` and ends at or one step above ``hi``.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    ratio = 10.0 ** (1.0 / per_decade)
    bounds: list[float] = []
    value = lo
    while True:
        bound = float(f"{value:.3g}")
        if not bounds or bound > bounds[-1]:
            bounds.append(bound)
        if bound >= hi:
            break
        value *= ratio
    return tuple(bounds)


#: request-latency bounds in seconds: 10 us .. 10 s, 4 buckets/decade
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-5, 10.0)
#: batch-size / count bounds: 1 .. 1e6, 2 buckets/decade
DEFAULT_SIZE_BUCKETS = log_buckets(1.0, 1e6, per_decade=2)
#: span wall-time bounds in seconds: 1 us .. 10^4 s, 8 buckets/decade
#: (ratio ~1.33), shared by every tracer so span histograms merge
SPAN_BUCKETS = log_buckets(1e-6, 1e4, per_decade=8)


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got inc({n})")
        self.value += n

    def set_total(self, total: float) -> None:
        """Adopt an externally-tracked running total (e.g. a pool's
        lifetime task count).  Monotonicity is preserved: a stale lower
        reading never rewinds the counter."""
        if total > self.value:
            self.value = total

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (last write wins on merge)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def as_dict(self) -> dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed log-spaced buckets; O(1) record, no per-sample retention.

    ``bounds`` are inclusive upper edges; one implicit ``+Inf`` bucket
    catches the overflow.  ``counts[i]`` is the number of observations
    with ``value <= bounds[i]`` (non-cumulative storage; the exposition
    cumulates), ``sum``/``count`` make means exact even though
    individual samples are forgotten.
    """

    __slots__ = ("bounds", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("bounds must be strictly increasing and non-empty")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]).

        Linear interpolation inside the winning bucket; the first
        bucket's lower edge is taken as 0 and the overflow bucket
        reports its lower edge (there is nothing to interpolate
        against).  Error is bounded by the bucket ratio.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for idx, n in enumerate(self.counts):
            if n == 0:
                continue
            previous = cumulative
            cumulative += n
            if cumulative >= rank:
                if idx >= len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                hi = self.bounds[idx]
                lo = self.bounds[idx - 1] if idx else 0.0
                fraction = (rank - previous) / n if n else 1.0
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
        return self.bounds[-1]  # pragma: no cover - rank <= count always

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        for idx, n in enumerate(other.counts):
            self.counts[idx] += n
        self.count += other.count
        self.sum += other.sum

    def summary(self) -> dict[str, float]:
        """Count / mean / p50 / p95 / p99 in the recorded unit."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def as_dict(self) -> dict[str, object]:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                **{f"{b:g}": n for b, n in zip(self.bounds, self.counts)},
                "+Inf": self.counts[-1],
            },
            **{k: v for k, v in self.summary().items() if k != "count"},
        }


def ms_summary(
    hist: Histogram, lo_ms: float = 0.0, hi_ms: float = math.inf
) -> dict[str, float]:
    """ms-unit count / mean / p50 / p95 / p99 of a seconds-unit
    histogram, quantiles clamped to ``[lo_ms, hi_ms]`` (a span's exact
    min and max)."""
    return {
        "count": hist.count,
        "mean_ms": hist.mean * 1e3,
        **{
            f"p{q}_ms": min(max(hist.quantile(q / 100) * 1e3, lo_ms), hi_ms)
            for q in (50, 95, 99)
        },
    }


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """Named, labelled instruments plus their exposition.

    Instruments are created on first use and cached — hot paths hold
    the returned object and call ``inc``/``set``/``observe`` directly,
    paying no dict lookups per record.  One registry per service (or
    per CLI run); worker registries fold in via :meth:`merge`.
    """

    def __init__(self) -> None:
        #: family name -> (kind, help text)
        self._families: dict[str, tuple[str, str]] = {}
        #: (name, labels) -> instrument, in creation order
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        #: bumped by every snapshot (so pollers can order them)
        self._seq = 0

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._series)

    # -- instrument access ---------------------------------------------------

    def _get(
        self,
        cls,
        name: str,
        help_: str,
        labels: Mapping[str, str] | None,
        **kwargs,
    ):
        family = self._families.get(name)
        if family is None:
            self._families[name] = (cls.kind, help_)
        elif family[0] != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, "
                f"not a {cls.kind}"
            )
        key = (name, _label_key(labels))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = cls(**kwargs)
        return instrument

    def counter(
        self,
        name: str,
        help_: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        return self._get(Counter, name, help_, labels)

    def gauge(
        self,
        name: str,
        help_: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        return self._get(Gauge, name, help_, labels)

    def histogram(
        self,
        name: str,
        help_: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help_, labels, bounds=buckets)

    def series(self) -> Iterator[tuple[str, dict[str, str], object]]:
        """``(family, labels, instrument)`` in creation order."""
        for (name, labels), instrument in self._series.items():
            yield name, dict(labels), instrument

    def remove_series(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> bool:
        """Drop one labelled series so it stops appearing in scrapes.

        Registries are append-only for live instruments, but series
        labelled by an *identity that can die* — a worker pid — must
        be retired when the identity goes away, or every scrape
        re-reports a ghost forever.  Returns
        whether the series existed; when a family loses its last series
        the family (TYPE/HELP) entry is dropped too.

        Holders of the removed instrument object can keep recording
        into it harmlessly — it is simply no longer rendered.
        """
        key = (name, _label_key(labels))
        if self._series.pop(key, None) is None:
            return False
        if not any(n == name for n, _ in self._series):
            self._families.pop(name, None)
        return True

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters and histograms add,
        gauges take the other's (more recent) value."""
        for (name, labels), theirs in other._series.items():
            kind, help_ = other._families[name]
            mine = self._get(
                type(theirs),
                name,
                help_,
                dict(labels),
                **(
                    {"bounds": theirs.bounds}
                    if isinstance(theirs, Histogram)
                    else {}
                ),
            )
            mine.merge(theirs)

    # -- exposition ----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """JSON-ready full state: one entry per series plus a sequence
        number and wall-clock timestamp."""
        self._seq += 1
        return {
            "seq": self._seq,
            "ts": time.time(),
            "metrics": {
                _series_name(name, key): instrument.as_dict()
                for (name, key), instrument in self._series.items()
            },
        }

    @staticmethod
    def delta(
        current: Mapping[str, object], previous: Mapping[str, object] | None
    ) -> dict[str, object]:
        """Per-interval view between two :meth:`snapshot` results.

        Counter values and histogram count/sum/buckets become
        differences against ``previous`` (new series diff against
        zero); gauges pass through absolute.  With ``previous=None``
        the snapshot itself is returned under the same shape.
        """
        prev_metrics: Mapping[str, object] = (
            previous.get("metrics", {}) if previous else {}
        )
        out: dict[str, object] = {}
        for key, cur in current["metrics"].items():  # type: ignore[index]
            old = prev_metrics.get(key)
            if cur["type"] == "gauge" or old is None:
                out[key] = dict(cur)
                continue
            if cur["type"] == "counter":
                out[key] = {
                    "type": "counter",
                    "value": cur["value"] - old["value"],
                }
            else:  # histogram
                out[key] = {
                    "type": "histogram",
                    "count": cur["count"] - old["count"],
                    "sum": cur["sum"] - old["sum"],
                    "buckets": {
                        b: n - old["buckets"].get(b, 0)
                        for b, n in cur["buckets"].items()
                    },
                }
        return {
            "seq": current["seq"],
            "ts": current["ts"],
            "since_seq": previous["seq"] if previous else None,
            "metrics": out,
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        ``# HELP``/``# TYPE`` once per family, then one line per
        series; histograms expand to cumulative ``_bucket{le=...}``
        lines plus ``_sum`` and ``_count``.
        """
        by_family: dict[str, list[tuple[tuple[tuple[str, str], ...], object]]]
        by_family = {}
        for (name, labels), instrument in self._series.items():
            by_family.setdefault(name, []).append((labels, instrument))
        lines: list[str] = []
        for name, series in by_family.items():
            kind, help_ = self._families[name]
            if help_:
                lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, instrument in series:
                if isinstance(instrument, Histogram):
                    cumulative = 0
                    for bound, n in zip(instrument.bounds, instrument.counts):
                        cumulative += n
                        lines.append(
                            _series_name(
                                f"{name}_bucket",
                                labels + (("le", f"{bound:g}"),),
                            )
                            + f" {cumulative}"
                        )
                    lines.append(
                        _series_name(
                            f"{name}_bucket", labels + (("le", "+Inf"),)
                        )
                        + f" {instrument.count}"
                    )
                    lines.append(
                        _series_name(f"{name}_sum", labels)
                        + f" {_fmt(instrument.sum)}"
                    )
                    lines.append(
                        _series_name(f"{name}_count", labels)
                        + f" {instrument.count}"
                    )
                else:
                    lines.append(
                        _series_name(name, labels)
                        + f" {_fmt(instrument.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def write_json(self, path) -> None:
        """Write :meth:`snapshot` as pretty-printed JSON."""
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.snapshot(), indent=2, default=str) + "\n"
        )


def _fmt(value: float) -> str:
    return f"{value:g}"


class _NullInstrument:
    """One object impersonating all three instrument kinds, discarding
    every record."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, total: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def merge(self, other: object) -> None:
        pass

    def as_dict(self) -> dict[str, object]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Falsy no-op registry: telemetry off costs a truthiness test."""

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def counter(self, name, help_="", labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name, help_="", labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name, help_="", labels=None, buckets=DEFAULT_LATENCY_BUCKETS
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def series(self):
        return iter(())

    def merge(self, other) -> None:
        pass

    def snapshot(self) -> dict[str, object]:
        return {"seq": 0, "ts": 0.0, "metrics": {}}

    delta = staticmethod(MetricsRegistry.delta)

    def render_prometheus(self) -> str:
        return ""

    def write_json(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(json.dumps(self.snapshot()) + "\n")


#: shared no-op instance (the NULL_COLLECTOR pattern)
NULL_METRICS = NullMetricsRegistry()


def registry_from_collector(collector: "StatsCollector") -> MetricsRegistry:
    """Bridge a batch join's :class:`~repro.obs.stats.StatsCollector`
    into a registry (the CLI's ``--metrics-json`` on one-shot joins).

    Funnel totals and free-form counters become counters, per-stage
    pass/reject pairs become labelled counters, and every span path's
    histogram merges into a ``repro_join_span_seconds`` series.
    """
    registry = MetricsRegistry()
    prefix = "repro_join"
    for key in ("pairs_considered", "survivors", "verified", "matched"):
        registry.counter(
            f"{prefix}_{key}_total", f"funnel {key} (original-pair units)"
        ).inc(getattr(collector, key))
    for stage in collector.stages.values():
        for outcome, n in (
            ("tested", stage.tested),
            ("passed", stage.passed),
            ("rejected", stage.rejected),
        ):
            registry.counter(
                f"{prefix}_stage_pairs_total",
                "per-stage funnel flow",
                labels={"stage": stage.name, "outcome": outcome},
            ).inc(n)
    for name, n in {
        **collector.verifier_counters,
        **collector.counters,
    }.items():
        registry.counter(
            f"{prefix}_{name}_total", "collector free-form tally"
        ).inc(n)
    for path, stat in collector.tracer.spans.items():
        registry.histogram(
            f"{prefix}_span_seconds",
            "span wall time",
            labels={"path": path},
            buckets=SPAN_BUCKETS,
        ).merge(stat.hist)
    for name, child in collector.children.items():
        registry.merge(registry_from_collector(child))
    return registry
