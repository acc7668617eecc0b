"""Lightweight nested-span tracing over ``time.perf_counter_ns``.

The paper's evaluation decomposes every method's cost into per-stage
wall time (signature generation, filtering, verification — the "Gen"
rows and time columns of Tables 1-4).  :class:`Tracer` records the same
decomposition at runtime: a *span* is a named ``with`` block, spans
nest, and each distinct nesting path accumulates into one
:class:`SpanStat`.

Design constraints, in order:

1. **Cheap when on.**  A span entry/exit is two ``perf_counter_ns``
   calls, one list push/pop, one dict upsert and one histogram
   observation; no objects are retained per call, only per distinct
   path.  When off, :data:`NULL_SPAN` (what the falsy
   :data:`~repro.obs.stats.NULL_COLLECTOR` hands out) costs nothing.
2. **Exact merges.**  Parallel drivers trace into private tracers and
   :meth:`Tracer.merge` them into one, mirroring how their counters
   merge: calls, totals, min and max add or compare exactly, and the
   latency distribution is a :class:`~repro.obs.metrics.Histogram`
   over the fixed :data:`~repro.obs.metrics.SPAN_BUCKETS`, so merging
   is elementwise addition and a worker's pickled tracer folds in with
   no loss.

Usage::

    tracer = Tracer()
    with tracer.span("run.FPDL"):
        with tracer.span("fbf.filter"):
            ...
    tracer.spans        # {"run.FPDL": SpanStat(...), "run.FPDL/fbf.filter": ...}

Nested spans key under their full path with ``/`` separators, e.g.
``"join/fbf.filter"`` — span *names* keep their conventional dots.

Percentiles are the histogram's interpolated quantiles clamped to the
span's exact ``[min, max]``: within one bucket ratio (~1.33x) of the
true nearest-rank value, and exact for a span recorded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.obs.metrics import SPAN_BUCKETS, Histogram, ms_summary

__all__ = ["SpanStat", "Tracer", "NULL_SPAN"]


@dataclass
class SpanStat:
    """Accumulated timing for one span path.

    ``calls``, ``total_ns``, ``min_ns`` and ``max_ns`` are exact over
    every recorded call; ``hist`` buckets each call's duration in
    seconds for the latency percentiles.
    """

    path: str
    calls: int = 0
    total_ns: int = 0
    min_ns: int = 0
    max_ns: int = 0
    hist: Histogram = field(default_factory=lambda: Histogram(SPAN_BUCKETS))

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0

    @property
    def mean_ms(self) -> float:
        return self.mean_ns / 1e6

    def record(self, elapsed_ns: int) -> None:
        """Fold one call's duration in."""
        if not self.calls or elapsed_ns < self.min_ns:
            self.min_ns = elapsed_ns
        if elapsed_ns > self.max_ns:
            self.max_ns = elapsed_ns
        self.hist.observe(elapsed_ns / 1e9)
        self.calls += 1
        self.total_ns += elapsed_ns

    def absorb(self, other: "SpanStat") -> None:
        """Fold another stat for the same path in (the merge path)."""
        if not other.calls:
            return
        if not self.calls or other.min_ns < self.min_ns:
            self.min_ns = other.min_ns
        self.max_ns = max(self.max_ns, other.max_ns)
        self.hist.merge(other.hist)
        self.calls += other.calls
        self.total_ns += other.total_ns

    def summary(self) -> dict[str, float]:
        """Latency summary: count / mean / p50 / p95 / p99 (ms)."""
        return {
            **ms_summary(self.hist, self.min_ns / 1e6, self.max_ns / 1e6),
            "mean_ms": self.mean_ms,
        }

    @property
    def p50_ms(self) -> float:
        return self.summary()["p50_ms"]

    @property
    def p95_ms(self) -> float:
        return self.summary()["p95_ms"]

    @property
    def p99_ms(self) -> float:
        return self.summary()["p99_ms"]


class _Span:
    """One live ``with`` block; records into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._name)
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter_ns() - self._t0
        tracer = self._tracer
        path = "/".join(tracer._stack)
        tracer._stack.pop()
        stat = tracer.spans.get(path)
        if stat is None:
            stat = tracer.spans[path] = SpanStat(path)
        stat.record(elapsed)
        return False


class _NullSpan:
    """Reusable do-nothing context manager (the no-collector span)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Accumulates :class:`SpanStat` per distinct nesting path."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStat] = {}
        self._stack: list[str] = []

    def span(self, name: str) -> _Span:
        """A context manager timing one named (possibly nested) span."""
        return _Span(self, name)

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's accumulated spans into this one."""
        for path, stat in other.spans.items():
            mine = self.spans.get(path)
            if mine is None:
                mine = self.spans[path] = SpanStat(path)
            mine.absorb(stat)

    def as_dict(self) -> dict[str, dict[str, float]]:
        """JSON-ready view: path -> {calls, total_ms, latency summary}."""
        return {
            path: {
                "calls": s.calls,
                "total_ms": s.total_ms,
                **{k: v for k, v in s.summary().items() if k != "count"},
            }
            for path, s in self.spans.items()
        }
