"""The online match-serving facade.

:class:`MatchService` ties the serve layer together: a
:class:`~repro.serve.mutable.MutableIndex` for storage, a
generation-keyed :class:`~repro.serve.cache.ResultCache` in front of
it, and one query path: :meth:`query` is a batch of one, and every
uncached batch is one :class:`~repro.core.plan.JoinPlanner` run against
the roster instead of per-query scalar DP.

Batching matters for the same reason the join layer is vectorized: one
query against an FBF index spends most of its time in Python dispatch
(signature, bucket walk, small DP calls), while a batch amortises that
into one compiled pass (or a handful of NumPy sweeps) over packed
arrays.  Every uncached batch takes one path, whatever its method: one
PASS-JOIN planner run of the OSA stack against the roster, on the
backend the planner's cost model picks.
Levenshtein (``"myers"``) is never below OSA, so its matches are the
OSA matches it puts within ``k``.  Its matches stay arrays up to the API
edge: the pass emits (batch position, roster row) as two ``int64``
arrays, and the fold drops tombstones, maps rows to ids and strings,
sorts once and cuts per-query runs in bulk, so the only per-query
Python left is building each :class:`QueryResult`.  The roster's side
of the join (codes, signatures, the PASS-JOIN index, the shared-memory
publication a hybrid run makes) depends only on its rows, so it is the
:class:`~repro.serve.mutable.MutableIndex`'s one
:class:`~repro.parallel.prepared.PreparedSide`, shared by every batch.
Writes do not rebuild it: a remove only tombstones a row (filtered
after verification), and an add appends a row, which the prepared side
folds in on the next batch.

Observability plugs into the same :class:`~repro.obs.stats
.StatsCollector` funnel the batch joins use: every query is a
considered-pairs row, cache traffic and compactions land in the
collector's counters, and per-call latency lands in the tracer's
span histograms.  The funnel conservation invariant
(``pairs == rejected + survivors``) holds for served traffic exactly
as it does for batch joins — the batched path follows the planner's
generator-accounting pattern so candidates are never double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from time import perf_counter_ns

from repro.core.index import FBFIndex
from repro.core.plan import JoinPlanner
from repro.core.signatures import SignatureScheme
from repro.distance.levenshtein import bounded_levenshtein
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    ms_summary,
)
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.prepared import PreparedSide
from repro.serve.cache import MISS, ResultCache
from repro.serve.mutable import MutableIndex
from repro.serve.snapshot import load_index, save_index

__all__ = ["MatchService", "QueryResult"]

@dataclass(frozen=True)
class QueryResult:
    """One answered query.

    ``ids`` are the index's stable external ids (sorted ascending) and
    ``matches`` the corresponding strings; ``cached`` tells whether the
    answer came from the result cache, and ``generation`` pins the
    index state it is valid for.
    """

    value: str
    method: str
    k: int
    ids: tuple[int, ...]
    matches: tuple[str, ...]
    cached: bool
    generation: int


class MatchService:
    """Online approximate-match serving over a mutable roster.

    Parameters
    ----------
    strings:
        Initial population (external ids ``0..n-1``).
    k:
        Default edit-distance threshold for queries.
    scheme, verifier:
        Roster configuration (see
        :class:`~repro.serve.mutable.MutableIndex`); ``verifier`` is the
        default query method.
    cache_size:
        Result-cache bound (``0`` disables caching).
    compact_ratio:
        Tombstone fraction triggering automatic compaction (``None``
        disables it).
    collector:
        Optional :class:`~repro.obs.stats.StatsCollector` receiving the
        filter funnel, cache/compaction counters and latency spans.
    metrics:
        Live telemetry.  ``None`` (default) creates a fresh
        :class:`~repro.obs.metrics.MetricsRegistry`; pass an existing
        registry to share one, or ``False`` to disable recording
        entirely (the no-op registry).  The registry carries request
        latency histograms, cache and error counters, index/queue
        gauges and — with ``workers > 1`` — per-worker pool heartbeat
        gauges; :attr:`events` records lifecycle events (compaction,
        snapshot save/load, engine rebuild, worker respawn).  Exposed
        by the JSON-lines ``metrics`` op and the optional HTTP
        ``/metrics`` listener (:mod:`repro.serve.httpd`).
    workers:
        The worker count handed to the join planner.  Every uncached
        batch is one :class:`~repro.core.plan.JoinPlanner` run against
        the roster with the PASS-JOIN generator, and the planner alone
        picks the backend from the batch's product: the scalar loop for
        the smallest products, the hybrid shared-memory pool when
        ``workers > 1`` and the product amortizes it (its workers probe
        PASS-JOIN themselves), else the compiled tier when a provider
        loads (``REPRO_NO_NATIVE=1`` pins NumPy), else NumPy.  A hybrid run
        publishes the roster's prepared side on first use and renews
        the publication only after adds or compaction (never after a
        remove); each batch ships only its query-side arrays.  Answers
        are identical on every backend.
    """

    def __init__(
        self,
        strings: Sequence[str] = (),
        *,
        k: int = 1,
        scheme: SignatureScheme | str | None = None,
        verifier: str = "osa",
        cache_size: int = 1024,
        compact_ratio: float | None = 0.25,
        collector=None,
        workers: int | None = None,
        metrics: MetricsRegistry | bool | None = None,
    ):
        index = MutableIndex(
            strings,
            scheme=scheme,
            verifier=verifier,
            compact_ratio=compact_ratio,
        )
        self._init_state(
            index,
            k=k,
            cache_size=cache_size,
            collector=collector,
            workers=workers,
            metrics=metrics,
        )

    def _init_state(
        self,
        index: MutableIndex,
        *,
        k: int,
        cache_size: int,
        collector,
        workers: int | None,
        metrics: MetricsRegistry | bool | None,
    ) -> None:
        """Every field of a service over ``index``; shared by the
        constructor and :meth:`load`."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.k = k
        self._index = index
        self._cache = ResultCache(cache_size)
        self._obs = collector if collector else NULL_COLLECTOR
        self._workers = workers
        self._init_telemetry(metrics)

    def _init_telemetry(self, metrics: MetricsRegistry | bool | None) -> None:
        """Create (or adopt) the registry and pre-bind the hot-path
        instruments so recording is attribute access, not dict lookups."""
        if metrics is None:
            metrics = MetricsRegistry()
        elif metrics is False:
            metrics = NULL_METRICS
        self.metrics = metrics
        self.events = EventLog() if metrics else NULL_EVENTS
        self._last_metrics_snapshot: dict[str, object] | None = None
        m = metrics
        self._h_query = m.histogram(
            "serve_request_seconds",
            "request latency by op",
            labels={"op": "query"},
        )
        self._h_batch = m.histogram(
            "serve_request_seconds",
            "request latency by op",
            labels={"op": "query_batch"},
        )
        self._h_batch_size = m.histogram(
            "serve_batch_size",
            "values per query_batch call",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._c_queries = m.counter(
            "serve_queries_total", "individual queries answered"
        )
        self._c_cache_hits = m.counter(
            "serve_cache_hits_total", "result-cache hits"
        )
        self._c_cache_misses = m.counter(
            "serve_cache_misses_total", "result-cache misses"
        )
        self._c_errors = m.counter(
            "serve_request_errors_total", "requests answered with an error"
        )
        self._c_engine_rebuilds = m.counter(
            "serve_engine_rebuilds_total",
            "full right-side engine builds (adds extend the held engine)",
        )
        self._g_queue_depth = m.gauge(
            "serve_queue_depth",
            "uncached queries pending in the in-flight batch",
        )
        self._g_cache_entries = m.gauge(
            "serve_cache_entries", "live result-cache entries"
        )
        self._index.instrument(metrics, self.events)

    # -- telemetry -----------------------------------------------------------

    def refresh_metrics(self) -> None:
        """Bring scrape-time gauges current (index state, cache size,
        pool heartbeats).  Called by the exposition paths right before
        rendering, so a scrape always sees live state even if no
        request arrived since the last one."""
        if not self.metrics:
            return
        self._index._refresh_gauges()
        self._g_cache_entries.set(self._cache.stats()["size"])
        if self._pooled:
            self._publish_pool_metrics()

    def _publish_pool_metrics(self) -> None:
        """Surface the service's pool heartbeat, once the pool runs."""
        from repro.parallel import shm

        pool = shm._SHARED_POOLS.get(int(self._workers))
        if pool is not None and pool.started and not pool.closed:
            shm.publish_pool_metrics(pool, self.metrics, self.events)

    def metrics_snapshot(self) -> dict[str, object]:
        """Full JSON snapshot of the registry (gauges refreshed)."""
        self.refresh_metrics()
        snap = self.metrics.snapshot()
        self._last_metrics_snapshot = snap
        return snap

    def metrics_delta(self) -> dict[str, object]:
        """Counters/histograms since the previous snapshot or delta
        call on this service; gauges stay absolute."""
        previous = self._last_metrics_snapshot
        current = self.metrics_snapshot()
        return MetricsRegistry.delta(current, previous)

    def note_request_error(self, reason: str) -> None:
        """Tally one protocol-level failure (malformed JSON, unknown
        op, bad field) into the error counter, a per-reason counter and
        the collector's free-form counters — so bad traffic is visible
        instead of vanishing down the response stream."""
        self._c_errors.inc()
        self.metrics.counter(
            "serve_bad_requests_total",
            "protocol-level request failures by reason",
            labels={"reason": reason},
        ).inc()
        self._obs.add_counter(f"serve_error_{reason}")

    # -- introspection ------------------------------------------------------

    @property
    def index(self) -> MutableIndex:
        """The underlying mutable index (mutating it directly works —
        the cache is generation-keyed — but prefer the service methods,
        which also maintain the counters)."""
        return self._index

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def generation(self) -> int:
        return self._index.generation

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, sid: int) -> bool:
        return sid in self._index

    def get(self, sid: int) -> str:
        """The live string behind an id (KeyError if removed)."""
        return self._index.get(sid)

    def items(self):
        """Live ``(id, string)`` pairs in id order."""
        return self._index.items()

    # -- mutation -----------------------------------------------------------

    def add(self, s: str) -> int:
        """Index one string; returns its stable id."""
        with self._obs.span("serve.add"):
            before = self._index.compactions
            sid = self._index.add(s)
            self._count_compactions(before)
        return sid

    def add_batch(self, strings: Sequence[str]) -> list[int]:
        """Index a batch; returns the assigned ids."""
        with self._obs.span("serve.add"):
            before = self._index.compactions
            sids = self._index.extend(strings)
            self._count_compactions(before)
        return sids

    def remove(self, sid: int) -> None:
        """Remove one entry by id (KeyError if unknown/already gone)."""
        with self._obs.span("serve.remove"):
            before = self._index.compactions
            self._index.remove(sid)
            self._count_compactions(before)

    def compact(self) -> int:
        """Force a compaction; returns the tombstones reclaimed."""
        with self._obs.span("serve.compact"):
            before = self._index.compactions
            reclaimed = self._index.compact()
            self._count_compactions(before)
        return reclaimed

    def _count_compactions(self, before: int) -> None:
        delta = self._index.compactions - before
        if delta:
            self._obs.add_counter("compactions", delta)

    # -- queries ------------------------------------------------------------

    def query(
        self, value: str, k: int | None = None, method: str | None = None
    ) -> QueryResult:
        """Answer one query: a batch of one (cache-aware)."""
        k, method = self._resolve(k, method)
        t0 = perf_counter_ns()
        with self._obs.span("serve.query"):
            result = self._answer((value,), k, method)[0]
        self._c_queries.inc()
        self._h_query.observe((perf_counter_ns() - t0) / 1e9)
        return result

    def query_batch(
        self,
        values: Sequence[str],
        k: int | None = None,
        method: str | None = None,
    ) -> list[QueryResult]:
        """Answer a batch of queries, one result per input (in order).

        Duplicate values are answered once; cached values skip the
        index entirely.  The remaining *pending* values are answered by
        one planner run, whatever the method.
        """
        k, method = self._resolve(k, method)
        t0 = perf_counter_ns()
        with self._obs.span("serve.query_batch"):
            results = self._answer(values, k, method)
        self._c_queries.inc(len(values))
        self._h_batch_size.observe(len(values))
        self._h_batch.observe((perf_counter_ns() - t0) / 1e9)
        return results

    def _answer(
        self, values: Sequence[str], k: int, method: str
    ) -> list[QueryResult]:
        """One result per value: cache hits, then one batched answer of
        the pending rest."""
        answered, pending = self._lookup(values, k, method)
        if pending:
            self._g_queue_depth.set(len(pending))
            answered.update(
                zip(pending, self._answer_batched(pending, k, method))
            )
            self._g_queue_depth.set(0)
        return [answered[v] for v in values]

    def _resolve(
        self, k: int | None, method: str | None
    ) -> tuple[int, str]:
        k = self.k if k is None else k
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        method = self._index.verifier if method is None else method
        if method not in FBFIndex.VERIFIERS:
            raise ValueError(
                f"method must be one of {FBFIndex.VERIFIERS}, "
                f"got {method!r}"
            )
        return k, method

    def _lookup(
        self, values: Sequence[str], k: int, method: str
    ) -> tuple[dict[str, QueryResult], list[str]]:
        """Split the distinct ``values`` into cache hits (value ->
        result, ``cached`` set) and the pending rest, in first-seen
        order; the hit and miss counters move once per call."""
        generation = self._index.generation
        answered: dict[str, QueryResult] = {}
        pending: list[str] = []
        get = self._cache.get
        for value in dict.fromkeys(values):
            hit = get((value, method, k, generation))
            if hit is MISS:
                pending.append(value)
            else:
                answered[value] = QueryResult(
                    value, method, k, hit.ids, hit.matches, True, generation
                )
        if answered:
            self._obs.add_counter("cache_hits", len(answered))
            self._c_cache_hits.inc(len(answered))
        if pending:
            self._obs.add_counter("cache_misses", len(pending))
            self._c_cache_misses.inc(len(pending))
        return answered, pending

    # -- prepared rosters -----------------------------------------------------

    def _roster(self, k: int) -> PreparedSide:
        """The roster's prepared side, brought up to date for one batch:
        rows added since the last one are folded in (the arrays and the
        PASS-JOIN index extended), and what a new side lacks (after
        compaction or a load) is built."""
        index = self._index
        prep = index.prepared
        obs = self._obs
        pj = prep.passjoin.get(k)
        if pj is None or len(pj) < len(prep):
            with obs.span("serve.build_passjoin"):
                prep.passjoin_index(k)
        if pj is None:
            self.events.emit(
                "passjoin_rebuild",
                generation=index.generation,
                rows=len(prep),
            )
        held = prep.encoded
        if held is None or held.n < len(prep):
            with obs.span("serve.prepare_engine"):
                prep.side()
                if held is None:
                    obs.add_counter("engine_rebuilds")
                    self._c_engine_rebuilds.inc()
                    self.events.emit(
                        "engine_rebuild",
                        generation=index.generation,
                        rows=len(prep),
                    )
        return prep

    # -- the batched path -----------------------------------------------------

    @property
    def _pooled(self) -> bool:
        return bool(self._workers and self._workers > 1)

    def _answer_batched(
        self, pending: list[str], k: int, method: str
    ) -> list[QueryResult]:
        """Answer a batch of uncached queries: one planner run against
        the roster, folded into one result per pending value.  An empty
        roster gets no work and no funnel credit."""
        if self._index.rows:
            pos, rows = self._run_planned(pending, k)
        else:
            pos = rows = np.empty(0, dtype=np.int64)
        return self._fold(pending, k, method, pos, rows)

    def _fold(
        self,
        pending: list[str],
        k: int,
        method: str,
        pos: np.ndarray,
        rows: np.ndarray,
    ) -> list[QueryResult]:
        """One cached result per pending value from the batch's OSA
        matches, given as ``(batch position, internal row)`` arrays.
        Tombstoned rows drop out (and, for ``"myers"``, pairs beyond
        ``k`` Levenshtein edits), rows become external ids and strings,
        one ``lexsort`` orders the matches by (position, id) and
        ``searchsorted`` cuts them into per-query runs."""
        index = self._index
        keep = index.live_mask(rows)
        pos, rows = pos[keep], rows[keep]
        strings = list(map(index.strings.__getitem__, rows.tolist()))
        if method == "myers":  # the OSA matches within k for Levenshtein
            keep = np.array([
                bounded_levenshtein(pending[p], s, k) is not None
                for p, s in zip(pos.tolist(), strings)
            ], dtype=bool)
            self._obs.add_matched(int(keep.sum()) - len(keep))
            pos, rows = pos[keep], rows[keep]
            strings = [s for s, ok in zip(strings, keep) if ok]
        ids = index.external_ids(rows)
        order = np.lexsort((ids, pos))
        bounds = np.searchsorted(
            pos[order], np.arange(len(pending) + 1)
        ).tolist()
        ids = ids[order].tolist()
        strings = list(map(strings.__getitem__, order.tolist()))
        generation = index.generation
        results = [
            QueryResult(
                value, method, k, tuple(ids[a:b]), tuple(strings[a:b]),
                False, generation,
            )
            for value, a, b in zip(pending, bounds, bounds[1:])
        ]
        self._cache.put_many(
            ((value, method, k, generation), result)
            for value, result in zip(pending, results)
        )
        return results

    def _run_planned(
        self, values: list[str], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One PASS-JOIN planner run of the FPDL stack for ``values``
        against the prepared roster; returns the (query row, roster row)
        matches as two ``int64`` arrays.

        PASS-JOIN is exact for the OSA stack this runs.  The planner
        picks the backend (see ``workers``); a hybrid run publishes the
        roster, or renews its publication after growth, which this call
        reports as a ``roster_publish`` event.  The planner credits the
        generator stage with the pairs it skipped, so the funnel stays
        conserved.
        """
        prep = self._roster(k)
        publication = prep.publication
        result = JoinPlanner(
            values,
            prep,
            k=k,
            workers=self._workers,
        ).run(
            "FPDL",
            generator="pass-join",
            collector=self._obs if self._obs else None,
            record_matches=True,
        )
        if prep.publication is not publication:
            self._obs.add_counter("shm_roster_publishes")
            self.events.emit(
                "roster_publish",
                generation=self._index.generation,
                bytes=prep.publication.bytes_shared,
            )
        if self._pooled:
            self._publish_pool_metrics()
        return result.match_rows

    # -- stats and snapshots ------------------------------------------------

    def stats(self) -> dict[str, object]:
        """JSON-ready service state snapshot (size, cache, counters).

        ``latency`` quantiles come from the registry's fixed-bucket
        histograms, not a sliding sample window — they describe the
        whole run however long it has been, with error bounded by the
        bucket ratio (~1.78x by default).
        """
        index = self._index
        out: dict[str, object] = {
            "size": len(index),
            "rows": index.rows,
            "tombstones": index.tombstones,
            "generation": index.generation,
            "compactions": index.compactions,
            "k": self.k,
            "scheme": index.scheme.name,
            "verifier": index.verifier,
            "cache": self._cache.stats(),
        }
        if self.metrics:
            out["latency"] = {
                "query": ms_summary(self._h_query),
                "query_batch": ms_summary(self._h_batch),
            }
            out["events"] = self.events.total
        return out

    def save(self, path: str | Path) -> Path:
        """Snapshot the index (plus service config) to one file, with
        the roster's prepared arrays and PASS-JOIN index at :attr:`k`
        (built first if the roster lacks them)."""
        with self._obs.span("serve.snapshot"):
            self._roster(self.k)
            saved = save_index(
                self._index,
                path,
                meta={
                    "k": self.k,
                    "cache_size": self._cache.maxsize,
                },
            )
        self.events.emit(
            "snapshot_save",
            path=str(saved),
            size=len(self._index),
            generation=self._index.generation,
        )
        return saved

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        cache_size: int | None = None,
        collector=None,
        workers: int | None = None,
        metrics: MetricsRegistry | bool | None = None,
    ) -> "MatchService":
        """Rebuild a warm service from a snapshot, with its saved ``k``:
        a version-2 file's first batch at that ``k`` encodes and indexes
        nothing (a version-1 file's builds the roster's side).

        ``cache_size`` overrides the saved setting; the cache itself
        always starts empty.  Other meta keys (older snapshots carry a
        ``candidates`` generator mode) are ignored.
        """
        index, header = load_index(path)
        meta = {"k": 1, "cache_size": 1024}
        meta.update(header.get("meta", {}))
        svc = cls.__new__(cls)
        svc._init_state(
            index,
            k=int(meta["k"]),
            cache_size=int(
                meta["cache_size"] if cache_size is None else cache_size
            ),
            collector=collector,
            workers=workers,
            metrics=metrics,
        )
        svc.events.emit(
            "snapshot_load",
            path=str(path),
            size=len(index),
            generation=index.generation,
        )
        return svc

