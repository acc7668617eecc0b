"""The online match-serving facade.

:class:`MatchService` ties the serve layer together: a
:class:`~repro.serve.mutable.MutableIndex` for storage, a
generation-keyed :class:`~repro.serve.cache.ResultCache` in front of
it, and a micro-batching query path that routes :meth:`query_batch`
through the vectorized :meth:`VectorEngine.run_candidates
<repro.parallel.chunked.VectorEngine.run_candidates>` verifier instead
of per-query scalar DP.

Batching matters for the same reason the join layer is vectorized: one
query against an FBF index spends most of its time in Python dispatch
(signature, bucket walk, small DP calls), while a batch amortises that
into a handful of NumPy sweeps over packed arrays.  The right-side
engine state (codes, signatures) depends only on the roster's rows, so
it is prepared once per wrapped index and shared across batches via the
engine's ``share_right`` hook.  Writes do not rebuild it: a remove only
tombstones a row (filtered after verification), and an add appends a
row, which the held state folds in on the next batch.

Observability plugs into the same :class:`~repro.obs.stats
.StatsCollector` funnel the batch joins use: every query is a
considered-pairs row, cache traffic and compactions land in the
collector's counters, and per-call latency lands in the tracer's
span summaries.  The funnel conservation invariant
(``pairs == rejected + survivors``) holds for served traffic exactly
as it does for batch joins — the batched path follows the planner's
generator-accounting pattern so candidates are never double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from time import perf_counter_ns

from repro.core.index import FBFIndex
from repro.core.passjoin import PassJoinIndex
from repro.core.signatures import SignatureScheme
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
)
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.chunked import VectorEngine
from repro.serve.cache import MISS, ResultCache
from repro.serve.mutable import MutableIndex
from repro.serve.shard import ShardedIndex
from repro.serve.snapshot import load_index, save_index

__all__ = ["MatchService", "QueryResult"]

#: verifiers sharing the OSA metric with the vectorized FPDL stack;
#: only these may take the batched path (``"myers"`` is Levenshtein —
#: a different metric — so it always verifies per query).
OSA_METRIC = ("osa", "osa-bitparallel")

#: publish stamps for shared-memory rosters: pool workers keep a shard's
#: resolved roster until a task carries a new stamp.  Process-wide
#: because every service in the process shares one pool, whose workers
#: key held rosters by shard id alone.
_PUBLISH_STAMPS = count(1)


class _Prepared:
    """Everything prepared over one roster's rows, kept across writes.

    A holder is valid for one :class:`FBFIndex` object.  That index is
    append-only, so an add only appends rows: each part below records
    how many rows it covers (``len(engine.len_r)``, ``len(passjoin[k])``,
    ``side.n``) and is extended, or for the fixed-size shared roster
    republished, when the index has grown past that.  A remove only
    tombstones a row, which ``live_mask`` drops after verification, so
    it touches nothing here.  Compaction, snapshot load and shard
    adoption build a new index, and with it a new holder.
    """

    def __init__(self, index: FBFIndex, retired=None):
        self.index = index
        #: right-side engine shared by the per-batch engines
        self.engine: VectorEngine | None = None
        #: k -> PASS-JOIN partition index
        self.passjoin: dict[int, PassJoinIndex] = {}
        #: published shared-memory roster and its publish stamp
        self.side = None
        self.stamp = 0
        #: the previous index's roster, closed once this one publishes
        self.retired = retired


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
    """Online approximate-match serving over a mutable FBF index.

    Parameters
    ----------
    strings:
        Initial population (external ids ``0..n-1``).
    k:
        Default edit-distance threshold for queries.
    scheme, verifier:
        Index configuration (see :class:`~repro.core.index.FBFIndex`);
        ``verifier`` is also the default query method.
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
        With ``workers > 1``, batched OSA queries fan out to the
        process-wide shared-memory pool
        (:func:`repro.parallel.shm.shared_pool`): the roster encodings
        are published once, republished only after adds or compaction
        (never after a remove), and each batch ships only its
        query-side arrays.  Answers are identical to the single-process
        path.
    shards:
        With ``shards > 1`` the service stores its population in a
        :class:`~repro.serve.shard.ShardedIndex` and answers batched
        queries by scatter/gather over the routed shards.  Combined
        with ``workers > 1`` each shard is pinned to a pool slot
        (*affinity* mode) whose worker holds the shard's published
        roster between batches; compaction or crash-respawn is healed
        by snapshot-style roster handoff, and :meth:`rebalance` moves
        shards between slots when the per-worker load counters drift.
        The default (``1``) keeps the original single-index behavior
        unchanged.
    candidates:
        Candidate generation for batched OSA queries.  ``"fbf"`` walks
        the FBF signature index (the original behavior);
        ``"pass-join"`` probes a
        :class:`~repro.core.passjoin.PassJoinIndex` over the same
        rows (built once, extended by adds) — exact for OSA, sub-quadratic, and ~7x faster on large
        rosters at ``k=1``; ``"auto"`` (default) picks PASS-JOIN when
        the roster has at least :attr:`PASSJOIN_MIN_ROSTER` rows and
        ``k <= 1``, mirroring the join planner's cost model.  Either
        way answers are identical — only the funnel's generator stage
        name changes.  The pooled *sharded* scatter keeps FBF (its
        workers generate candidates from the shared roster).
    """

    #: scatters between automatic rebalance checks (pooled sharded mode)
    REBALANCE_EVERY = 32

    #: below this roster size the PASS-JOIN build doesn't amortise over
    #: a batch — ``candidates="auto"`` stays on the FBF signature walk
    PASSJOIN_MIN_ROSTER = 50_000

    #: accepted values for the ``candidates`` constructor knob
    CANDIDATE_MODES = ("auto", "fbf", "pass-join")

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
        shards: int = 1,
        metrics: MetricsRegistry | bool | None = None,
        candidates: str = "auto",
        kernels: str = "auto",
    ):
        if shards > 1:
            index = ShardedIndex(
                strings,
                n_shards=shards,
                scheme=scheme,
                verifier=verifier,
                compact_ratio=compact_ratio,
            )
        else:
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
            candidates=candidates,
            kernels=kernels,
        )

    def _init_state(
        self,
        index: MutableIndex | ShardedIndex,
        *,
        k: int,
        cache_size: int,
        collector,
        workers: int | None,
        metrics: MetricsRegistry | bool | None,
        candidates: str = "auto",
        kernels: str = "auto",
    ) -> None:
        """Every field of a service over ``index``; shared by the
        constructor and :meth:`load`."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if candidates not in self.CANDIDATE_MODES:
            raise ValueError(
                f"unknown candidates mode {candidates!r}; "
                f"choose from {', '.join(self.CANDIDATE_MODES)}"
            )
        self.k = k
        self._candidates = candidates
        #: kernel tier for every engine this service builds and for the
        #: pooled workers ("auto" = compiled kernels when available)
        self._kernels = kernels
        self._index = index
        self._cache = ResultCache(cache_size)
        self._obs = collector if collector else NULL_COLLECTOR
        self._workers = workers
        #: "base" or shard id -> prepared state over that roster's rows
        self._rosters: dict[object, _Prepared] = {}
        self._init_sharding()
        self._init_telemetry(metrics)

    def _init_sharding(self) -> None:
        """Scatter-path state: the shard -> pool-slot placement and the
        load window the rebalancer consumes."""
        n = getattr(self._index, "n_shards", 1)
        workers = max(1, int(self._workers or 1))
        #: shard -> owning pool slot (affinity routing)
        self._placement: dict[int, int] = {
            si: si % workers for si in range(n)
        }
        #: shard -> filter pairs dispatched since the last rebalance
        self._shard_load: dict[int, int] = {}
        self._scatters = 0
        #: per-slot busy_ns at the last rebalance check
        self._slot_busy_base: list[float] = []

    @property
    def sharded(self) -> bool:
        return isinstance(self._index, ShardedIndex)

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
        self._c_handoffs = self._c_rebalances = None
        if self.sharded:
            self._c_handoffs = m.counter(
                "shard_handoffs_total",
                "shard roster republishes adopted by workers",
            )
            self._c_rebalances = m.counter(
                "shard_rebalances_total",
                "shard-to-slot placement recomputations applied",
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
        if self.sharded:
            for si, slot in self._placement.items():
                self.metrics.gauge(
                    "shard_worker",
                    "pool slot owning this shard",
                    {"shard": str(si)},
                ).set(slot)
        if self._workers and self._workers > 1:
            from repro.parallel import shm

            pool = shm._SHARED_POOLS.get(
                (max(1, int(self._workers or 0)), self.sharded)
            )
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
        """Answer one query (cache-aware, scalar index search)."""
        k, method = self._resolve(k, method)
        t0 = perf_counter_ns()
        with self._obs.span("serve.query"):
            hit = self._lookup(value, k, method)
            result = (
                hit if hit is not None
                else self._answer_scalar(value, k, method)
            )
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
        index entirely.  The remaining *pending* values go through the
        vectorized candidate/verify path when ``method`` shares the
        FPDL stack's OSA metric, and fall back to per-query scalar
        search otherwise (``"myers"`` is a different metric).
        """
        k, method = self._resolve(k, method)
        t0 = perf_counter_ns()
        with self._obs.span("serve.query_batch"):
            answered: dict[str, QueryResult] = {}
            pending: list[str] = []
            seen: set[str] = set()
            for value in values:
                if value in answered or value in seen:
                    continue
                hit = self._lookup(value, k, method)
                if hit is not None:
                    answered[value] = hit
                else:
                    seen.add(value)
                    pending.append(value)
            if pending:
                self._g_queue_depth.set(len(pending))
                if method in OSA_METRIC and self._index.rows:
                    for res in self._answer_batched(pending, k, method):
                        answered[res.value] = res
                else:
                    for value in pending:
                        answered[value] = self._answer_scalar(
                            value, k, method
                        )
                self._g_queue_depth.set(0)
        self._c_queries.inc(len(values))
        self._h_batch_size.observe(len(values))
        self._h_batch.observe((perf_counter_ns() - t0) / 1e9)
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
        self, value: str, k: int, method: str
    ) -> QueryResult | None:
        key = (value, method, k, self._index.generation)
        hit = self._cache.get(key)
        if hit is MISS:
            self._obs.add_counter("cache_misses")
            self._c_cache_misses.inc()
            return None
        self._obs.add_counter("cache_hits")
        self._c_cache_hits.inc()
        return replace(hit, cached=True)

    def _store(
        self, value: str, k: int, method: str, ids: Sequence[int]
    ) -> QueryResult:
        result = QueryResult(
            value=value,
            method=method,
            k=k,
            ids=tuple(ids),
            matches=tuple(self._index.get(sid) for sid in ids),
            cached=False,
            generation=self._index.generation,
        )
        self._cache.put((value, method, k, result.generation), result)
        return result

    def _answer_scalar(self, value: str, k: int, method: str) -> QueryResult:
        ids = self._index.search(
            value, k, collector=self._obs if self._obs else None,
            verifier=method,
        )
        return self._store(value, k, method, ids)

    # -- prepared roster state -----------------------------------------------

    def _prepared(self, key: object, mutable) -> _Prepared:
        """The holder for ``mutable``'s rows (``key`` is ``"base"`` or a
        shard id), replaced when ``mutable`` wraps a new index."""
        held = self._rosters.get(key)
        if held is None or held.index is not mutable.index:
            retired = None if held is None else held.side or held.retired
            held = self._rosters[key] = _Prepared(mutable.index, retired)
        return held

    def _right_engine(self, key: object, mutable, k: int) -> VectorEngine:
        """``mutable``'s prepared right-side engine: built on first use
        of an index, extended by the rows appended since."""
        prep = self._prepared(key, mutable)
        fbf = prep.index
        if prep.engine is None:
            with self._obs.span("serve.prepare_engine"):
                prep.engine = VectorEngine(
                    [], fbf.strings, k=k, scheme_kind=fbf.scheme,
                    kernels=self._kernels,
                )
                self._obs.add_counter("engine_rebuilds")
                self._c_engine_rebuilds.inc()
                self.events.emit(
                    "engine_rebuild",
                    generation=mutable.generation,
                    rows=len(fbf),
                    **_shard_field(key),
                )
        elif len(prep.engine.len_r) < len(fbf):
            with self._obs.span("serve.prepare_engine"):
                prep.engine.sync_right()
        return prep.engine

    def _published(self, key: object, mutable) -> _Prepared:
        """``mutable``'s holder with a shared-memory roster covering all
        its rows.  A published side has a fixed size, so appended rows
        republish it; the new roster is published before the old one is
        unlinked, and workers keep their resolved views of the old
        segments until a task carries the new stamp — so compaction,
        adds or an adopted recovery blob never leave a window where the
        roster cannot answer."""
        from repro.parallel import shm

        prep = self._prepared(key, mutable)
        fbf = prep.index
        if prep.side is not None and prep.side.n == len(fbf):
            return prep
        with self._obs.span("serve.publish_roster"):
            side = shm.SharedSide(fbf.strings, scheme=fbf.scheme)
            old = prep.side or prep.retired
            prep.side, prep.retired = side, None
            prep.stamp = next(_PUBLISH_STAMPS)
            self._obs.add_counter("shm_roster_publishes")
            if old is not None:
                old.close()
            if old is not None and self._c_handoffs is not None:
                self._c_handoffs.inc()
                kind = "shard_handoff"
            else:
                kind = "roster_publish"
            self.events.emit(
                kind,
                generation=mutable.generation,
                bytes=side.bytes_shared,
                **_shard_field(key),
            )
        return prep

    # -- the batched path ---------------------------------------------------

    def _engine_for(self, queries: list[str], k: int) -> VectorEngine:
        """A per-batch engine sharing the prepared right side."""
        return VectorEngine(
            queries,
            self._index.index.strings,
            k=k,
            share_right=self._right_engine("base", self._index, k),
            record_matches=True,
            kernels=self._kernels,
        )

    def _roster_side(self):
        """The shared-memory roster covering every current row."""
        return self._published("base", self._index).side

    def _run_pooled(self, pending: list[str], k: int, blocks):
        """Fan one batch out to the shared worker pool: roster arrays
        come from the published shared segments, the (small) query
        side ships inline with the tasks."""
        from repro.parallel import shm

        roster = self._roster_side()
        queries = shm.inline_side(pending, scheme=roster.scheme)
        pool = shm.shared_pool(self._workers)
        result = shm.run_hybrid(
            pool,
            queries,
            roster.arrays,
            "FPDL",
            blocks,
            scheme=roster.scheme,
            k=k,
            self_join=False,
            collector=self._obs if self._obs else None,
            record_matches=True,
            shared_source=roster,
            kernels=self._kernels,
        )
        if self.metrics:
            shm.publish_pool_metrics(pool, self.metrics, self.events)
        return result

    def _answer_batched(
        self, pending: list[str], k: int, method: str
    ) -> Iterator[QueryResult]:
        if self.sharded:
            return self._answer_batched_sharded(pending, k, method)
        return self._answer_batched_single(pending, k, method)

    # -- candidate generation for the batched paths --------------------------

    def _passjoin_for(self, key: object, mutable, k: int) -> PassJoinIndex:
        """``mutable``'s PASS-JOIN partition index for ``k``: built on
        first use of an index, extended by the rows appended since."""
        prep = self._prepared(key, mutable)
        fbf = prep.index
        pj = prep.passjoin.get(k)
        if pj is None:
            with self._obs.span("serve.build_passjoin"):
                pj = prep.passjoin[k] = PassJoinIndex(fbf.strings, k=k)
            self.events.emit(
                "passjoin_rebuild", generation=mutable.generation, rows=len(pj)
            )
        elif len(pj) < len(fbf):
            with self._obs.span("serve.build_passjoin"):
                pj.extend(fbf.strings[len(pj) :])
        return pj

    def _candidate_source(self, key: object, mutable, k: int):
        """(funnel stage name, ``blocks(values)`` callable) answering a
        batch against ``mutable``'s rows.

        Candidate rows refer to internal roster rows either way, so the
        downstream ``live_mask``/``external_ids`` gather is unchanged;
        the batched paths only run OSA verifiers, for which PASS-JOIN
        is exact.
        """
        use_pj = self._candidates == "pass-join" or (
            self._candidates == "auto"
            and k <= 1
            and len(mutable.index) >= self.PASSJOIN_MIN_ROSTER
        )
        if use_pj:
            pj = self._passjoin_for(key, mutable, k)
            return "pass-join", pj.candidate_blocks
        fbf = mutable.index
        return "fbf-index", lambda vals: fbf.candidate_blocks(vals, k)

    def _answer_batched_single(
        self, pending: list[str], k: int, method: str
    ) -> Iterator[QueryResult]:
        """Verify a batch of uncached queries in one vectorized pass.

        Follows the planner's generator-accounting pattern: the index's
        ``candidate_blocks`` generator runs *without* the collector (the
        backend counts every emitted candidate as a considered pair),
        then the generator stage is credited with the full product and
        the pairs it skipped — so the funnel conservation invariant
        holds with no double counting.
        """
        obs = self._obs
        stage, blocks = self._candidate_source("base", self._index, k)
        product = len(pending) * len(self._index.index)
        emitted = 0

        def counted() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            nonlocal emitted
            for qi, ids in blocks(pending):
                emitted += len(qi)
                yield qi, ids

        if obs:
            obs.stage(stage)
        if self._workers and self._workers > 1:
            result = self._run_pooled(pending, k, counted())
        else:
            engine = self._engine_for(pending, k)
            result = engine.run_candidates(
                "FPDL", counted(), collector=obs if obs else None
            )
        if obs:
            obs.add_stage(stage, product, emitted)
            obs.add_pairs(product - emitted)
        per_query: dict[int, list[int]] = {
            qi: [] for qi in range(len(pending))
        }
        if result.matches:
            ii = np.fromiter(
                (m[0] for m in result.matches),
                dtype=np.int64,
                count=len(result.matches),
            )
            jj = np.fromiter(
                (m[1] for m in result.matches),
                dtype=np.int64,
                count=len(result.matches),
            )
            keep = self._index.live_mask(jj)
            ii, jj = ii[keep], jj[keep]
            ext = self._index.external_ids(jj)
            for qi, sid in zip(ii.tolist(), ext.tolist()):
                per_query[qi].append(sid)
        for qi, value in enumerate(pending):
            yield self._store(value, k, method, sorted(per_query[qi]))

    # -- the sharded scatter/gather path ------------------------------------

    def _shard_plan(
        self, pending: list[str], k: int
    ) -> dict[int, tuple[list[str], list[int]]]:
        """Scatter plan: shard -> (routed query values, their positions
        in ``pending``).  Routing is the PASS-JOIN length window, so a
        query visits at most ``min(2k+1, n_shards)`` shards; empty
        shards are skipped (no rows, no work, no funnel credit)."""
        plan: dict[int, tuple[list[str], list[int]]] = {}
        index = self._index
        for qi, value in enumerate(pending):
            for si in index.route(len(value), k):
                if not len(index.shards[si].index):
                    continue
                vals, idxs = plan.setdefault(si, ([], []))
                vals.append(value)
                idxs.append(qi)
        return plan

    def _gather(
        self,
        ii: np.ndarray,
        jj: np.ndarray,
        shard: MutableIndex,
        idxs: list[int],
        per_query: dict[int, list[int]],
    ) -> None:
        """Fold one shard's raw matches (local query row, internal
        roster row) into the global per-query answer lists.  Ids come
        out global for free — shards index global external ids."""
        keep = shard.live_mask(jj)
        ii, jj = ii[keep], jj[keep]
        ext = shard.external_ids(jj)
        for qi, sid in zip(ii.tolist(), ext.tolist()):
            per_query[idxs[qi]].append(sid)

    def _shard_engine(self, si: int, k: int) -> VectorEngine:
        """Shard ``si``'s prepared right-side engine."""
        return self._right_engine(si, self._index.shards[si], k)

    def _shard_roster(self, si: int) -> _Prepared:
        """Shard ``si``'s holder with its published roster (``side``)
        and the stamp its owning worker keys the resolved roster on."""
        return self._published(si, self._index.shards[si])

    def _scatter_inprocess(
        self,
        plan: dict[int, tuple[list[str], list[int]]],
        per_query: dict[int, list[int]],
        k: int,
    ) -> None:
        """Scatter over the routed shards in-process, one vectorized
        candidate/verify pass per shard; same generator-accounting
        pattern as the single-index path, credited once over the whole
        scatter so the funnel stays conserved."""
        obs = self._obs
        #: stage name -> [product, emitted]; per-shard source selection
        #: can mix generators (small shards stay on fbf), so each used
        #: generator is credited as its own conserved funnel stage.
        funnel: dict[str, list[int]] = {}
        for si in sorted(plan):
            vals, idxs = plan[si]
            shard = self._index.shards[si]
            fbf = shard.index
            stage, blocks = self._candidate_source(si, shard, k)
            if obs and stage not in funnel:
                obs.stage(stage)
            tallies = funnel.setdefault(stage, [0, 0])
            tallies[0] += len(vals) * len(fbf)
            block_emitted = [0]

            def counted(blocks=blocks, vals=vals, out=block_emitted):
                for qi, ids in blocks(vals):
                    out[0] += len(qi)
                    yield qi, ids

            engine = VectorEngine(
                vals,
                fbf.strings,
                k=k,
                share_right=self._shard_engine(si, k),
                record_matches=True,
                kernels=self._kernels,
            )
            result = engine.run_candidates(
                "FPDL", counted(), collector=obs if obs else None
            )
            tallies[1] += block_emitted[0]
            self._shard_load[si] = (
                self._shard_load.get(si, 0) + len(vals) * len(fbf)
            )
            if result.matches:
                ii = np.fromiter(
                    (m[0] for m in result.matches),
                    dtype=np.int64,
                    count=len(result.matches),
                )
                jj = np.fromiter(
                    (m[1] for m in result.matches),
                    dtype=np.int64,
                    count=len(result.matches),
                )
                self._gather(ii, jj, shard, idxs, per_query)
        if obs:
            for stage, (product, emitted) in funnel.items():
                obs.add_stage(stage, product, emitted)
                obs.add_pairs(product - emitted)

    def _scatter_pooled(
        self,
        plan: dict[int, tuple[list[str], list[int]]],
        per_query: dict[int, list[int]],
        k: int,
    ) -> None:
        """Scatter over the routed shards through the affinity pool:
        each shard's task is pinned to its placement slot, whose worker
        holds the shard's resolved roster between batches.  The dense
        worker sweep does its own funnel accounting (merged back by
        ``run_shard_scatter``), so no parent-side stage credit here."""
        from repro.parallel import shm

        obs = self._obs
        pool = shm.shared_pool(self._workers, affinity=True)
        calls: list[tuple] = []
        slots: list[int] = []
        order: list[int] = []
        for si in sorted(plan):
            vals, _idxs = plan[si]
            shard = self._index.shards[si]
            prep = self._shard_roster(si)
            roster = prep.side
            queries = shm.inline_side(vals, scheme=roster.scheme)
            calls.append(
                shm.shard_query_call(
                    si,
                    prep.stamp,
                    roster.arrays,
                    queries,
                    scheme=roster.scheme,
                    k=k,
                    collect=bool(obs),
                    kernels=self._kernels,
                )
            )
            slots.append(self._placement.get(si, si % pool.workers))
            order.append(si)
            self._shard_load[si] = (
                self._shard_load.get(si, 0) + len(vals) * len(shard.index)
            )
        outs = shm.run_shard_scatter(
            pool, calls, slots=slots, collector=obs if obs else None
        )
        for si, out in zip(order, outs):
            shard = self._index.shards[si]
            idxs = plan[si][1]
            if out["mi"]:
                ii = np.concatenate(out["mi"])
                jj = np.concatenate(out["mj"])
                self._gather(ii, jj, shard, idxs, per_query)
        if self.metrics:
            shm.publish_pool_metrics(pool, self.metrics, self.events)
        self._maybe_rebalance(pool)

    def _answer_batched_sharded(
        self, pending: list[str], k: int, method: str
    ) -> Iterator[QueryResult]:
        """Scatter a batch of uncached queries over the routed shards,
        gather the per-shard matches, merge per query.  Identical
        answers to the single-index batched path (property-tested by
        the sharded equivalence suite)."""
        plan = self._shard_plan(pending, k)
        per_query: dict[int, list[int]] = {
            qi: [] for qi in range(len(pending))
        }
        if plan:
            for si in plan:
                self.metrics.counter(
                    "shard_queries_total",
                    "queries routed to this shard",
                    labels={"shard": str(si)},
                ).inc(len(plan[si][0]))
            if self._workers and self._workers > 1:
                self._scatter_pooled(plan, per_query, k)
            else:
                self._scatter_inprocess(plan, per_query, k)
        for qi, value in enumerate(pending):
            yield self._store(value, k, method, sorted(per_query[qi]))

    # -- rebalancing --------------------------------------------------------

    def _maybe_rebalance(self, pool) -> None:
        """Every ``REBALANCE_EVERY`` pooled scatters, read the per-slot
        ``busy_ns`` deltas from the pool's heartbeat counters and
        trigger a :meth:`rebalance` when the busiest slot has done at
        least twice the work of the idlest since the last check."""
        self._scatters += 1
        if self._scatters % self.REBALANCE_EVERY:
            return
        busy: list[float] = []
        for pid in pool.slot_pids():
            ws = pool.worker_stats.get(pid) if pid is not None else None
            busy.append(float(ws["busy_ns"]) if ws else 0.0)
        base = self._slot_busy_base
        self._slot_busy_base = busy
        delta = [
            b - (base[i] if i < len(base) else 0.0)
            for i, b in enumerate(busy)
        ]
        if len(delta) < 2:
            return
        hi, lo = max(delta), min(delta)
        if hi > 0 and hi >= 2.0 * max(lo, 1.0):
            self.rebalance()

    def rebalance(self) -> dict[int, int]:
        """Recompute the shard -> pool-slot placement by greedy LPT
        over the load window (filter pairs dispatched per shard since
        the last rebalance) and return the new placement.

        Ties prefer the default ``si % workers`` slot, so an idle
        service never churns its placement.  An applied change emits a
        ``shard_rebalance`` event and bumps
        ``shard_rebalances_total``; the load window resets either way.
        No-op (returns the identity placement) for single-shard or
        in-process services.
        """
        if not self.sharded or not self._workers or self._workers <= 1:
            return dict(self._placement)
        workers = max(1, int(self._workers))
        loads = sorted(
            (
                (self._shard_load.get(si, 0), si)
                for si in range(self._index.n_shards)
            ),
            key=lambda t: (-t[0], t[1]),
        )
        slot_load = [0] * workers
        placement: dict[int, int] = {}
        for load, si in loads:
            slot = min(
                range(workers),
                key=lambda w: (slot_load[w], (w - si) % workers),
            )
            placement[si] = slot
            slot_load[slot] += load
        moved = {
            si: slot
            for si, slot in placement.items()
            if self._placement.get(si) != slot
        }
        self._shard_load = {}
        if moved:
            self._placement = placement
            if self._c_rebalances is not None:
                self._c_rebalances.inc()
            self._obs.add_counter("shard_rebalances")
            self.events.emit(
                "shard_rebalance",
                moved={str(si): slot for si, slot in moved.items()},
                placement={
                    str(si): slot for si, slot in placement.items()
                },
            )
        return dict(self._placement)

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
        if self.sharded:
            out["shards"] = [
                {
                    "size": len(shard),
                    "rows": shard.rows,
                    "tombstones": shard.tombstones,
                    "generation": shard.generation,
                    "slot": self._placement.get(si),
                }
                for si, shard in enumerate(index.shards)
            ]
        if self.metrics:
            out["latency"] = {
                "query": _latency_ms(self._h_query),
                "query_batch": _latency_ms(self._h_batch),
            }
            out["events"] = self.events.total
        return out

    def save(self, path: str | Path) -> Path:
        """Snapshot the index (plus service config) to one file."""
        with self._obs.span("serve.snapshot"):
            saved = save_index(
                self._index,
                path,
                meta={"k": self.k, "cache_size": self._cache.maxsize},
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
        """Rebuild a warm service from a snapshot (no re-indexing).

        ``cache_size`` overrides the saved setting; the cache itself
        always starts empty.
        """
        index, header = load_index(path)
        meta = header.get("meta", {})
        svc = cls.__new__(cls)
        svc._init_state(
            index,
            k=int(meta.get("k", 1)),
            cache_size=(
                int(meta.get("cache_size", 1024))
                if cache_size is None
                else cache_size
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


def _shard_field(key: object) -> dict[str, object]:
    """``shard=`` for events about a shard's roster (``key`` is a shard
    id), nothing for the single index (``"base"``)."""
    return {} if key == "base" else {"shard": key}


def _latency_ms(hist) -> dict[str, float]:
    """ms-unit latency summary from a seconds-unit histogram."""
    s = hist.summary()
    return {
        "count": s["count"],
        "mean_ms": s["mean"] * 1e3,
        "p50_ms": s["p50"] * 1e3,
        "p95_ms": s["p95"] * 1e3,
        "p99_ms": s["p99"] * 1e3,
    }
