"""Online match serving: mutable indexes, caching, snapshots.

The batch layers answer "join these two datasets once"; this package
answers "keep a population resident and answer approximate-match
queries as they arrive".  The pieces:

* :class:`~repro.serve.mutable.MutableIndex` — add/remove with stable
  ids over the append-only :class:`~repro.core.index.FBFIndex`
  (tombstones + threshold-triggered compaction);
* :class:`~repro.serve.shard.ShardedIndex` — the same contract split
  across length-partitioned shards (one global id space, exact
  scatter/gather routing, per-shard compaction and handoff blobs);
* :class:`~repro.serve.service.MatchService` — the facade: cache-aware
  :meth:`query` / micro-batching :meth:`query_batch` (one PASS-JOIN
  planner run per roster, on the backend the planner picks), mutation
  counters and latency spans; ``shards > 1`` serves through
  scatter/gather, one planner run per routed shard, and ``workers > 1``
  lets the planner send large batches to the shared-memory pool;
* :mod:`~repro.serve.snapshot` — one-file persistence so a restarted
  service skips the O(n) rebuild (sharded snapshots are containers of
  per-shard handoff blobs);
* :mod:`~repro.serve.server` — the JSON-lines protocol behind
  ``repro-fbf serve``;
* :mod:`~repro.serve.aserver` — the asyncio front-end: cross-client
  request coalescing, bounded-admission shedding, graceful drain
  (``repro-fbf serve --port``);
* :mod:`~repro.serve.httpd` — the optional background ``/metrics``
  HTTP listener (``repro-fbf serve --metrics-port``).
"""

from repro.serve.aserver import AsyncMatchServer, LineFramer, run_server
from repro.serve.cache import MISS, ResultCache
from repro.serve.httpd import MetricsServer, start_metrics_server
from repro.serve.mutable import MutableIndex
from repro.serve.server import MAX_REQUEST_BYTES, handle, serve_lines
from repro.serve.service import MatchService, QueryResult
from repro.serve.shard import ShardedIndex
from repro.serve.snapshot import (
    dump_index_bytes,
    load_index,
    load_index_bytes,
    read_header,
    save_index,
)

__all__ = [
    "MAX_REQUEST_BYTES",
    "MISS",
    "AsyncMatchServer",
    "LineFramer",
    "MatchService",
    "MetricsServer",
    "MutableIndex",
    "QueryResult",
    "ResultCache",
    "ShardedIndex",
    "dump_index_bytes",
    "handle",
    "load_index",
    "load_index_bytes",
    "read_header",
    "run_server",
    "save_index",
    "serve_lines",
    "start_metrics_server",
]
