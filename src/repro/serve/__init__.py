"""Online match serving: mutable indexes, caching, snapshots.

The batch layers answer "join these two datasets once"; this package
answers "keep a population resident and answer approximate-match
queries as they arrive".  The pieces:

* :class:`~repro.serve.mutable.MutableIndex` — add/remove with stable
  ids over the one :class:`~repro.parallel.prepared.PreparedSide` every
  batch probes (tombstones + threshold-triggered compaction);
* :class:`~repro.serve.service.MatchService` — the facade: cache-aware
  micro-batching :meth:`query_batch` (one PASS-JOIN planner run against
  the roster, on the backend the planner picks, for every method) and
  :meth:`query`, a batch of one; mutation counters and latency spans;
  ``workers > 1`` lets the planner send large batches to the
  shared-memory pool;
* :mod:`~repro.serve.snapshot` — one-file persistence of the prepared
  roster, so a restarted service skips the O(n) rebuild (older sharded
  files still load, as one roster);
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
from repro.serve.snapshot import load_index, read_header, save_index

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
    "handle",
    "load_index",
    "read_header",
    "run_server",
    "save_index",
    "serve_lines",
    "start_metrics_server",
]
