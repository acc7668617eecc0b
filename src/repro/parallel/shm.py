"""Zero-copy shared-memory hybrid backend.

The ``vectorized`` backend runs NumPy chunk kernels on one core; the
``scalar`` reference loop verifies pairs one Python call at a time.
This module multiplies the vectorized kernels across worker
processes — workers × SIMD — with no per-call seeding cost:

* each side is encoded **once** in the parent (uint8 code matrix,
  lengths, FBF signatures packed into ``uint64`` words — a
  :class:`~repro.parallel.prepared.PreparedSide`) and published through
  :mod:`multiprocessing.shared_memory` as a :class:`Publication`;
  workers attach to the segments zero-copy, so datasets cross the
  process boundary at most once per pool lifetime (and as
  bytes-in-a-segment, never as pickles);
* a persistent :class:`WorkerPool` (lazy spawn, reused across joins and
  serve batches, explicit ``close()``/context manager, automatic
  respawn of dead workers) runs the chunk kernels of
  :mod:`repro.parallel.kernels` inside each worker — the same
  :class:`~repro.parallel.kernels.Kernels` the in-process
  :class:`~repro.parallel.chunked.VectorEngine` runs: the packed
  XOR+popcount filter sweep plus the vectorized banded-OSA verify —
  instead of scalar per-pair Python;
* scheduling is dynamic: work is cut into many more tasks than workers
  (sized by estimated cost — ``rows × n_right`` for dense filter
  sweeps, candidate count × DP band width for verify tasks, an even
  share of left rows for tasks that probe a PASS-JOIN index themselves)
  and fed through one queue, so a straggling block never serializes
  the join;
* every worker runs its tasks under a private
  :class:`~repro.obs.stats.StatsCollector` that is merged into the
  parent's, so the funnel conservation invariant holds for hybrid runs
  exactly as for the single-process backends.

The decisions are bit-identical to the scalar reference (asserted by
``tests/parallel/test_shm_equivalence.py``); only the wall time
changes.  Surfaced as ``backend="hybrid"`` in
:class:`repro.core.plan.JoinPlanner` / :func:`repro.join`, and used by
:meth:`repro.serve.service.MatchService.query_batch` to fan a batch out
across the published roster segments.

Observability counters (free-form, under ``collector.counters``):

``shm_tasks_dispatched``
    tasks queued for this run.
``shm_tasks_stolen``
    tasks a worker executed beyond its even share — the dynamic-queue
    rebalancing that static row splits cannot do.
``shm_bytes_shared`` / ``shm_bytes_pickled``
    bytes published as shared segments (counted once per publication)
    vs. bytes pickled through the task queue (task metadata only once
    the datasets are shared).
``shm_pool_reuse_hits`` / ``shm_workers_respawned``
    warm-pool reuse and crash-recovery respawns.
``shm_worker_busy_ns`` / ``shm_run_wall_ns``
    summed in-worker kernel time vs. parent wall time; utilization is
    ``busy / (wall × workers)``.

Platform note: on Linux the pool forks, so workers inherit the module
state cheaply; on macOS/Windows the spawn start method is used and
workers re-import the package.  Segments are unlinked by the parent
(``close()`` or garbage collection) — see the user guide's
"Choosing a backend" section for the spawn lifetime caveats.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import signal
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Iterable, Sequence

import numpy as np

from repro.core.join import JoinResult, match_rows
from repro.core.matchers import method_registry
from repro.core.multiplicity import PairWeighter
from repro.core.passjoin import PassJoinIndex, SegmentIndex
from repro.native import resolve_kernels
from repro.obs.log import get_logger
from repro.obs.stats import NULL_COLLECTOR, StatsCollector
from repro.parallel.kernels import Kernels, Side
from repro.parallel.partition import balanced_splits

__all__ = [
    "Publication",
    "SideArrays",
    "WorkerPool",
    "shared_pool",
    "close_shared_pools",
    "publish_pool_metrics",
    "run_hybrid",
    "PassJoinProbe",
    "inline_side",
]

_log = get_logger("parallel.shm")

#: cut work into ~this many tasks per worker so the queue can rebalance
_TASKS_PER_WORKER = 4
#: seconds an idle worker waits on its queue before checking its parent
_OWNER_POLL_S = 1.0


# ---------------------------------------------------------------------------
# Array publication
# ---------------------------------------------------------------------------
#
# A *ref* is the picklable handle to one ndarray:
#   ("shm", name, shape, dtype_str)  — attach to a shared segment
#   ("inline", ndarray)              — small per-run data, shipped in the task
#   ("rows", part, r0, n)            — rows r0: of an n-row inline array,
#                                      the only rows its task reads


@dataclass(frozen=True)
class SideArrays:
    """Picklable handles to one dataset's encoded arrays.

    ``codes``/``lengths`` feed the vectorized DP kernels, ``sigs`` is
    the packed-uint64 signature matrix for the FBF filter; ``sdx``
    (soundex code ids) and ``vid`` (value-identity codes for self-join
    diagonals) are published only when a method needs them.
    """

    n: int
    codes: tuple
    lengths: tuple
    sigs: tuple
    sdx: tuple | None = None
    vid: tuple | None = None


class _Segment:
    """One ndarray copied into a freshly created shared segment."""

    __slots__ = ("shm", "ref", "nbytes")

    def __init__(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes)
        )
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self.shm.buf)
        view[...] = arr
        self.ref = ("shm", self.shm.name, arr.shape, arr.dtype.str)
        self.nbytes = int(arr.nbytes)

    def close(self) -> None:
        try:
            self.shm.close()
        except Exception:
            pass
        try:
            self.shm.unlink()
        except Exception:
            pass  # already unlinked (or the platform beat us to it)


@contextmanager
def _sigterm_deferred():
    """Run SIGTERM's Python handler only when the block ends.

    A handler that raises (the stream driver's ``SystemExit``) runs at
    the next bytecode.  That can fall inside ``SharedMemory``'s
    constructor, after ``shm_open`` and before the resource tracker hears
    of the name, and then nothing ever unlinks the segment; or before the
    segment reaches its publication, whose finalizer would unlink it.  A
    SIGTERM that arrives inside the block is handed to the handler on the
    way out, once the segment is owned.  Python runs handlers in the main
    thread only, and the default action unwinds nothing, so anywhere else
    the block runs as is.
    """
    handler = signal.getsignal(signal.SIGTERM)
    if not callable(handler) or (
        threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    caught: list[tuple] = []
    signal.signal(signal.SIGTERM, lambda *args: caught.append(args))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, handler)
        if caught:
            handler(*caught[0])


def _close_segments(segments: list[_Segment]) -> None:
    for seg in segments:
        seg.close()
    segments.clear()


class Publication:
    """Shared segments published together, unlinked on :meth:`close`
    or when the publication is collected.

    :meth:`credit` hands out the bytes no collector has been credited
    with yet, so each published byte is counted once however many runs
    read it — the "datasets cross the boundary at most once" evidence.
    """

    def __init__(self):
        self._segments: list[_Segment] = []
        # The finalizer holds the list itself, so segments published
        # later (soundex ids added on demand) are still cleaned up.
        self._finalizer = weakref.finalize(
            self, _close_segments, self._segments
        )
        self._credited = 0

    def array(self, arr: np.ndarray) -> tuple:
        """Publish one array; returns its ref."""
        with _sigterm_deferred():
            seg = _Segment(arr)
            self._segments.append(seg)
        return seg.ref

    def side(self, side: Side) -> SideArrays:
        """Publish ``side``'s arrays (its soundex ids and value
        identities too, when set)."""
        return _side_refs(side, self.array)

    @property
    def bytes_shared(self) -> int:
        return sum(seg.nbytes for seg in self._segments)

    def credit(self) -> int:
        """Bytes published since the last call (the first call: all)."""
        fresh = self.bytes_shared - self._credited
        self._credited += fresh
        return fresh

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        self._finalizer()


def _side_refs(side: Side, ref) -> SideArrays:
    def optional(arr):
        return None if arr is None else ref(arr)

    return SideArrays(
        n=side.n,
        codes=ref(side.codes),
        lengths=ref(side.lengths),
        sigs=ref(side.sigs),
        sdx=optional(side.sdx),
        vid=optional(side.vid),
    )


def inline_side(side: Side) -> SideArrays:
    """``side``'s arrays as inline refs, shipped with every task — for a
    small per-call side (a serve batch, a stream chunk), where
    publication would cost more than the pickle."""
    return _side_refs(side, lambda arr: ("inline", arr))


class _PublishedIndex(Publication):
    """One :class:`PassJoinIndex`'s flat arrays, the ones it holds (see
    :meth:`SegmentIndex.flat`), published through shared memory."""

    def __init__(self, index: PassJoinIndex):
        super().__init__()
        hashes, ids, table = index.flat()
        #: rows indexed at publication; ``extend`` is the only way an
        #: index changes, and it appends rows
        self.size = len(index)
        self.ref = (
            index.k, self.size,
            self.array(hashes), self.array(ids), self.array(table),
        )


#: PassJoinIndex -> its current _PublishedIndex; an entry (and so its
#: segments) goes away with the index object
_PUBLISHED_INDEXES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _published_index(index: PassJoinIndex) -> _PublishedIndex:
    """``index`` published once per object, republished after it grew."""
    pub = _PUBLISHED_INDEXES.get(index)
    if pub is None or pub.size != len(index):
        if pub is not None:
            pub.close()
        pub = _PUBLISHED_INDEXES[index] = _PublishedIndex(index)
    return pub


# ---------------------------------------------------------------------------
# Worker-side attachment
# ---------------------------------------------------------------------------

#: per-worker LRU of attached segments; joins reuse attachments across
#: tasks and runs, dropped segments age out
_SEG_CACHE: OrderedDict[str, tuple] = OrderedDict()
_SEG_CACHE_MAX = 64


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with the resource tracker.

    The parent owns the segment, so a worker must not register it: a
    spawn worker's tracker would unlink it on worker exit, and a fork
    worker (which shares the parent's tracker) would corrupt the
    parent's registration.  Python >= 3.13 has ``track=False`` for
    exactly this; earlier versions get the classic bpo-38119
    workaround — suppress ``register`` for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13 has no track= parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _ref_rows(ref, work: tuple):
    """An inline ref cut to the rows a ``"probe"`` task reads (a
    ``"rows"`` ref); other refs, and refs of other work, as they are."""
    if ref is None or ref[0] != "inline" or work[0] != "probe":
        return ref
    r0, r1, arr = work[1], work[2], ref[1]
    return ("rows", arr[r0:r1], r0, len(arr))


def _side_rows(side: SideArrays, work: tuple) -> SideArrays:
    """``side`` with its inline arrays cut to the rows ``work`` reads:
    an inline left side (a serve batch, a stream chunk) ships each
    probe task only its own rows."""
    if work[0] != "probe":
        return side
    return replace(side, **{
        name: _ref_rows(getattr(side, name), work)
        for name in ("codes", "lengths", "sigs", "sdx", "vid")
    })


def _resolve_ref(ref) -> np.ndarray | None:
    if ref is None:
        return None
    if ref[0] == "inline":
        return ref[1]
    if ref[0] == "rows":
        # The row ids stay global: the rows the task does not read are
        # zeros.
        _, part, r0, n = ref
        full = np.zeros((n, *part.shape[1:]), dtype=part.dtype)
        full[r0 : r0 + len(part)] = part
        return full
    _, name, shape, dtype = ref
    entry = _SEG_CACHE.get(name)
    if entry is None:
        seg = _attach(name)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        _SEG_CACHE[name] = entry = (seg, arr)
        while len(_SEG_CACHE) > _SEG_CACHE_MAX:
            _, (old, _arr) = _SEG_CACHE.popitem(last=False)
            try:
                old.close()
            except Exception:
                pass
    else:
        _SEG_CACHE.move_to_end(name)
    return entry[1]


def _resolve_side(side: SideArrays) -> Side:
    return Side(
        side.n,
        _resolve_ref(side.codes),
        _resolve_ref(side.lengths),
        _resolve_ref(side.sigs),
        sdx=_resolve_ref(side.sdx),
        vid=_resolve_ref(side.vid),
    )


# ---------------------------------------------------------------------------
# Hybrid tasks (worker side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _HybridTask:
    """One unit of hybrid work: a dense row range, a candidate slice or
    a row range to probe."""

    left: SideArrays
    right: SideArrays
    method: str
    k: int
    theta: float
    fbf_bound: int
    self_join: bool
    collect: bool
    record: bool
    #: ("rows", r0, r1) — dense sweep of left rows r0:r1 × all of right;
    #: ("pairs", ii_ref, jj_ref, start, stop) — candidate index slice;
    #: ("probe", r0, r1, index_ref) — left rows r0:r1 probed against a
    #: published PASS-JOIN index over right, candidates verified in place
    work: tuple
    w_left: tuple | None = None
    w_right: tuple | None = None
    symmetric: bool = False
    #: the planner's ``kernels`` pin, resolved in the worker
    kernels: str = "auto"


def _exec_hybrid(task: _HybridTask) -> dict:
    """Worker entry point for one hybrid task."""
    weighter = None
    w_left = _resolve_ref(task.w_left)
    if w_left is not None:
        weighter = PairWeighter(
            w_left, _resolve_ref(task.w_right), symmetric=task.symmetric
        )
    kernels = Kernels(
        _resolve_side(task.left),
        _resolve_side(task.right),
        method_registry()[task.method],
        k=task.k,
        fbf_bound=task.fbf_bound,
        theta=task.theta,
        self_join=task.self_join,
        record=task.record,
        weighter=weighter,
        native=resolve_kernels(task.kernels),
    )
    wc = StatsCollector("shm-worker") if task.collect else None
    obs = wc if wc is not None else NULL_COLLECTOR
    if task.work[0] == "rows":
        out = kernels.run_rows(task.work[1], task.work[2], obs)
    elif task.work[0] == "probe":
        _, r0, r1, (k, n, hashes, ids, table) = task.work
        index = SegmentIndex.from_flat(
            k, n, _resolve_ref(hashes), _resolve_ref(ids), _resolve_ref(table)
        )
        out = kernels.run_probe(index, r0, r1, obs)
        if out["mi"]:
            # Ordered here, so the parent only concatenates the tasks'
            # contiguous row ranges.
            mi, mj = match_rows(out["mi"], out["mj"])
            order = np.lexsort((mj, mi))
            out["mi"], out["mj"] = [mi[order]], [mj[order]]
    else:
        _, ii_ref, jj_ref, start, stop = task.work
        ii = _resolve_ref(ii_ref)[start:stop]
        jj = _resolve_ref(jj_ref)[start:stop]
        out = kernels.run_pairs(ii, jj, obs)
    out["wc"] = wc
    return out


# ---------------------------------------------------------------------------
# The persistent worker pool
# ---------------------------------------------------------------------------


def _worker_main(task_q, result_q, owner: int) -> None:
    """Worker loop: pull ``(run_id, task_id, blob)``, push
    ``(run_id, task_id, pid, busy_ns, error, result)``.  ``None`` is the
    shutdown sentinel.

    Before each wait on the queue, and every ``_OWNER_POLL_S`` seconds
    while idle, the worker checks its parent: once that is no longer
    ``owner`` (the pool's process was killed, so no sentinel will come,
    and its queued tasks have no reader) it exits at once.  ``os._exit``
    skips the queue feeder's join, which could wait forever on a dead
    reader.
    """
    pid = os.getpid()
    while os.getppid() == owner:
        try:
            item = task_q.get(timeout=_OWNER_POLL_S)
        except queue.Empty:
            continue
        if item is None:
            break
        run_id, task_id, blob = item
        try:
            fn, payload = pickle.loads(blob)
            t0 = time.perf_counter_ns()
            out = fn(payload)
            busy = time.perf_counter_ns() - t0
            result_q.put((run_id, task_id, pid, busy, None, out))
        except Exception as exc:
            import traceback

            err = f"{exc!r}\n{traceback.format_exc()}"
            try:
                result_q.put((run_id, task_id, pid, 0, err, None))
            except Exception:
                os._exit(1)
    else:
        os._exit(0)


def _default_context():
    # fork is both the cheap option and the one that keeps the imported
    # package state; spawn is the portable fallback (macOS/Windows).
    methods = get_all_start_methods()
    return get_context("fork" if "fork" in methods else "spawn")


class WorkerPool:
    """A persistent multiprocessing pool with one shared task queue.

    Unlike ``ProcessPoolExecutor`` as the legacy driver used it, the
    pool is *reused*: workers are spawned lazily on the first
    :meth:`run_tasks` and then serve every subsequent join or serve
    batch, so repeated runs pay neither process startup nor dataset
    reseeding.  Tasks are pre-pickled in the parent (which is also what
    makes the ``bytes_pickled`` accounting exact), results are deduped
    by task id, and workers that die mid-run are respawned with their
    incomplete tasks re-enqueued — a crashed worker costs its in-flight
    task's work, never the join.  Workers exit by themselves when the
    process that started them dies.

    Use as a context manager or call :meth:`close`; module-level warm
    pools (:func:`shared_pool`) are closed at interpreter exit.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        context=None,
        timeout: float | None = None,
    ):
        self.workers = max(1, int(workers or os.cpu_count() or 1))
        self.timeout = timeout
        self._ctx = context or _default_context()
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self._closed = False
        self._owner_pid = os.getpid()
        self._run_seq = 0
        self.tasks_dispatched = 0
        self.tasks_completed = 0
        self.tasks_stolen = 0
        self.bytes_pickled = 0
        self.respawns = 0
        self.reuse_hits = 0
        self._unreported_reuse = 0
        self.busy_ns = 0
        #: per-pid lifetime tallies: {"tasks", "busy_ns", "last_seen"}
        #: (``last_seen`` is wall-clock of the pid's latest result — the
        #: heartbeat the serve layer surfaces as per-worker gauges).
        #: Entries are created at spawn and *dropped at death*, so the
        #: heartbeat never reports a corpse as a live series.
        self.worker_stats: dict[int, dict[str, float]] = {}
        #: pids whose process died (their series must leave the scrape)
        self.retired_pids: set[int] = set()
        #: wall-clock of the first spawn (busy-ratio denominator)
        self.started_at: float | None = None
        #: respawns already reported through publish_pool_metrics
        self._respawns_published = 0
        #: pids whose pool_worker_* series the last publish rendered
        self._published_pids: set[int] = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._result_q is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def _spawn(self):
        p = self._ctx.Process(
            target=_worker_main,
            args=(self._task_q, self._result_q, os.getpid()),
            daemon=True,
        )
        p.start()
        # Register the pid's series at spawn, not first answer, so a
        # respawned worker is visible in the very next scrape.
        self.worker_stats.setdefault(
            p.pid, {"tasks": 0, "busy_ns": 0, "last_seen": time.time()}
        )
        return p

    def _retire(self, proc) -> None:
        """Forget a dead pid's per-worker series (lifetime totals keep
        its contribution; only the labelled heartbeat rows go away)."""
        if proc.pid is None:
            return
        self.worker_stats.pop(proc.pid, None)
        self.retired_pids.add(proc.pid)

    def ensure(self) -> None:
        """Spawn (or respawn) workers up to the configured count."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._result_q is None:
            self._result_q = self._ctx.Queue()
            self._task_q = self._ctx.Queue()
        if self.started_at is None:
            self.started_at = time.time()
        died = 0
        alive = [p for p in self._procs if p.is_alive()]
        for p in self._procs:
            if not p.is_alive():
                died += 1
                self._retire(p)
        self._procs = alive
        while len(self._procs) < self.workers:
            self._procs.append(self._spawn())
        if died:
            self.respawns += died
            _log.warning("respawning %d dead worker(s)", died)

    def close(self) -> None:
        """Shut the workers down and drop the queues (idempotent).

        A forked child that inherited this object must never tear it
        down — only the creating process owns the workers.
        """
        if self._closed or os.getpid() != self._owner_pid:
            self._closed = True
            return
        self._closed = True
        if self.started:
            for _ in self._procs:
                try:
                    self._task_q.put(None)
                except Exception:
                    break
            for p in self._procs:
                p.join(timeout=2)
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1)
            for q in (self._task_q, self._result_q):
                try:
                    q.cancel_join_thread()
                    q.close()
                except Exception:
                    pass
        self._procs = []
        self._task_q = self._result_q = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def consume_reuse_hits(self) -> int:
        """Warm-pool acquisitions since the last report (run-delta
        counter feed)."""
        n = self._unreported_reuse
        self._unreported_reuse = 0
        return n

    # -- execution -----------------------------------------------------------

    def run_tasks(
        self,
        calls: Sequence[tuple],
        *,
        timeout: float | None = None,
    ) -> list:
        """Execute ``(fn, payload)`` pairs; results in submission order.

        Tasks drain from one shared queue, so a fast worker picks up a
        slow worker's share (dynamic scheduling).  A worker crash
        triggers respawn + re-enqueue of incomplete tasks (results are
        deduped by task id, so double execution is harmless); a task
        that *raises* re-raises here with the worker traceback, leaving
        the pool reusable.
        """
        if not calls:
            return []
        self.ensure()
        timeout = self.timeout if timeout is None else timeout
        self._run_seq += 1
        run_id = self._run_seq
        blobs = [
            pickle.dumps(call, protocol=pickle.HIGHEST_PROTOCOL)
            for call in calls
        ]
        for task_id, blob in enumerate(blobs):
            self._task_q.put((run_id, task_id, blob))
            self.bytes_pickled += len(blob)
        self.tasks_dispatched += len(blobs)
        results: dict[int, object] = {}
        executed_by: dict[int, int] = {}
        deadline = None if timeout is None else time.monotonic() + timeout
        respawn_budget = 3 * self.workers
        while len(results) < len(blobs):
            try:
                rid, task_id, pid, busy, err, out = self._result_q.get(
                    timeout=0.1
                )
            except queue.Empty:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"pool run timed out after {timeout}s with "
                        f"{len(blobs) - len(results)} task(s) outstanding"
                    )
                if self.alive_workers() < self.workers:
                    if respawn_budget <= 0:
                        raise RuntimeError(
                            "workers keep dying faster than the respawn "
                            "budget; giving up on this run"
                        )
                    respawn_budget -= self.workers - self.alive_workers()
                    self.ensure()
                    # Re-enqueue everything not yet answered; completed
                    # duplicates are discarded by the task-id dedup.
                    for task_id, blob in enumerate(blobs):
                        if task_id not in results:
                            self._task_q.put((run_id, task_id, blob))
                continue
            if rid != run_id or task_id in results:
                continue  # stale result from a past run or a re-enqueue
            if err is not None:
                raise RuntimeError(f"worker task failed:\n{err}")
            results[task_id] = out
            executed_by[pid] = executed_by.get(pid, 0) + 1
            self.busy_ns += busy
            self.tasks_completed += 1
            ws = self.worker_stats.get(pid)
            if ws is None:
                ws = self.worker_stats[pid] = {
                    "tasks": 0, "busy_ns": 0, "last_seen": 0.0,
                }
            ws["tasks"] += 1
            ws["busy_ns"] += busy
            ws["last_seen"] = time.time()
        # "Stolen" = executed beyond the even per-worker share; with a
        # static split this is zero by construction.
        fair = -(-len(blobs) // max(1, len(executed_by)))
        self.tasks_stolen += sum(
            max(0, n - fair) for n in executed_by.values()
        )
        return [results[task_id] for task_id in range(len(blobs))]

    # -- telemetry -----------------------------------------------------------

    def heartbeat(self) -> dict[str, object]:
        """JSON-ready live view of the pool: lifetime totals plus one
        entry per worker pid that has ever answered.

        ``busy_ratio`` is the pid's summed in-kernel time over the
        pool's wall lifetime.  ``age_s`` is seconds since
        the pid's last completed task (its heartbeat staleness).
        """
        now = time.time()
        uptime = (now - self.started_at) if self.started_at else 0.0
        alive_pids = {p.pid for p in self._procs if p.is_alive()}
        return {
            "workers": self.workers,
            "alive": len(alive_pids),
            "uptime_s": uptime,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_completed": self.tasks_completed,
            "tasks_stolen": self.tasks_stolen,
            "bytes_pickled": self.bytes_pickled,
            "respawns": self.respawns,
            "busy_ns": self.busy_ns,
            "per_worker": {
                pid: {
                    "tasks": ws["tasks"],
                    "busy_ns": ws["busy_ns"],
                    "busy_ratio": (
                        ws["busy_ns"] / (uptime * 1e9) if uptime else 0.0
                    ),
                    "age_s": max(0.0, now - ws["last_seen"]),
                    "alive": pid in alive_pids,
                }
                for pid, ws in self.worker_stats.items()
            },
        }


def publish_pool_metrics(
    pool: "WorkerPool", metrics, events=None
) -> dict[str, object]:
    """Surface a pool's heartbeat as registry gauges/counters.

    Pool-level lifetime totals land in ``pool_*_total`` counters (via
    ``set_total`` — the pool already keeps the monotone running sums
    that back the ``shm_*`` collector counters), live state in
    ``pool_*`` gauges, and each worker pid gets labelled
    ``pool_worker_*`` gauges (tasks, busy ratio, heartbeat age,
    liveness).  Respawns since the previous publish are emitted as
    ``worker_respawn`` events.  Returns the heartbeat dict.
    """
    hb = pool.heartbeat()
    metrics.gauge("pool_workers", "configured worker count").set(
        hb["workers"]
    )
    metrics.gauge("pool_workers_alive", "workers currently alive").set(
        hb["alive"]
    )
    metrics.gauge("pool_uptime_seconds", "seconds since first spawn").set(
        hb["uptime_s"]
    )
    for key, help_ in (
        ("tasks_dispatched", "tasks queued over the pool lifetime"),
        ("tasks_completed", "tasks answered over the pool lifetime"),
        ("tasks_stolen", "tasks executed beyond the even share"),
        ("bytes_pickled", "bytes shipped through the task queue"),
        ("respawns", "workers respawned after dying"),
    ):
        metrics.counter(f"pool_{key}_total", help_).set_total(hb[key])
    metrics.counter(
        "pool_busy_seconds_total", "summed in-worker kernel time"
    ).set_total(hb["busy_ns"] / 1e9)
    for pid, ws in hb["per_worker"].items():
        labels = {"pid": str(pid)}
        metrics.gauge(
            "pool_worker_tasks", "tasks answered by this pid", labels
        ).set(ws["tasks"])
        metrics.gauge(
            "pool_worker_busy_ratio",
            "pid busy time over pool wall lifetime",
            labels,
        ).set(ws["busy_ratio"])
        metrics.gauge(
            "pool_worker_heartbeat_age_seconds",
            "seconds since this pid last answered",
            labels,
        ).set(ws["age_s"])
        metrics.gauge(
            "pool_worker_alive", "1 if the pid is alive", labels
        ).set(1.0 if ws["alive"] else 0.0)
    # A crash-respawn replaced some pids: retire the dead pids' series
    # so scrapes stop reporting ghosts, instead of a stale gauge row
    # lingering forever next to the respawned worker's fresh one.
    current_pids = {str(pid) for pid in hb["per_worker"]}
    for stale in pool._published_pids - current_pids:
        for name in (
            "pool_worker_tasks",
            "pool_worker_busy_ratio",
            "pool_worker_heartbeat_age_seconds",
            "pool_worker_alive",
        ):
            metrics.remove_series(name, {"pid": stale})
    pool._published_pids = current_pids
    if events:
        new_respawns = pool.respawns - pool._respawns_published
        if new_respawns > 0:
            events.emit(
                "worker_respawn",
                count=new_respawns,
                total=pool.respawns,
                alive=hb["alive"],
            )
    pool._respawns_published = pool.respawns
    return hb


#: process-wide warm pools, keyed by worker count
_SHARED_POOLS: dict[int, WorkerPool] = {}
_ATEXIT_REGISTERED = False


def shared_pool(workers: int | None = None) -> WorkerPool:
    """The process-wide warm :class:`WorkerPool` for ``workers``.

    Created on first use, reused (and counted as a reuse hit) after;
    closed automatically at interpreter exit.
    """
    global _ATEXIT_REGISTERED
    n = max(1, int(workers or os.cpu_count() or 1))
    pool = _SHARED_POOLS.get(n)
    if pool is not None and not pool.closed and pool._owner_pid == os.getpid():
        pool.reuse_hits += 1
        pool._unreported_reuse += 1
        return pool
    pool = WorkerPool(n)
    _SHARED_POOLS[n] = pool
    if not _ATEXIT_REGISTERED:
        atexit.register(close_shared_pools)
        _ATEXIT_REGISTERED = True
    return pool


def close_shared_pools() -> None:
    """Close every warm pool (atexit hook; also handy in tests)."""
    for pool in list(_SHARED_POOLS.values()):
        pool.close()
    _SHARED_POOLS.clear()


# ---------------------------------------------------------------------------
# The parent-side driver
# ---------------------------------------------------------------------------


@dataclass
class PassJoinProbe:
    """Candidate generation handed to the pool workers.

    ``index`` is a :class:`PassJoinIndex` over the right side's strings;
    each task probes it with its slice of the left side's published
    codes.  :func:`run_hybrid` sets ``emitted`` to the candidates the
    tasks generated (original-pair weight under a weighter), which the
    caller credits to the funnel's generator stage.
    """

    index: PassJoinIndex
    emitted: int = 0


def _task_span(total_cost: int, workers: int, lo: int, hi: int) -> int:
    per_task = total_cost // max(1, workers * _TASKS_PER_WORKER)
    return int(min(hi, max(lo, per_task)))


def run_hybrid(
    pool: WorkerPool,
    left: SideArrays,
    right: SideArrays,
    method: str,
    blocks: Iterable[tuple[np.ndarray, np.ndarray]]
    | PassJoinProbe
    | None = None,
    *,
    scheme,
    k: int = 1,
    theta: float = 0.8,
    self_join: bool = False,
    collector=None,
    record_matches: bool = False,
    weighter: PairWeighter | None = None,
    publications: Iterable[Publication] = (),
    kernels: str = "auto",
) -> JoinResult:
    """One hybrid join over already-published sides.

    ``blocks=None`` runs the dense full product (row-range tasks).  A
    :class:`PassJoinProbe` moves candidate generation into the workers:
    the left rows are cut into ``workers x _TASKS_PER_WORKER`` ranges,
    and each task probes the index (published once per index object,
    again only after it grew) with its rows' codes (an inline left
    side ships each task only its rows), then verifies its own
    candidates.  Any other iterable of candidate blocks is drained in
    the parent, published as two index segments and cut into verify
    tasks.  ``publications`` (the ones backing
    ``left``/``right``) credit their bytes to the collector once over
    their lifetime (:meth:`Publication.credit`); a probed index's bytes
    are credited once per publication the same way.  ``weighter``
    requires candidates (a stream or a probe): dense row tasks cannot
    reproduce a self-join's symmetric weights.  ``kernels`` rides on
    every task: under ``"auto"`` the workers use the compiled kernels
    when a provider loads, ``"numpy"`` pins NumPy.
    """
    spec = method_registry().get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if weighter is not None and blocks is None:
        raise ValueError(
            "run_hybrid with a weighter requires candidates (a stream or "
            "a probe; dense row tasks cannot reproduce symmetric weights)"
        )
    obs = collector if collector else NULL_COLLECTOR
    n_left, n_right = left.n, right.n
    if obs:
        obs.meta.setdefault("method", method)
        obs.meta.setdefault("k", k)
        obs.meta["n_left"] = n_left
        obs.meta["n_right"] = n_right
    w_left_ref = w_right_ref = None
    symmetric = False
    if weighter is not None:
        w_left_ref = ("inline", np.asarray(weighter.w_left, dtype=np.int64))
        w_right_ref = ("inline", np.asarray(weighter.w_right, dtype=np.int64))
        symmetric = weighter.symmetric
    #: the drain path's candidate arrays, unlinked when the run ends
    run_pub = Publication()
    works: list[tuple] = []
    published: _PublishedIndex | None = None
    probing = isinstance(blocks, PassJoinProbe)
    if probing:
        if len(blocks.index):
            published = _published_index(blocks.index)
            for r0, r1 in balanced_splits(
                n_left, pool.workers * _TASKS_PER_WORKER
            ):
                works.append(("probe", r0, r1, published.ref))
    elif blocks is None:
        # Dense-path task cost is the filter sweep itself: rows x n_right.
        if n_right:
            target = _task_span(
                n_left * n_right, pool.workers, 1 << 16, 1 << 24
            )
            rows = max(1, target // n_right)
            for r0 in range(0, n_left, rows):
                works.append(("rows", r0, min(n_left, r0 + rows)))
    else:
        parts_i: list[np.ndarray] = []
        parts_j: list[np.ndarray] = []
        for bi, bj in blocks:  # drained fully (generator accounting)
            if len(bi):
                parts_i.append(np.asarray(bi, dtype=np.int64))
                parts_j.append(np.asarray(bj, dtype=np.int64))
        total = sum(len(p) for p in parts_i)
        if total:
            ii = parts_i[0] if len(parts_i) == 1 else np.concatenate(parts_i)
            jj = parts_j[0] if len(parts_j) == 1 else np.concatenate(parts_j)
            # Candidate tasks are verify-bound: estimated cost is the
            # candidate count x the banded-DP width (2k+1), so they are
            # cut ~an order of magnitude finer than dense sweeps.
            band = 2 * k + 1
            target = max(
                1,
                _task_span(total * band, pool.workers, 1 << 14, 1 << 22)
                // band,
            )
            refs = run_pub.array(ii), run_pub.array(jj)
            n_tasks = max(1, -(-total // target))
            for start, stop in balanced_splits(total, n_tasks):
                works.append(("pairs", *refs, start, stop))
    calls = [
        (
            _exec_hybrid,
            _HybridTask(
                left=_side_rows(left, work),
                right=right,
                method=method,
                k=k,
                theta=theta,
                fbf_bound=scheme.safe_threshold(k),
                self_join=self_join,
                collect=bool(collector),
                record=record_matches,
                work=work,
                w_left=_ref_rows(w_left_ref, work),
                w_right=w_right_ref,
                symmetric=symmetric,
                kernels=kernels,
            ),
        )
        for work in works
    ]
    before_pickled = pool.bytes_pickled
    before_stolen = pool.tasks_stolen
    before_respawns = pool.respawns
    before_busy = pool.busy_ns
    t0 = time.perf_counter_ns()
    try:
        with obs.span(f"run.{method}.hybrid"):
            outs = pool.run_tasks(calls)
    finally:
        run_bytes = run_pub.credit()
        run_pub.close()
    wall = time.perf_counter_ns() - t0
    result = JoinResult(method, n_left, n_right, backend="hybrid")
    mi_parts: list[np.ndarray] = []
    mj_parts: list[np.ndarray] = []
    if probing:
        # Results are deduped by task id, so a task re-run after a
        # worker crash is credited once.
        blocks.emitted = sum(out["emitted"] for out in outs)
    for out in outs:
        result.match_count += out["match_count"]
        result.diagonal_matches += out["diagonal"]
        result.verified_pairs += out["verified"]
        result.pairs_compared += out["compared"]
        mi_parts.extend(out["mi"])
        mj_parts.extend(out["mj"])
        wc = out.get("wc")
        if collector and wc is not None:
            collector.merge(wc)
    if record_matches and mi_parts:
        mi, mj = match_rows(mi_parts, mj_parts)
        if blocks is not None and not probing:
            # Drained candidates come in the generator's order: sort by
            # (left row, right row).  Row and probe tasks return
            # their matches in that order, and their row ranges ascend in
            # submission order, which is the order of ``outs``.
            order = np.lexsort((mj, mi))
            mi, mj = mi[order], mj[order]
        result.match_rows = (mi, mj)
    if collector:
        collector.add_counter("shm_tasks_dispatched", len(calls))
        collector.add_counter(
            "shm_tasks_stolen", pool.tasks_stolen - before_stolen
        )
        collector.add_counter(
            "shm_bytes_pickled", pool.bytes_pickled - before_pickled
        )
        shared_bytes = run_bytes
        for pub in (*publications, published):
            if pub is not None:
                shared_bytes += pub.credit()
        collector.add_counter("shm_bytes_shared", shared_bytes)
        collector.add_counter(
            "shm_workers_respawned", pool.respawns - before_respawns
        )
        collector.add_counter(
            "shm_pool_reuse_hits", pool.consume_reuse_hits()
        )
        collector.add_counter(
            "shm_worker_busy_ns", pool.busy_ns - before_busy
        )
        collector.add_counter("shm_run_wall_ns", wall)
    return result

