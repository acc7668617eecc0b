"""The out-of-core join driver: broadcast the roster, stream the rest.

``join_stream`` joins a disk-resident dataset of arbitrary size against
an in-memory roster under a bounded footprint:

* the **roster** (the small side) is one
  :class:`~repro.parallel.prepared.PreparedSide`: its encodings and the
  plan's PASS-JOIN index are built once, by the first chunk that needs
  them, and shared by every chunk after; for the hybrid
  pool it is published once, before the first chunk;
* the **big side** streams from disk through a :class:`~repro.stream.
  source.ChunkSource` in ``chunk_rows``-sized chunks (sized directly or
  derived from ``memory_budget_mb``).  Each chunk is one planner run,
  ``JoinPlanner(chunk, roster, ...)``, through the planner's generator
  + backend stack exactly as an in-memory join would; the chunk's own
  encoding is its only preparation, and on the hybrid pool it ships
  inline with the tasks.  Chunks join one at a time — the worker
  pool's pending queue never holds more than one chunk's tasks, which
  *is* the backpressure bound — with two threads beside the join: a
  prefetch thread reads the next chunk from disk, and a spill thread
  writes the previous chunk out (below);
* **matches spill** to disk incrementally through
  :class:`~repro.stream.spill.SpillWriter` (bounded buffer, flushed
  every chunk), so the match set never accumulates in RAM.  Chunk i's
  matches are formatted, written and fsynced on the spill thread while
  chunk i+1 joins; chunk i is handed over only once chunk i-1's spill
  is done, so at most one chunk's matches are in flight.  The compiled
  provider, loaded once before the roster is prepared, formats the
  lines without holding the GIL;
* a **checkpoint** is written, on the spill thread, after every
  chunk's spill is durable, with the funnel as it stood when the
  chunk's join finished; ``stream_checkpoint`` is emitted once it has
  replaced the previous one.  A killed run re-invoked with
  ``resume=True`` truncates the spill back to the checkpointed byte
  count, restores the merged funnel, seeks the source to the recorded
  offset and continues — the finished spill file is byte-identical to
  an uninterrupted run's and the funnel conservation invariant holds
  across the kill.

The per-chunk funnel contributions are additive, so one collector
accumulates the whole stream: ``pairs_considered`` ends at
``total_rows x len(roster)`` and conservation holds exactly as it does
for one in-memory join.

Interrupted-run hygiene: for the duration of the stream a SIGTERM
handler that raises :class:`SystemExit` is installed (when possible),
so ``kill <pid>`` unwinds the Python stack — the spill thread finishes
the chunk it holds, shared-memory segments are unlinked by their
finalizers and the spill file is rolled back to the last checkpoint
instead of being left with a torn chunk.  Every exit, an error on
either thread included, joins the spill thread before that rollback.  SIGKILL can
not be caught; leaked segments are reclaimed by multiprocessing's
resource tracker, and the spill rollback happens on the *next* run's
``resume=True``.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.core.matchers import method_registry
from repro.core.plan import BACKEND_NAMES, GENERATOR_FACTORIES, JoinPlanner
from repro.core.signatures import detect_kind, scheme_for
from repro.io import read_strings
from repro.native import load_kernels
from repro.obs.events import NULL_EVENTS
from repro.obs.metrics import NullMetricsRegistry
from repro.obs.stats import StatsCollector
from repro.parallel.prepared import PreparedSide
from repro.stream.checkpoint import (
    Checkpoint,
    funnel_state,
    load_checkpoint,
    roster_digest,
)
from repro.stream.source import ChunkSource, source_for
from repro.stream.spill import SpillWriter, truncate_to

__all__ = [
    "join_stream",
    "StreamResult",
    "resolve_chunk_rows",
    "DEFAULT_CHUNK_ROWS",
    "ROW_FOOTPRINT",
    "STREAM_GENERATORS",
]

DEFAULT_CHUNK_ROWS = 65536

#: budgeted resident bytes per streamed row: the string object, its
#: uint8 codes + signature rows across levels, and its share of the
#: candidate/verification block arrays while a chunk is in flight.
#: The candidate share scales with roster density — measured ~4.5 KB
#: peak per row against a 2e4-name roster and ~11 KB against 1e5 —
#: so the budget rate is set above the densest measured workload
ROW_FOOTPRINT = 16384

#: generators the streaming driver will route to (the planner's
#: lossless ones; key blocking is lossy and never auto-picked)
STREAM_GENERATORS = tuple(
    name for name, factory in GENERATOR_FACTORIES.items() if factory.lossless
)

#: test hook: sleep this many ms after each chunk (makes "SIGKILL lands
#: mid-run" deterministic for the kill-and-resume suite)
_SLEEP_ENV = "REPRO_STREAM_CHUNK_SLEEP_MS"


def resolve_chunk_rows(
    chunk_rows: int | None, memory_budget_mb: float | None
) -> int:
    """Rows per chunk: explicit wins, else derived from the budget.

    Half the budget is granted to resident chunk state at
    :data:`ROW_FOOTPRINT` bytes per row — the rest is headroom for the
    roster, its indexes and the interpreter itself.  Clamped to
    ``[1024, 2**22]`` so degenerate budgets stay functional.  The
    resolved value is recorded in the checkpoint, so a resumed run
    chunks identically even if the budget flag changes.
    """
    if chunk_rows is not None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        return int(chunk_rows)
    if memory_budget_mb is not None:
        if memory_budget_mb <= 0:
            raise ValueError(
                f"memory_budget_mb must be positive, got {memory_budget_mb}"
            )
        rows = int(memory_budget_mb * (1 << 20)) // (2 * ROW_FOOTPRINT)
        return max(1024, min(rows, 1 << 22))
    return DEFAULT_CHUNK_ROWS


@dataclass
class StreamResult:
    """Outcome of one streamed join (possibly a resumed continuation)."""

    method: str
    generator: str
    backend: str
    n_roster: int
    rows: int
    chunks: int
    match_count: int
    #: in-memory matches (global_row, roster_id); ``None`` when spilled
    matches: list[tuple[int, int]] | None
    spill: Path | None
    spill_bytes: int
    checkpoint: Path | None
    #: chunk ordinal the run resumed after, or ``None`` for a fresh run
    resumed_after: int | None
    #: False when ``max_chunks`` stopped the run before the source dried
    completed: bool
    wall_s: float
    collector: StatsCollector

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "generator": self.generator,
            "backend": self.backend,
            "n_roster": self.n_roster,
            "rows": self.rows,
            "chunks": self.chunks,
            "match_count": self.match_count,
            "spill": None if self.spill is None else str(self.spill),
            "spill_bytes": self.spill_bytes,
            "resumed_after": self.resumed_after,
            "completed": self.completed,
            "wall_s": self.wall_s,
        }


class _Prefetcher:
    """Overlap the next chunk's disk read with the current verify.

    A single daemon thread reads ahead into a bounded queue (depth 1 by
    default): exactly one decoded chunk is in flight beyond the one
    being verified, which bounds memory while hiding read latency.
    Iterator exceptions propagate to the consumer; :meth:`close` stops
    the reader even if the consumer bails early.
    """

    _DONE = object()

    def __init__(self, iterator, depth: int = 1):
        self._q: queue.Queue = queue.Queue(maxsize=max(1, depth))
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._fill, args=(iterator,), daemon=True
        )
        self._thread.start()

    def _put(self, item) -> bool:
        while not self._stop.is_set():
            try:
                self._q.put(item, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def _fill(self, iterator) -> None:
        try:
            for item in iterator:
                if not self._put(item):
                    return
            self._put(self._DONE)
        except BaseException as exc:  # noqa: BLE001 - relayed to consumer
            self._put(exc)

    def __iter__(self):
        while True:
            item = self._q.get()
            if item is self._DONE:
                return
            if isinstance(item, BaseException):
                raise item
            yield item

    def close(self) -> None:
        self._stop.set()
        try:
            while True:
                self._q.get_nowait()
        except queue.Empty:
            pass


class _SpillThread:
    """One thread that spills a chunk while the next chunk joins.

    :meth:`submit` first waits for the job before it, so at most one
    chunk's matches are in flight, and re-raises that job's error on the
    caller's thread.  The thread starts with the first job; :meth:`close`
    lets a job in flight finish and joins the thread without raising.
    """

    def __init__(self):
        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-spill"
        )
        self._pending: Future | None = None

    def submit(self, fn, *args) -> None:
        self.wait()
        self._pending = self._exec.submit(fn, *args)

    def wait(self) -> None:
        """Wait for the job in flight; its error is raised here."""
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()

    def close(self) -> None:
        self._pending = None
        self._exec.shutdown(wait=True)


class _TermGuard:
    """Raise ``SystemExit`` on SIGTERM for the duration of a stream.

    Default SIGTERM disposition kills the process without unwinding
    Python — shared-memory finalizers never run and segments leak in
    ``/dev/shm``.  Raising instead lets the driver's ``finally`` blocks
    unlink segments and roll the spill back to the last checkpoint.
    A publication holds the exit back while it creates a segment
    (``repro.parallel.shm._sigterm_deferred``), so no segment is
    created without an owner to unlink it.  Only installed from the
    main thread over the *default* handler; an application's own
    handler is left alone.
    """

    def __init__(self):
        self._installed = False
        self._previous = None

    def __enter__(self) -> "_TermGuard":
        if threading.current_thread() is threading.main_thread():
            current = signal.getsignal(signal.SIGTERM)
            if current in (signal.SIG_DFL, None):
                signal.signal(signal.SIGTERM, self._raise)
                self._previous = current
                self._installed = True
        return self

    @staticmethod
    def _raise(signum, frame):
        raise SystemExit(128 + signum)

    def __exit__(self, *exc) -> None:
        if self._installed:
            signal.signal(signal.SIGTERM, self._previous or signal.SIG_DFL)
            self._installed = False


def _resolve_generator(
    generator: str,
    sample: list[str],
    roster: list[str],
    *,
    method: str,
    k: int,
    theta: float,
    kind: str,
) -> str:
    """Pick the stream's generator once (it is pinned in the checkpoint).

    ``"auto"`` scores the planner's cost model over (first chunk,
    roster) — the chunk sizes are uniform, so the first chunk's ranking
    holds for the rest of the stream.  An explicit index generator is
    validated against the method's verifier (the same safety rule the
    planner enforces).
    """
    spec = method_registry().get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if generator != "auto":
        if generator not in STREAM_GENERATORS:
            raise ValueError(
                f"unknown stream generator {generator!r}; expected one of "
                f"{STREAM_GENERATORS} or 'auto'"
            )
        gen = GENERATOR_FACTORIES[generator]()
        if not gen.is_full_product and not gen.is_safe_for(spec):
            raise ValueError(
                f"generator {generator!r} is unsafe for method "
                f"{method!r} (requires {gen.requirement}); the "
                "streamed match set would drop pairs"
            )
        return generator
    if not sample:
        return "all-pairs"
    planner = JoinPlanner(sample, roster, k=k, theta=theta, scheme=kind)
    return next(c for c in planner.generator_costs(method) if c.safe).name


def join_stream(
    source: ChunkSource | Path | str,
    roster: Sequence[str] | Path | str,
    method: str = "FPDL",
    *,
    k: int = 1,
    theta: float = 0.8,
    levels: int = 2,
    generator: str = "auto",
    backend: str = "auto",
    workers: int | None = None,
    chunk_rows: int | None = None,
    memory_budget_mb: float | None = None,
    fmt: str = "auto",
    column: str | int | None = None,
    spill: Path | str | None = None,
    spill_format: str = "jsonl",
    spill_limit: int = 8 << 20,
    spill_values: bool = False,
    checkpoint: Path | str | None = None,
    resume: bool = False,
    max_chunks: int | None = None,
    collector: StatsCollector | None = None,
    metrics=None,
    events=None,
) -> StreamResult:
    """Join a disk-resident dataset against an in-memory roster.

    Parameters mirror :func:`repro.core.plan.join` where they overlap;
    the streaming-specific ones:

    source:
        A :class:`ChunkSource`, or a path routed through
        :func:`source_for` (``fmt``/``column`` select the reader).
    roster:
        The small side — a string list, or a path loaded via
        :func:`repro.io.read_strings` (gzip-aware).
    chunk_rows / memory_budget_mb:
        Chunk sizing (see :func:`resolve_chunk_rows`).
    spill:
        Match output file; matches stream to it instead of
        accumulating in RAM.  Required when checkpointing.
    checkpoint / resume:
        Checkpoint file path; ``resume=True`` continues from it when it
        exists (a missing file just starts fresh).  On successful
        completion the checkpoint is removed.
    max_chunks:
        Stop (checkpoint intact) after this many chunks — operational
        pause/test hook; the result reports ``completed=False``.

    Returns a :class:`StreamResult`; the funnel lands on ``collector``
    (or a fresh one) and satisfies conservation across resumes.
    """
    t0 = time.perf_counter()
    obs = collector if collector is not None else StatsCollector("join-stream")
    metrics = metrics if metrics is not None else NullMetricsRegistry()
    events = events if events is not None else NULL_EVENTS
    if backend not in BACKEND_NAMES and backend != "auto":
        raise ValueError(
            f"unknown stream backend {backend!r}; expected one of "
            f"{BACKEND_NAMES} or 'auto'"
        )
    if not isinstance(source, ChunkSource):
        source = source_for(source, fmt=fmt, column=column)
    if isinstance(roster, (str, Path)):
        roster = read_strings(roster)
    else:
        roster = list(roster)
    if not roster:
        raise ValueError("join_stream needs a non-empty roster")
    if checkpoint is not None and spill is None:
        raise ValueError(
            "checkpointing requires a spill file: the checkpoint records "
            "the spill's durable byte count (in-memory matches cannot "
            "survive the crash being checkpointed against)"
        )
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    chunk_rows = resolve_chunk_rows(chunk_rows, memory_budget_mb)
    # Load the compiled provider once, before the roster is prepared and
    # before any thread or pool worker starts: side preparation and the
    # spill formatter use only a provider already loaded, and a hybrid
    # chunk's planner never loads one in this process.
    kernels = load_kernels()
    spill = Path(spill) if spill is not None else None
    checkpoint = Path(checkpoint) if checkpoint is not None else None

    # One small read of the stream head: scheme detection + cost-model
    # sample for generator="auto" (re-read from offset 0 afterwards).
    sample: list[str] = []
    for head in source.chunks(min(chunk_rows, 4096)):
        sample = head.strings
        break
    kind = detect_kind(sample[:128] + roster[:128])

    ckpt = load_checkpoint(checkpoint) if (resume and checkpoint) else None
    if ckpt is not None:
        gen_name = str(ckpt.fingerprint["generator"])
        chunk_rows = int(ckpt.fingerprint["chunk_rows"])
        # Refuse before the spill is truncated: no chunk could run.
        if gen_name not in STREAM_GENERATORS:
            raise ValueError(
                f"{checkpoint}: the checkpoint pins generator "
                f"{gen_name!r}, which is no longer available; restart "
                "without resume"
            )
    else:
        gen_name = _resolve_generator(
            generator, sample, roster, method=method, k=k, theta=theta,
            kind=kind,
        )
    if backend == "auto":
        if (workers or 0) > 1:
            backend = "hybrid"
        else:
            backend = "native" if kernels is not None else "vectorized"

    fingerprint = {
        "source": source.describe,
        "roster": roster_digest(roster),
        "method": method,
        "k": k,
        "theta": theta,
        "generator": gen_name,
        "chunk_rows": chunk_rows,
        "spill_format": spill_format,
        "spill_values": bool(spill_values),
    }
    resumed_after: int | None = None
    if ckpt is not None:
        ckpt.validate(fingerprint)
        if spill is None or not spill.exists():
            raise ValueError(
                f"{checkpoint}: cannot resume, spill file {spill} is gone"
            )
        truncate_to(spill, ckpt.spill_bytes)
        ckpt.restore_funnel(obs)
        resumed_after = ckpt.chunk
        events.emit(
            "stream_resume",
            chunk=ckpt.chunk,
            rows=ckpt.rows,
            spill_bytes=ckpt.spill_bytes,
        )
    else:
        ckpt = Checkpoint(
            path=checkpoint if checkpoint else Path(os.devnull),
            fingerprint=fingerprint,
        )

    prepared = PreparedSide(roster, scheme_for(kind, levels))

    g_chunk = metrics.gauge("stream_chunk", "last completed chunk ordinal")
    c_rows = metrics.counter("stream_rows_total", "big-side rows joined")
    c_src = metrics.counter(
        "stream_source_bytes_total",
        "source progress units consumed (bytes for text/csv)",
    )
    c_matches = metrics.counter("stream_matches_total", "matches produced")
    c_spill = metrics.counter("stream_spill_bytes_total", "durable spill bytes")
    c_ckpt = metrics.counter("stream_checkpoints_total", "checkpoints written")
    h_chunk = metrics.histogram("stream_chunk_seconds", "per-chunk wall time")

    sleep_ms = float(os.environ.get(_SLEEP_ENV, "0") or 0)
    writer: SpillWriter | None = None
    spiller = _SpillThread()
    matches: list[tuple[int, int]] | None = None if spill else []
    match_count = ckpt.match_count
    rows = ckpt.rows
    chunks_done = 0
    completed = False
    prefetch: _Prefetcher | None = None

    def spill_chunk(ii, jj, base, strings, done: Checkpoint) -> None:
        """Chunk ``done.chunk``'s matches to durable spill bytes, then
        its checkpoint (on the spill thread)."""
        nonlocal ckpt
        writer.write_columns(ii, jj, base=base, left=strings, right=roster)
        writer.flush()
        done.spill_bytes = writer.bytes
        if checkpoint is not None:
            done.save()
            c_ckpt.inc()
            events.emit(
                "stream_checkpoint",
                chunk=done.chunk,
                rows=done.rows,
                matches=done.match_count,
                spill_bytes=done.spill_bytes,
            )
        c_spill.set_total(done.spill_bytes)
        ckpt = done

    events.emit(
        "stream_start",
        method=method,
        generator=gen_name,
        backend=backend,
        n_roster=len(roster),
        chunk_rows=chunk_rows,
        resumed=resumed_after is not None,
    )

    with _TermGuard():
        try:
            if backend == "hybrid":
                # Publish the roster and start the pool before the spill
                # and the prefetch and spill threads exist: the workers
                # fork from a single-threaded parent.
                from repro.parallel import shm

                prepared.publish(
                    sdx=method_registry()[method].verifier == "sdx"
                )
                shm.shared_pool(workers).ensure()
            if spill is not None:
                writer = SpillWriter(
                    spill,
                    fmt=spill_format,
                    data_limit=spill_limit,
                    values=spill_values,
                    resume=resumed_after is not None,
                )
            chunk_iter = source.chunks(
                chunk_rows,
                start_token=ckpt.next_token if resumed_after is not None else None,
                start_ordinal=ckpt.chunk + 1,
                start_row=ckpt.rows,
            )
            prefetch = _Prefetcher(chunk_iter)
            completed = True
            for chunk in prefetch:
                t_chunk = time.perf_counter()
                result = JoinPlanner(
                    chunk.strings,
                    prepared,
                    k=k,
                    theta=theta,
                    workers=workers,
                    collapse="off",
                    memo="off",
                    self_join=False,
                ).run(
                    method,
                    generator=gen_name,
                    backend=backend,
                    collector=obs,
                    record_matches=True,
                )
                ii, jj = result.match_rows
                match_count += len(ii)
                rows += len(chunk)
                chunks_done += 1
                # The funnel as of this chunk, before the next one merges
                # into the live collector.
                done = replace(
                    ckpt,
                    chunk=chunk.ordinal,
                    next_token=chunk.end_token,
                    rows=rows,
                    match_count=match_count,
                    funnel=funnel_state(obs) if checkpoint else {},
                )
                if writer is not None:
                    spiller.submit(
                        spill_chunk, ii, jj, chunk.row_start,
                        chunk.strings if spill_values else None, done,
                    )
                else:
                    matches.extend(
                        zip((ii + chunk.row_start).tolist(), jj.tolist())
                    )
                    ckpt = done
                g_chunk.set(chunk.ordinal)
                c_rows.inc(len(chunk))
                c_src.inc(max(0, chunk.end_token - chunk.token))
                c_matches.inc(len(ii))
                h_chunk.observe(time.perf_counter() - t_chunk)
                if sleep_ms:
                    time.sleep(sleep_ms / 1000.0)
                if max_chunks is not None and chunks_done >= max_chunks:
                    completed = False
                    break
            spiller.wait()
            if writer is not None:
                writer.close()
            if completed and checkpoint is not None:
                checkpoint.unlink(missing_ok=True)
        except BaseException:
            # Let the chunk in flight finish, then roll the spill back to
            # the last durable checkpoint so the file never holds a torn
            # chunk (no checkpoint -> no resume contract -> remove the
            # partial file outright).
            spiller.close()
            if writer is not None:
                writer.abort(
                    ckpt.spill_bytes
                    if checkpoint is not None and ckpt.chunk >= 0
                    else None
                )
            events.emit("stream_abort", chunk=ckpt.chunk, rows=rows)
            raise
        finally:
            spiller.close()
            if prefetch is not None:
                prefetch.close()
            prepared.close()

    wall = time.perf_counter() - t0
    obs.meta["stream_chunks"] = chunks_done
    obs.meta["stream_rows"] = rows
    # The per-chunk runs leave the last chunk's dimensions here; report
    # the whole stream's instead.
    obs.meta["n_left"] = rows
    obs.meta["n_right"] = len(roster)
    events.emit(
        "stream_finish",
        chunks=chunks_done,
        rows=rows,
        matches=match_count,
        completed=completed,
        wall_s=round(wall, 3),
    )
    return StreamResult(
        method=method,
        generator=gen_name,
        backend=backend,
        n_roster=len(roster),
        rows=rows,
        chunks=chunks_done,
        match_count=match_count,
        matches=matches,
        spill=spill,
        spill_bytes=writer.bytes if writer is not None else 0,
        checkpoint=checkpoint,
        resumed_after=resumed_after,
        completed=completed,
        wall_s=wall,
        collector=obs,
    )
