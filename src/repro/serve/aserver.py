"""An asyncio front-end for :class:`MatchService`.

The blocking loop in :mod:`repro.serve.server` answers one line at a
time; its throughput ceiling is the per-query Python dispatch cost.
:class:`AsyncMatchServer` puts an event loop in front of the same
``handle`` protocol and earns its keep three ways:

* **request coalescing** — ``query`` requests arriving from *any*
  connection inside a small window are merged into one
  :meth:`MatchService.query_batch <repro.serve.service.MatchService>`
  call, so concurrent clients ride the vectorized candidate/verify
  sweep instead of N scalar searches.  This is the serving-side
  analogue of the join layer's batching: the speedup comes from
  amortizing dispatch, not from parallel CPUs.
* **admission control** — at most ``max_inflight`` requests may be
  admitted at once; beyond that the server *sheds* instead of queueing
  without bound (``{"ok": false, "error": "overloaded",
  "shed": true}``), so latency stays bounded under overload and memory
  cannot grow with the backlog.  Sheds are tallied in
  ``serve_shed_total`` and the ``serve_bad_requests_total``
  reason=``overloaded`` series.
* **graceful drain** — ``shutdown`` stops admission first, then waits
  for every admitted request (including a pending coalesced batch) to
  finish before the acknowledgment — carrying the loop's
  ``served``/``errors`` totals — goes out and the listener closes.
  Nothing admitted is ever dropped on the way down.

Framing is the same JSON-lines protocol, with the
:data:`~repro.serve.server.MAX_REQUEST_BYTES` bound enforced *during*
read: :class:`LineFramer` never buffers more than the bound, discards
an oversized line through its terminating newline, reports it as one
structured error, and keeps the connection alive for the next request.

Ordering: responses on one connection are answered strictly in request
order (the reader awaits each response before reading the next line).
Coalescing therefore aggregates *across* connections — which is where
concurrent load lives — and never reorders one client's view of its
own mutations.

The service itself is single-threaded per call: every ``handle``
invocation runs on one dedicated executor thread, so the event loop
stays responsive while a batch verifies, and no two service calls ever
interleave (the same serialization the blocking loop provides).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

from repro.serve.server import MAX_REQUEST_BYTES, handle, query_payload
from repro.serve.service import MatchService

__all__ = ["AsyncMatchServer", "LineFramer", "run_server"]


class LineFramer:
    """Bounded line framing over a byte stream.

    ``feed`` bytes in, iterate complete lines out.  A line longer than
    ``max_line_bytes`` never accumulates past the bound: the framer
    switches to *discard* mode, throws the rest of the line away as it
    streams past, and yields the ``OVERSIZED`` sentinel exactly once
    when the terminating newline finally arrives — so the next request
    on the connection parses cleanly.
    """

    #: sentinel yielded for a discarded over-long line
    OVERSIZED = object()

    def __init__(self, max_line_bytes: int = MAX_REQUEST_BYTES):
        self.max_line_bytes = int(max_line_bytes)
        self._buf = bytearray()
        self._discarding = False

    def feed(self, data: bytes):
        """Yield each complete line (bytes, newline stripped) in
        ``data``, or :data:`OVERSIZED` for a line over the bound."""
        self._buf.extend(data)
        while True:
            nl = self._buf.find(b"\n")
            if nl < 0:
                if self._discarding:
                    self._buf.clear()
                elif len(self._buf) > self.max_line_bytes:
                    self._discarding = True
                    self._buf.clear()
                return
            line = bytes(self._buf[:nl])
            del self._buf[: nl + 1]
            if self._discarding:
                self._discarding = False
                yield self.OVERSIZED
            elif len(line) > self.max_line_bytes:
                yield self.OVERSIZED
            else:
                yield line


class _Batcher:
    """Cross-connection query coalescing.

    Pending ``query`` requests are grouped by ``(k, method)``; a group
    flushes into one ``query_batch`` call when it reaches
    ``max_batch`` or when its ``window``-seconds timer fires —
    whichever comes first.  Each waiter gets exactly its own query's
    result back.
    """

    def __init__(self, server: "AsyncMatchServer", window: float, max_batch: int):
        self.server = server
        self.window = window
        self.max_batch = max_batch
        #: (k, method) -> list of (value, future)
        self._groups: dict[tuple, list[tuple[str, asyncio.Future]]] = {}
        self._timers: dict[tuple, asyncio.TimerHandle] = {}

    async def submit(self, value: str, k, method) -> dict:
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        key = (k, method)
        group = self._groups.setdefault(key, [])
        group.append((value, fut))
        if len(group) >= self.max_batch:
            self._flush(key)
        elif key not in self._timers:
            self._timers[key] = loop.call_later(
                self.window, self._flush, key
            )
        return await fut

    def _flush(self, key) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        group = self._groups.pop(key, None)
        if group:
            asyncio.ensure_future(self._run(key, group))

    async def drain(self) -> None:
        """Flush every pending group (shutdown path)."""
        for key in list(self._groups):
            self._flush(key)

    async def _run(self, key, group) -> None:
        k, method = key
        values = [value for value, _ in group]
        server = self.server
        server.coalesced += len(values)
        if server._c_coalesced is not None:
            server._c_coalesced.inc(len(values))
        try:
            results = await server._call(
                server.service.query_batch, values, k, method
            )
        except Exception as exc:  # noqa: BLE001 - reported per waiter
            for _, fut in group:
                if not fut.done():
                    fut.set_exception(exc)
            return
        by_value = {res.value: res for res in results}
        for value, fut in group:
            if not fut.done():
                fut.set_result(
                    {
                        "ok": True,
                        "op": "query",
                        **query_payload(by_value[value]),
                    }
                )


class AsyncMatchServer:
    """Serve the JSON-lines protocol over asyncio TCP connections.

    Parameters
    ----------
    service:
        The :class:`MatchService` to answer from.  All service calls
        are serialized onto one executor thread.
    max_inflight:
        Admission bound: requests admitted (parsed and executing or
        waiting in a coalescing window) at once.  Arrivals beyond the
        bound are shed with a structured ``overloaded`` error.
    batch_window:
        Seconds a ``query`` may wait for companions before its
        coalesced batch flushes.
    max_batch:
        Coalesced batch size that flushes immediately.
    max_request_bytes:
        Per-line size bound enforced by :class:`LineFramer`.
    """

    def __init__(
        self,
        service: MatchService,
        *,
        max_inflight: int = 64,
        batch_window: float = 0.002,
        max_batch: int = 64,
        max_request_bytes: int = MAX_REQUEST_BYTES,
    ):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.service = service
        self.max_inflight = int(max_inflight)
        self.max_request_bytes = int(max_request_bytes)
        self.served = 0
        self.errors = 0
        self.shed = 0
        self.coalesced = 0
        self._inflight = 0
        self._batcher = _Batcher(self, batch_window, max_batch)
        # One thread: service calls never interleave, the loop never
        # blocks on a verify sweep.
        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set = set()
        #: the connection handler tasks, awaited by :meth:`aclose`
        self._handlers: set[asyncio.Task] = set()
        self._accepting = True
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        m = service.metrics
        self._c_shed = self._c_coalesced = self._g_inflight = None
        if m:
            self._c_shed = m.counter(
                "serve_shed_total", "requests shed by admission control"
            )
            self._c_coalesced = m.counter(
                "serve_coalesced_total",
                "queries answered through a coalesced batch",
            )
            self._g_inflight = m.gauge(
                "serve_inflight", "requests currently admitted"
            )

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Bind the listener; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )
        return self._server.sockets[0].getsockname()[:2]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request has fully drained."""
        await self._shutdown.wait()

    async def aclose(self) -> None:
        """Stop accepting, drain everything admitted, close."""
        self._accepting = False
        await self._batcher.drain()
        await self._idle.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle connections are parked in read(); closing their
        # transports delivers EOF so their loops exit cleanly.  Wait
        # for them (not for the handler that called this, when a
        # shutdown request did): a handler still pending when the loop
        # ends is cancelled, and its server callback logs the error.
        for writer in list(self._connections):
            writer.close()
        handlers = self._handlers - {asyncio.current_task()}
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        self._exec.shutdown(wait=True)
        self._shutdown.set()

    # -- plumbing -----------------------------------------------------------

    async def _call(self, fn, *args):
        """Run one service call on the single executor thread."""
        return await asyncio.get_running_loop().run_in_executor(
            self._exec, fn, *args
        )

    def _admit(self) -> bool:
        if not self._accepting or self._inflight >= self.max_inflight:
            return False
        self._inflight += 1
        self._idle.clear()
        if self._g_inflight is not None:
            self._g_inflight.set(self._inflight)
        return True

    def _release(self) -> None:
        self._inflight -= 1
        if self._g_inflight is not None:
            self._g_inflight.set(self._inflight)
        if self._inflight == 0:
            self._idle.set()

    def _shed(self) -> dict:
        self.shed += 1
        if self._c_shed is not None:
            self._c_shed.inc()
        self.service.note_request_error("overloaded")
        return {"ok": False, "error": "overloaded", "shed": True}

    # -- the connection loop ------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        framer = LineFramer(self.max_request_bytes)
        task = asyncio.current_task()
        self._handlers.add(task)
        self._connections.add(writer)
        try:
            while True:
                data = await reader.read(1 << 16)
                at_eof = not data
                for line in framer.feed(data):
                    response = await self._respond(line)
                    if response is None:
                        continue
                    writer.write(
                        json.dumps(response).encode() + b"\n"
                    )
                    await writer.drain()
                    if response.get("shutdown"):
                        await self.aclose()
                        return
                if at_eof:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._handlers.discard(task)

    async def _respond(self, line) -> dict | None:
        """Parse-admit-execute one framed line; None skips blanks."""
        if line is LineFramer.OVERSIZED:
            self.service.note_request_error("oversized")
            self.served += 1
            self.errors += 1
            return {
                "ok": False,
                "error": (
                    f"request exceeds {self.max_request_bytes} bytes"
                ),
            }
        text = line.decode("utf-8", "replace").strip()
        if not text:
            return None
        if not self._admit():
            self.served += 1
            self.errors += 1
            return self._shed()
        try:
            response = await self._execute(text)
        finally:
            self._release()
        self.served += 1
        if not response.get("ok"):
            self.errors += 1
        if response.get("shutdown"):
            response["served"] = self.served
            response["errors"] = self.errors
            response["shed"] = self.shed
        return response

    async def _execute(self, text: str) -> dict:
        try:
            request = json.loads(text)
        except json.JSONDecodeError as exc:
            self.service.note_request_error("bad_json")
            return {"ok": False, "error": f"bad json: {exc}"}
        if not isinstance(request, dict):
            self.service.note_request_error("not_an_object")
            return {"ok": False, "error": "request must be an object"}
        op = request.get("op")
        if op == "query" and "value" in request:
            # The coalescing path: park this query in the batcher and
            # let the window aggregate companions from other
            # connections into one vectorized query_batch call.
            return await self._batcher.submit(
                str(request["value"]),
                request.get("k"),
                request.get("method"),
            )
        if op == "shutdown":
            # Stop admitting *before* acknowledging, so the ack totals
            # are final; the connection loop closes the listener after
            # writing it.
            self._accepting = False
            return {"ok": True, "op": op, "shutdown": True}
        return await self._call(handle, self.service, request)


def run_server(
    service: MatchService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_inflight: int = 64,
    batch_window: float = 0.002,
    max_batch: int = 64,
    on_bound=None,
) -> int:
    """Blocking convenience runner for the CLI: bind, announce through
    ``on_bound((host, port))``, serve until a ``shutdown`` request.
    Returns the number of requests served."""
    total = 0

    async def main() -> None:
        nonlocal total
        server = AsyncMatchServer(
            service,
            max_inflight=max_inflight,
            batch_window=batch_window,
            max_batch=max_batch,
        )
        bound = await server.start(host, port)
        if on_bound is not None:
            on_bound(bound)
        await server.serve_until_shutdown()
        total = server.served

    asyncio.run(main())
    return total
