"""Structured JSON-lines event log for discrete lifecycle events.

Counters and histograms (:mod:`repro.obs.metrics`) summarise continuous
traffic; this module records the *discrete* things a long-running
service does — a compaction ran, a pool worker died and was respawned,
a snapshot was saved or loaded, the result cache's generation moved on.
Each event is one flat JSON object::

    {"ts": 1719847301.22, "kind": "compaction", "reclaimed": 412, ...}

``ts`` is wall-clock (``time.time()``), ``kind`` is a stable
dot-free identifier, and every other field is producer-defined but must
be JSON-serialisable.  The serving stack's lifecycle kinds:
``compaction``, ``engine_rebuild``, ``passjoin_rebuild``,
``roster_publish`` (a hybrid batch published the roster, or renewed
its publication after growth), ``snapshot_save`` / ``snapshot_load`` and
``worker_respawn``.  Events
go two places:

* a bounded in-memory ring (default 1024) that the JSON-lines
  ``metrics`` op and the HTTP listener's ``/events.json`` expose, so a
  poller can see recent history without log shipping; and
* an optional *sink* — any ``write()``-able — receiving one JSON line
  per event as it happens (a file, stderr, a socket), which is the
  durable form.

:data:`NULL_EVENTS` is the falsy no-op twin for telemetry-off runs.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import IO

__all__ = ["EventLog", "NullEventLog", "NULL_EVENTS"]


class EventLog:
    """Bounded in-memory ring of lifecycle events + optional line sink."""

    def __init__(
        self,
        capacity: int = 1024,
        *,
        sink: IO[str] | None = None,
        clock=time.time,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._ring: deque[dict[str, object]] = deque(maxlen=capacity)
        self._sink = sink
        self._clock = clock
        #: events ever emitted (the ring only keeps the most recent)
        self.total = 0

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def emit(self, kind: str, **fields: object) -> dict[str, object]:
        """Record one event; returns the stored dict."""
        event: dict[str, object] = {"ts": self._clock(), "kind": kind}
        event.update(fields)
        self._ring.append(event)
        self.total += 1
        if self._sink is not None:
            try:
                self._sink.write(json.dumps(event, default=str) + "\n")
                self._sink.flush()
            except (OSError, ValueError):
                # A torn-down sink must never take the service with it;
                # the in-memory ring still has the event.
                self._sink = None
        return event

    def tail(
        self, n: int | None = None, *, kind: str | None = None
    ) -> list[dict[str, object]]:
        """The most recent ``n`` events, oldest first (all by default).

        ``kind`` filters to one event kind *before* the ``n`` bound, so
        ``tail(5, kind="roster_publish")`` is the last five publications
        even if other kinds dominate the ring.
        """
        events = list(self._ring)
        if kind is not None:
            events = [e for e in events if e.get("kind") == kind]
        if n is not None and n >= 0:
            events = events[len(events) - min(n, len(events)):]
        return [dict(e) for e in events]

    def clear(self) -> None:
        self._ring.clear()


class NullEventLog:
    """Falsy, API-compatible no-op event log."""

    total = 0
    capacity = 0

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def emit(self, kind: str, **fields: object) -> dict[str, object]:
        return {}

    def tail(
        self, n: int | None = None, *, kind: str | None = None
    ) -> list[dict[str, object]]:
        return []

    def clear(self) -> None:
        pass


#: shared no-op instance
NULL_EVENTS = NullEventLog()
