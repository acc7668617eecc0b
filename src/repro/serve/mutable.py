"""A long-lived, mutable roster: stable ids and tombstones over one
prepared side.

An online service must *forget* as well as learn — clients move away,
records get merged, bad loads get rolled back.  :class:`MutableIndex`
keeps the roster as one :class:`~repro.parallel.prepared.PreparedSide`,
the structure every batch probes, and adds removal around it:

* **stable handles** — every added string gets a monotonically
  increasing external id that survives compaction (row positions are an
  internal detail);
* **tombstones** — :meth:`remove` only marks the row dead; answers drop
  tombstoned rows after verification, so removal is O(1);
* **threshold-triggered compaction** — once the dead fraction passes
  ``compact_ratio`` the live rows move to a new prepared side.
  Compaction bumps :attr:`generation` like any other mutation, so
  anything cached against the index invalidates.

The correctness contract — property-tested by the stateful suite in
``tests/serve/test_mutable_equivalence.py`` — is *rebuild equivalence*:
after any interleaving of adds, removes, compactions and snapshot
round-trips, every query answers exactly like a fresh index built from
the live entries.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.index import FBFIndex
from repro.core.signatures import SignatureScheme, resolve_scheme
from repro.obs.events import NULL_EVENTS
from repro.obs.metrics import NULL_METRICS
from repro.parallel.prepared import PreparedSide

__all__ = ["MutableIndex"]


class MutableIndex:
    """A prepared roster supporting add/extend/remove with stable ids.

    Parameters
    ----------
    strings:
        Initial contents; they receive ids ``0..n-1``.
    scheme, verifier:
        As for :class:`FBFIndex`; ``verifier`` is the default method.
    compact_ratio:
        Tombstone fraction above which a mutation triggers an automatic
        :meth:`compact` (``None`` disables auto-compaction; explicit
        calls still work).
    """

    def __init__(
        self,
        strings: Sequence[str] = (),
        *,
        scheme: SignatureScheme | str | None = None,
        verifier: str = "osa",
        compact_ratio: float | None = 0.25,
    ):
        if compact_ratio is not None and not 0.0 < compact_ratio <= 1.0:
            raise ValueError(
                f"compact_ratio must be in (0, 1], got {compact_ratio}"
            )
        if verifier not in FBFIndex.VERIFIERS:
            raise ValueError(
                f"verifier must be one of {FBFIndex.VERIFIERS}, "
                f"got {verifier!r}"
            )
        strings = list(strings)
        self.verifier = verifier
        #: the rows (tombstones included) and everything built over them
        self.prepared = PreparedSide(strings, resolve_scheme(scheme, strings))
        n = len(strings)
        self._set_rows(np.arange(n, dtype=np.int64))
        self._next_id = n
        self.compact_ratio = compact_ratio
        #: bumped by every mutation (add/remove/compact); caches keyed
        #: on it invalidate automatically
        self.generation = 0
        #: total compactions performed (auto + explicit)
        self.compactions = 0
        self._events = NULL_EVENTS
        self._gauges = self._c_compactions = None

    def _set_rows(
        self, ext_ids: np.ndarray, dead: np.ndarray | None = None
    ) -> None:
        """Install the bookkeeping for the prepared side's rows:
        ``ext_ids[i]`` is row ``i``'s external id and ``dead`` lists the
        tombstoned rows.  Used by construction, :meth:`compact` and
        ``snapshot.load_index``."""
        #: internal position -> external id (monotone, so mapped search
        #: results stay sorted); grows by doubling, so entries past
        #: ``rows`` are spare capacity
        self._ext_ids = np.array(ext_ids, dtype=np.int64)
        #: internal position -> tombstoned (same capacity as _ext_ids)
        self._dead = np.zeros(len(self._ext_ids), dtype=bool)
        if dead is not None:
            self._dead[np.asarray(dead, dtype=np.int64)] = True
        self._n_dead = int(self._dead.sum())
        live = np.flatnonzero(~self._dead)
        #: live external id -> internal position
        self._live: dict[int, int] = dict(
            zip(self._ext_ids[live].tolist(), live.tolist())
        )

    # -- telemetry -----------------------------------------------------------

    def instrument(self, metrics, events=None) -> None:
        """Report live-state gauges and lifecycle events into a
        :class:`~repro.obs.metrics.MetricsRegistry` (and optionally an
        :class:`~repro.obs.events.EventLog`).

        Gauges — ``index_size`` (live entries), ``index_rows`` (rows
        incl. tombstones), ``index_tombstone_ratio`` and
        ``index_generation`` — are refreshed after every mutation;
        compactions bump ``index_compactions_total`` and emit a
        ``compaction`` event.  Idempotent; call again to re-point at a
        different registry.
        """
        m = metrics if metrics else NULL_METRICS
        self._events = events if events else NULL_EVENTS
        self._gauges = (
            m.gauge("index_size", "live (non-tombstoned) entries"),
            m.gauge("index_rows", "packed index rows including tombstones"),
            m.gauge("index_tombstone_ratio", "dead fraction of packed rows"),
            m.gauge("index_generation", "mutation counter (caches key on it)"),
        )
        self._c_compactions = m.counter(
            "index_compactions_total",
            "compactions performed (auto + explicit)",
        )
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        if self._gauges is None:
            return
        values = (len(self), self.rows, self.tombstone_ratio, self.generation)
        for gauge, value in zip(self._gauges, values):
            gauge.set(value)

    # -- introspection ------------------------------------------------------

    @property
    def scheme(self) -> SignatureScheme:
        return self.prepared.scheme

    @property
    def strings(self) -> list[str]:
        """The row strings, tombstoned rows included, in row order (the
        prepared side's live list: read it, do not mutate it)."""
        return self.prepared.strings

    @property
    def tombstones(self) -> int:
        """Number of tombstoned (removed but not yet compacted) rows."""
        return self._n_dead

    @property
    def rows(self) -> int:
        """Rows, tombstones included (what a batch probes)."""
        return len(self.prepared)

    @property
    def tombstone_ratio(self) -> float:
        """Dead fraction of the rows."""
        total = self.rows
        return self.tombstones / total if total else 0.0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, sid: int) -> bool:
        return sid in self._live

    def get(self, sid: int) -> str:
        """The live string behind an external id (KeyError if removed)."""
        return self.strings[self._live[sid]]

    def items(self) -> Iterator[tuple[int, str]]:
        """Live ``(id, string)`` pairs in id order."""
        for sid in sorted(self._live):
            yield sid, self.strings[self._live[sid]]

    # -- mutation -----------------------------------------------------------

    def add(self, s: str) -> int:
        """Index one string; returns its stable external id."""
        sid = self._next_id
        internal = self.rows
        self.strings.append(s)
        if internal == len(self._ext_ids):
            spare = max(16, internal)
            self._ext_ids = np.concatenate(
                [self._ext_ids, np.zeros(spare, dtype=np.int64)]
            )
            self._dead = np.concatenate(
                [self._dead, np.zeros(spare, dtype=bool)]
            )
        self._ext_ids[internal] = sid
        self._next_id += 1
        self._live[sid] = internal
        self.generation += 1
        self._refresh_gauges()
        return sid

    def extend(self, strings: Sequence[str]) -> list[int]:
        """Index a batch; returns the assigned external ids."""
        return [self.add(s) for s in strings]

    def remove(self, sid: int) -> None:
        """Tombstone one entry by external id.

        Raises ``KeyError`` for unknown or already-removed ids.  May
        trigger an automatic :meth:`compact` (see ``compact_ratio``).
        """
        try:
            internal = self._live.pop(sid)
        except KeyError:
            raise KeyError(f"no live entry with id {sid}") from None
        self._dead[internal] = True
        self._n_dead += 1
        self.generation += 1
        self._refresh_gauges()
        if (
            self.compact_ratio is not None
            and self.tombstone_ratio >= self.compact_ratio
        ):
            self.compact()

    def compact(self) -> int:
        """Move the live entries to a new row list and prepared side.

        Returns the number of tombstoned rows reclaimed.  External ids
        are preserved; internal positions are reassigned in id order.
        The live rows' codes, lengths and signatures are copied from the
        held arrays (:meth:`PreparedSide.take`), not encoded again; the
        PASS-JOIN index is rebuilt on the next batch.
        The old side's shared-memory publication is closed: no batch is
        in flight between calls.
        """
        reclaimed = self._n_dead
        live = sorted(self._live)
        rows = np.fromiter(map(self._live.__getitem__, live), np.int64, len(live))
        old, self.prepared = self.prepared, self.prepared.take(rows)
        old.close()
        self._set_rows(np.asarray(live, dtype=np.int64))
        self.compactions += 1
        self.generation += 1
        if self._c_compactions is not None:
            self._c_compactions.inc()
        self._refresh_gauges()
        self._events.emit(
            "compaction",
            reclaimed=reclaimed,
            rows=self.rows,
            generation=self.generation,
        )
        return reclaimed

    # -- search -------------------------------------------------------------

    def search(
        self, query: str, k: int = 1, *, verifier: str | None = None
    ) -> list[int]:
        """External ids of live entries within ``k`` edits of ``query``.

        The scalar reference for the batch path: the FBF signature index
        over the rows (built on the first call) answers, with the same
        metric contract as :meth:`FBFIndex.search` (``verifier``
        defaults to :attr:`verifier`), then tombstoned rows drop out.
        """
        raw = self.prepared.fbf_index().search(
            query, k, verifier=self.verifier if verifier is None else verifier
        )
        rows = np.asarray(raw, dtype=np.int64)
        return self.external_ids(rows[self.live_mask(rows)]).tolist()

    def search_strings(self, query: str, k: int = 1) -> list[str]:
        """Like :meth:`search` but returning the matched strings."""
        return [self.get(sid) for sid in self.search(query, k)]

    # -- vectorized-path helpers (used by MatchService) ---------------------

    def external_ids(self, internal: np.ndarray) -> np.ndarray:
        """Map an array of internal positions to external ids."""
        return self._ext_ids[internal]

    def live_mask(self, internal: np.ndarray) -> np.ndarray:
        """Boolean mask of internal positions that are not tombstoned."""
        if not self._n_dead:
            return np.ones(len(internal), dtype=bool)
        return ~self._dead[internal]
