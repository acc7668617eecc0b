"""A long-lived, mutable view over the FBF signature index.

:class:`repro.core.index.FBFIndex` is append-only: ids are insertion
positions and nothing ever leaves the packed arrays.  That is the right
shape for a batch join, but an online service must also *forget* —
clients move away, records get merged, bad loads get rolled back.
:class:`MutableIndex` adds removal without giving up the index's packed
vectorized search path:

* **stable handles** — every added string gets a monotonically
  increasing external id that survives compaction (the wrapped index's
  positional ids are an internal detail);
* **tombstones** — :meth:`remove` only marks the internal row dead;
  searches filter tombstoned rows out of the wrapped index's answers,
  so removal is O(1);
* **threshold-triggered compaction** — once the dead fraction passes
  ``compact_ratio`` the wrapped index is rebuilt from the live strings,
  restoring the no-wasted-work guarantee.  Compaction bumps
  :attr:`generation` like any other mutation, so anything cached
  against the index invalidates.

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
from repro.core.signatures import SignatureScheme
from repro.obs.events import NULL_EVENTS
from repro.obs.metrics import NULL_METRICS

__all__ = ["MutableIndex"]


class MutableIndex:
    """An FBF index supporting add/extend/remove with stable ids.

    Parameters
    ----------
    strings:
        Initial contents; they receive ids ``0..n-1``.
    scheme, verifier:
        Passed through to the wrapped :class:`FBFIndex`.
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
        self._fbf = FBFIndex(strings, scheme=scheme, verifier=verifier)
        n = len(self._fbf)
        self._set_rows(np.arange(n, dtype=np.int64))
        self._next_id = n
        self.compact_ratio = compact_ratio
        #: bumped by every mutation (add/remove/compact); caches keyed
        #: on it invalidate automatically
        self.generation = 0
        #: total compactions performed (auto + explicit)
        self.compactions = 0
        self._reset_telemetry()

    def _set_rows(
        self, ext_ids: np.ndarray, dead: np.ndarray | None = None
    ) -> None:
        """Install the bookkeeping for the wrapped index's rows:
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

    def _reset_telemetry(self) -> None:
        """Detach instrumentation.  Also the initializer for instances
        built around ``__init__`` (``snapshot.load_index``)."""
        self._metrics = NULL_METRICS
        self._events = NULL_EVENTS
        self._g_size = self._g_rows = None
        self._g_tombstone_ratio = self._g_generation = None
        self._c_compactions = None

    def instrument(self, metrics, events=None) -> None:
        """Report live-state gauges and lifecycle events into a
        :class:`~repro.obs.metrics.MetricsRegistry` (and optionally an
        :class:`~repro.obs.events.EventLog`).

        Gauges — ``index_size`` (live entries), ``index_rows`` (packed
        rows incl. tombstones), ``index_tombstone_ratio`` and
        ``index_generation`` — are refreshed after every mutation;
        compactions bump ``index_compactions_total`` and emit a
        ``compaction`` event.  Idempotent; call again to re-point at a
        different registry.
        """
        self._metrics = metrics if metrics else NULL_METRICS
        self._events = events if events else NULL_EVENTS
        m = self._metrics
        self._g_size = m.gauge("index_size", "live (non-tombstoned) entries")
        self._g_rows = m.gauge(
            "index_rows", "packed index rows including tombstones"
        )
        self._g_tombstone_ratio = m.gauge(
            "index_tombstone_ratio", "dead fraction of packed rows"
        )
        self._g_generation = m.gauge(
            "index_generation", "mutation counter (caches key on it)"
        )
        self._c_compactions = m.counter(
            "index_compactions_total", "compactions performed (auto + explicit)"
        )
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        if self._g_size is None:
            return
        self._g_size.set(len(self._live))
        self._g_rows.set(len(self._fbf))
        self._g_tombstone_ratio.set(self.tombstone_ratio)
        self._g_generation.set(self.generation)

    # -- introspection ------------------------------------------------------

    @property
    def scheme(self) -> SignatureScheme:
        return self._fbf.scheme

    @property
    def verifier(self) -> str:
        return self._fbf.verifier

    @property
    def index(self) -> FBFIndex:
        """The wrapped (append-only) index — read-only: it still holds
        tombstoned rows, and its ids are internal positions, not the
        stable external ids this class hands out."""
        return self._fbf

    @property
    def tombstones(self) -> int:
        """Number of tombstoned (removed but not yet compacted) rows."""
        return self._n_dead

    @property
    def rows(self) -> int:
        """Packed index rows, tombstones included (what a sweep scans)."""
        return len(self._fbf)

    @property
    def tombstone_ratio(self) -> float:
        """Dead fraction of the wrapped index's rows."""
        total = len(self._fbf)
        return self._n_dead / total if total else 0.0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, sid: int) -> bool:
        return sid in self._live

    def get(self, sid: int) -> str:
        """The live string behind an external id (KeyError if removed)."""
        return self._fbf[self._live[sid]]

    def items(self) -> Iterator[tuple[int, str]]:
        """Live ``(id, string)`` pairs in id order."""
        for sid in sorted(self._live):
            yield sid, self._fbf[self._live[sid]]

    # -- mutation -----------------------------------------------------------

    def add(self, s: str, *, sid: int | None = None) -> int:
        """Index one string; returns its stable external id.

        ``sid`` lets an owner that allocates ids globally (the sharded
        index places one monotone id space across many shards) assign
        the external id explicitly; it must not collide with any id
        this index has ever handed out, so the monotone-ids invariant —
        and with it the sortedness of mapped search results — survives.
        """
        if sid is None:
            sid = self._next_id
        elif sid < self._next_id:
            raise ValueError(
                f"explicit id {sid} is not above the high-water mark "
                f"{self._next_id - 1}"
            )
        internal = self._fbf.add(s)
        if internal == len(self._ext_ids):
            spare = max(16, internal)
            self._ext_ids = np.concatenate(
                [self._ext_ids, np.zeros(spare, dtype=np.int64)]
            )
            self._dead = np.concatenate(
                [self._dead, np.zeros(spare, dtype=bool)]
            )
        self._ext_ids[internal] = sid
        self._next_id = sid + 1
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
        """Rebuild the wrapped index from the live entries.

        Returns the number of tombstoned rows reclaimed.  External ids
        are preserved; internal positions are reassigned in id order.
        """
        reclaimed = self._n_dead
        live = sorted(self._live)
        strings = [self._fbf[self._live[sid]] for sid in live]
        self._fbf = FBFIndex(
            strings, scheme=self._fbf.scheme, verifier=self._fbf.verifier
        )
        self._set_rows(np.asarray(live, dtype=np.int64))
        self.compactions += 1
        self.generation += 1
        if self._c_compactions is not None:
            self._c_compactions.inc()
        self._refresh_gauges()
        self._events.emit(
            "compaction",
            reclaimed=reclaimed,
            rows=len(self._fbf),
            generation=self.generation,
        )
        return reclaimed

    # -- search -------------------------------------------------------------

    def search(
        self,
        query: str,
        k: int = 1,
        *,
        collector=None,
        verifier: str | None = None,
    ) -> list[int]:
        """External ids of live entries within ``k`` edits of ``query``.

        Same metric contract as :meth:`FBFIndex.search`; tombstoned
        entries never appear.  Funnel counters (when a collector is
        passed) describe the wrapped index's physical work, which
        includes scanning not-yet-compacted tombstoned rows.
        """
        raw = self._fbf.search(query, k, collector=collector, verifier=verifier)
        rows = np.asarray(raw, dtype=np.int64)
        return self.external_ids(rows[self.live_mask(rows)]).tolist()

    def search_strings(self, query: str, k: int = 1) -> list[str]:
        """Like :meth:`search` but returning the matched strings."""
        return [self._fbf[self._live[sid]] for sid in self.search(query, k)]

    # -- vectorized-path helpers (used by MatchService) ---------------------

    def external_ids(self, internal: np.ndarray) -> np.ndarray:
        """Map an array of internal positions to external ids."""
        return self._ext_ids[internal]

    def live_mask(self, internal: np.ndarray) -> np.ndarray:
        """Boolean mask of internal positions that are not tombstoned."""
        if not self._n_dead:
            return np.ones(len(internal), dtype=bool)
        return ~self._dead[internal]
