"""Length-partitioned shards over :class:`MutableIndex`.

One :class:`~repro.serve.mutable.MutableIndex` caps serving throughput
at one process: every batch probes one roster, every compaction
stalls the whole roster.  :class:`ShardedIndex` splits the population
across ``n_shards`` independent :class:`MutableIndex` shards while
keeping the *single-index contract* — one monotone external-id space,
identical ``search`` answers, rebuild equivalence — so the service
layer can treat it as a drop-in index.

**Shard key.**  Strings are placed by ``len(s) % n_shards``.  This is
the PASS-JOIN observation (Li et al., arXiv 1111.7171) turned into a
partitioning rule: edit distance ≤ k implies a length difference ≤ k,
so a query of length ``L`` can only match strings whose length lies in
``[L-k, L+k]`` — which live in at most ``min(2k+1, n_shards)`` shards
(:meth:`route`).  Partitioning is therefore *exact*: scatter to the
routed shards, gather, and the union is the single-index answer.  It
also composes with the PASS-JOIN index's length buckets — each shard
holds every ``n_shards``-th length, so per-shard state stays
compact (the EmbedJoin-style compactness that makes snapshot handoff
blobs cheap to ship).

**Global ids.**  The sharded index allocates external ids from one
monotone counter and passes them *down* into each shard
(``MutableIndex.add(s, sid=...)``), so a shard's search results are
already global — gather is a merge of sorted id lists, with no
per-shard translation table on the hot path.  ``_locate`` maps each
live id to its shard for O(1) removal.

**Independent compaction.**  Removal tombstones only the owning shard;
a threshold compaction rebuilds *that shard's* rows, not the whole
population — the stall is ``1/n_shards`` the size, and the service's
scatter path keeps answering from the other shards' published state
meanwhile.

**Handoff blobs.**  :meth:`export_shard` / :meth:`adopt_shard`
round-trip one shard through the snapshot format in memory — the unit
of crash recovery and shard migration.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.signatures import SignatureScheme, resolve_scheme
from repro.serve.mutable import MutableIndex, Roster

__all__ = ["ShardedIndex"]


class _ShardEvents:
    """Event-log proxy stamping the owning shard's id on every emit."""

    def __init__(self, log, shard: int):
        self._log = log
        self._shard = shard

    def __bool__(self) -> bool:
        return bool(self._log)

    def emit(self, kind: str, **fields: object) -> dict[str, object]:
        fields.setdefault("shard", self._shard)
        return self._log.emit(kind, **fields)


class ShardedIndex(Roster):
    """``n_shards`` length-partitioned :class:`MutableIndex` shards
    behind the single-index API.

    Parameters
    ----------
    strings:
        Initial population (external ids ``0..n-1``, exactly as the
        single-shard index would assign them).
    n_shards:
        Shard count (>= 1).  ``1`` is a degenerate but valid
        configuration — one shard holding everything — kept so the
        equivalence suites can pin it against :class:`MutableIndex`.
    scheme, verifier, compact_ratio:
        Per-shard index configuration; the signature scheme is resolved
        *once* over the initial population and pinned on every shard,
        so all shards (and their published rosters) agree.
    """

    def __init__(
        self,
        strings: Sequence[str] = (),
        *,
        n_shards: int = 2,
        scheme: SignatureScheme | str | None = None,
        verifier: str = "osa",
        compact_ratio: float | None = 0.25,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        strings = list(strings)
        scheme = resolve_scheme(scheme, strings)
        self.n_shards = int(n_shards)
        self._scheme = scheme
        self._verifier = verifier
        self.compact_ratio = compact_ratio
        self._shards: list[MutableIndex] = [
            MutableIndex(
                scheme=scheme,
                verifier=verifier,
                compact_ratio=compact_ratio,
            )
            for _ in range(self.n_shards)
        ]
        #: live external id -> owning shard index
        self._locate: dict[int, int] = {}
        self._next_id = 0
        self._reset_telemetry()
        for s in strings:
            self.add(s)

    # -- telemetry -----------------------------------------------------------

    def _reset_telemetry(self) -> None:
        super()._reset_telemetry()
        self._shard_gauges: list[tuple] = []

    def instrument(self, metrics, events=None) -> None:
        """Report the same aggregate gauges a single
        :class:`MutableIndex` would (``index_size``, ``index_rows``,
        ``index_tombstone_ratio``, ``index_generation``,
        ``index_compactions_total``) plus per-shard labelled gauges
        (``shard_size{shard=i}``, ``shard_rows``, ``shard_tombstones``,
        ``shard_generation``).  Shard compactions emit ``compaction``
        events carrying their shard id.
        """
        super().instrument(metrics, events)
        m = self._metrics
        self._shard_gauges = []
        for si, shard in enumerate(self._shards):
            labels = {"shard": str(si)}
            self._shard_gauges.append(
                (
                    m.gauge("shard_size", "live entries in this shard", labels),
                    m.gauge("shard_rows", "packed rows in this shard", labels),
                    m.gauge(
                        "shard_tombstones",
                        "tombstoned rows in this shard",
                        labels,
                    ),
                    m.gauge(
                        "shard_generation",
                        "this shard's mutation counter",
                        labels,
                    ),
                )
            )
            # Shards report lifecycle events (compaction) with their
            # shard id, but not the aggregate gauges — those are ours.
            shard._events = _ShardEvents(self._events, si)
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        if self._gauges is None:
            return
        super()._refresh_gauges()
        self._c_compactions.set_total(self.compactions)
        for gauges, s in zip(self._shard_gauges, self._shards):
            for gauge, value in zip(
                gauges, (len(s), s.rows, s.tombstones, s.generation)
            ):
                gauge.set(value)

    # -- introspection ------------------------------------------------------

    @property
    def scheme(self) -> SignatureScheme:
        return self._scheme

    @property
    def verifier(self) -> str:
        return self._verifier

    @property
    def shards(self) -> tuple[MutableIndex, ...]:
        """The underlying shards, in placement order (read-only view —
        mutate through this class so the id space stays coherent)."""
        return tuple(self._shards)

    @property
    def generation(self) -> int:
        """Sum of the shard generations — monotone, bumped by every
        mutation anywhere (including a shard's auto-compaction), so
        generation-keyed caches invalidate exactly as they would over
        one index."""
        return sum(s.generation for s in self._shards)

    @property
    def compactions(self) -> int:
        return sum(s.compactions for s in self._shards)

    @property
    def tombstones(self) -> int:
        return sum(s.tombstones for s in self._shards)

    @property
    def rows(self) -> int:
        """Rows across all shards, tombstones included."""
        return sum(s.rows for s in self._shards)

    def __len__(self) -> int:
        return len(self._locate)

    def __contains__(self, sid: int) -> bool:
        return sid in self._locate

    def get(self, sid: int) -> str:
        """The live string behind an external id (KeyError if removed)."""
        return self._shards[self._locate[sid]].get(sid)

    def items(self) -> Iterator[tuple[int, str]]:
        """Live ``(id, string)`` pairs in id order."""
        for sid in sorted(self._locate):
            yield sid, self.get(sid)

    # -- placement ----------------------------------------------------------

    def shard_of(self, s: str) -> int:
        """The shard a string of this value lands in (by length)."""
        return len(s) % self.n_shards

    def route(self, length: int, k: int) -> tuple[int, ...]:
        """Shards that can hold a match for a query of ``length`` at
        edit threshold ``k`` — the PASS-JOIN length window mapped onto
        the modular placement.  At most ``min(2k+1, n_shards)`` shards.
        """
        lo = max(0, length - k)
        return tuple(
            sorted({ln % self.n_shards for ln in range(lo, length + k + 1)})
        )

    # -- mutation -----------------------------------------------------------

    def add(self, s: str) -> int:
        """Index one string; returns its stable (global) external id."""
        sid = self._next_id
        self._next_id += 1
        si = self.shard_of(s)
        self._shards[si].add(s, sid=sid)
        self._locate[sid] = si
        self._refresh_gauges()
        return sid

    def remove(self, sid: int) -> None:
        """Tombstone one entry by external id (KeyError if unknown).

        Only the owning shard mutates; a triggered auto-compaction
        rebuilds that shard alone.
        """
        try:
            si = self._locate.pop(sid)
        except KeyError:
            raise KeyError(f"no live entry with id {sid}") from None
        self._shards[si].remove(sid)
        self._refresh_gauges()

    def compact(self) -> int:
        """Compact every shard that holds tombstones; returns the total
        rows reclaimed.  Shards with nothing to reclaim are left alone
        (their generation does not move), so a service-level ``compact``
        op on a mostly-clean sharded index is near-free.
        """
        reclaimed = 0
        for shard in self._shards:
            if shard.tombstones:
                reclaimed += shard.compact()
        self._refresh_gauges()
        return reclaimed

    # -- search -------------------------------------------------------------

    def search(
        self, query: str, k: int = 1, *, verifier: str | None = None
    ) -> list[int]:
        """External ids of live entries within ``k`` edits of ``query``.

        Scatter to the routed shards, gather, merge — identical to the
        single-index answer because placement is exact for the length
        window (property-tested by the sharded equivalence suite).
        Global ids are monotone per shard, so the merged list needs one
        final sort only across shard boundaries.
        """
        out: list[int] = []
        for si in self.route(len(query), k):
            out.extend(self._shards[si].search(query, k, verifier=verifier))
        out.sort()
        return out

    # -- shard handoff ------------------------------------------------------

    def export_shard(self, si: int) -> bytes:
        """One shard serialized as an in-memory snapshot blob — the
        handoff unit for migration or crash recovery."""
        from repro.serve.snapshot import dump_index_bytes

        return dump_index_bytes(self._shards[si])

    def adopt_shard(self, si: int, blob: bytes) -> None:
        """Replace shard ``si`` with a previously exported blob.

        The id space must stay coherent: every live id in the adopted
        shard must either already belong to ``si`` or be unknown (a
        restore of lost state); ids owned by *another* shard are
        rejected.  The global id counter advances past the adopted
        shard's high-water mark.
        """
        from repro.serve.snapshot import load_index_bytes

        index, _header = load_index_bytes(blob)
        for sid in index._live:
            owner = self._locate.get(sid)
            if owner is not None and owner != si:
                raise ValueError(
                    f"id {sid} in the adopted blob is owned by shard "
                    f"{owner}, not {si}"
                )
        for sid, owner in list(self._locate.items()):
            if owner == si:
                del self._locate[sid]
        old = self._shards[si]
        old.prepared.close()
        index.compact_ratio = self.compact_ratio
        # Keep the shard's generation monotone across the swap so
        # generation-keyed caches and published rosters invalidate.
        index.generation = max(index.generation, old.generation) + 1
        self._shards[si] = index
        if self._events:
            index._events = _ShardEvents(self._events, si)
        for sid in index._live:
            self._locate[sid] = si
        self._next_id = max(self._next_id, index._next_id)
        self._refresh_gauges()
