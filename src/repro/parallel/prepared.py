"""One prepared dataset side, shared by joins, serving and streams.

The paper splits a join's cost into "Gen" — codes and FBF signatures,
paid once per dataset — and the filter-then-verify loop (Algorithm 7).
PASS-JOIN likewise builds its segment index once over one side and
probes it with every string of the other.  Both kinds of state belong
to the data, not to one call, so they live here, once:

* a :class:`PreparedSide` owns its strings (the live list, never
  copied), its signature scheme, the
  :class:`~repro.parallel.kernels.Side` arrays (uint8 codes, lengths,
  packed ``uint64`` signatures — the only place a side is encoded, all
  three from one walk over the latin-1 bytes of each new row block,
  compiled when the native tier is loaded), the
  indexes over it (a PASS-JOIN index per ``k``, and the FBF signature
  index that serves as the roster's scalar search reference), its
  soundex table, and its shared-memory publication
  (:class:`~repro.parallel.shm.SideArrays` refs).  Everything is built
  on first use.  Rows appended to the strings are folded in on the next
  use: the arrays, the indexes and the soundex ids are extended by the
  new rows only, and the publication is replaced — its new segments
  exist before the old ones are unlinked.
  An append whose encoding fails changes nothing.  A side over a subset
  of the rows (:meth:`PreparedSide.take`, a roster's compaction) copies
  their arrays instead of encoding them again;
* a :class:`SharedPair` is one planner's two sides as the hybrid pool
  reads them.

:class:`~repro.core.plan.JoinPlanner` accepts a prepared side wherever
it accepts a string list, and :class:`~repro.parallel.chunked.
VectorEngine` runs over prepared sides.  :func:`repro.stream.
join_stream` prepares its roster once for every chunk, and
:class:`repro.serve.MutableIndex` is one prepared side with stable
ids and tombstones around it (a snapshot stores its arrays).
Pair-scoped state — the other side's soundex ids (looked up in this
side's table) and self-join value identities — stays with the pair:
the engine's own :class:`Side` views, or the pair's publication.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.signatures import SignatureScheme, resolve_scheme
from repro.core.vectorized import value_identity_codes
from repro.distance.soundex import soundex
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.kernels import Side, encode_side

__all__ = ["PreparedSide", "SharedPair", "shared_scheme"]

class PreparedSide:
    """One dataset side, prepared once and reused by every consumer.

    ``strings`` is held, not copied: append rows to it and every
    accessor brings its part up to date on the next call.  Engines and
    planners built over the side see the rows present when they were
    built.
    """

    def __init__(self, strings: list[str], scheme: SignatureScheme | str):
        self.strings = strings
        self.scheme = resolve_scheme(scheme)
        #: the encoded arrays, covering ``encoded.n`` rows (``None``
        #: until the first :meth:`side`)
        self.encoded: Side | None = None
        #: k -> PASS-JOIN index over the strings
        self.passjoin: dict = {}
        self._fbf = None
        #: (soundex code -> id table, ids of the strings)
        self._sdx: tuple[dict[str, int], np.ndarray] | None = None
        self._pub = None
        #: refs of the current publication (``None`` until :meth:`publish`)
        self.published = None

    def __len__(self) -> int:
        return len(self.strings)

    # -- the encoded arrays ----------------------------------------------

    def side(self, obs=NULL_COLLECTOR) -> Side:
        """The codes, lengths and packed signatures of every row.

        Encodes on first use and then only the rows appended since; the
        code matrix is padded up when a new row is wider than any
        before.  The new rows' codes, lengths and signatures come from
        one walk over them (:func:`~repro.parallel.kernels.encode_side`);
        ``obs`` receives its ``gen.encode`` span.
        """
        held = self.encoded
        n = len(self.strings)
        if held is not None and held.n == n:
            return held
        start = 0 if held is None else held.n
        new = self.strings[start:n]
        with obs.span("gen.encode"):
            codes, lengths, sigs = encode_side(new, self.scheme)
        if held is not None:
            width = max(held.codes.shape[1], codes.shape[1])
            grown = np.zeros((n, width), dtype=np.uint8)
            grown[:start, : held.codes.shape[1]] = held.codes
            grown[start:, : codes.shape[1]] = codes
            codes = grown
            lengths = np.concatenate([held.lengths, lengths])
            sigs = np.concatenate([held.sigs, sigs])
        self.encoded = Side(n, codes, lengths, sigs)
        return self.encoded

    def take(self, rows: np.ndarray) -> "PreparedSide":
        """A new side over the strings at ``rows`` (ascending), its
        arrays gathered from the ones held here instead of encoded
        again: codes trimmed to the widest row kept.  Rows not encoded
        here yet are encoded on the new side's first use; indexes,
        soundex ids and the publication are built afresh."""
        rows = np.asarray(rows, dtype=np.int64)
        side = PreparedSide([self.strings[r] for r in rows], self.scheme)
        held = self.encoded
        if held is not None:
            kept = rows[: int(np.searchsorted(rows, held.n))]
            lengths = held.lengths[kept]
            width = int(lengths.max()) if len(kept) else 0
            side.encoded = Side(
                len(kept),
                np.ascontiguousarray(held.codes[kept, :width]),
                lengths,
                held.sigs[kept],
            )
        return side

    def soundex_ids(self, other: Sequence[str] | None = None) -> np.ndarray:
        """Soundex ids of this side's rows from its own table (the empty
        code is id 0, which never matches), or of ``other`` looked up in
        that table: a code no row here holds gets id 0 too, since it can
        match no row here."""
        table, ids = self._sdx or ({"": 0}, np.empty(0, dtype=np.int64))
        if len(ids) < len(self.strings):
            new = [
                table.setdefault(soundex(v), len(table))
                for v in self.strings[len(ids) :]
            ]
            ids = np.concatenate([ids, np.asarray(new, dtype=np.int64)])
            self._sdx = (table, ids)
        if other is None:
            return ids
        return np.fromiter(
            (table.get(soundex(v), 0) for v in other),
            dtype=np.int64,
            count=len(other),
        )

    # -- indexes ---------------------------------------------------------------

    def fbf_index(self):
        """The FBF signature index over the strings."""
        if self._fbf is None:
            from repro.core.index import FBFIndex

            self._fbf = FBFIndex(self.strings, scheme=self.scheme)
        elif len(self._fbf) < len(self.strings):
            self._fbf.extend(self.strings[len(self._fbf) :])
        return self._fbf

    def passjoin_index(self, k: int):
        """The PASS-JOIN segment index over the strings for ``k``."""
        pj = self.passjoin.get(k)
        if pj is None:
            from repro.core.passjoin import PassJoinIndex

            pj = self.passjoin[k] = PassJoinIndex(self.strings, k=k)
        elif len(pj) < len(self.strings):
            pj.extend(self.strings[len(pj) :])
        return pj

    # -- shared-memory publication -------------------------------------------

    def publish(self, *, sdx: bool = False):
        """The side's arrays as shared-memory refs
        (:class:`~repro.parallel.shm.SideArrays`).

        Published once and again only after the side grew: the new
        segments are created before the old ones are unlinked.  ``sdx`` adds the side's own soundex ids.
        """
        from repro.parallel import shm

        side = self.side()
        refs = self.published
        if refs is None or refs.n != side.n:
            pub = shm.Publication()
            refs = pub.side(side)
            old, self._pub = self._pub, pub
            if old is not None:
                old.close()
        if sdx and refs.sdx is None:
            refs = replace(refs, sdx=self._pub.array(self.soundex_ids()))
        self.published = refs
        return refs

    @property
    def publication(self):
        """The :class:`~repro.parallel.shm.Publication` behind
        :attr:`published` (``None`` before the first publish)."""
        return self._pub

    def close(self) -> None:
        """Unlink the published segments (idempotent); a later
        :meth:`publish` publishes afresh."""
        if self._pub is not None:
            self._pub.close()
        self._pub = self.published = None


def shared_scheme(*sides) -> SignatureScheme | None:
    """The signature scheme of the :class:`PreparedSide` among ``sides``
    (``None`` if none is prepared); prepared sides must agree on it."""
    schemes = {
        s.scheme.name: s.scheme for s in sides if isinstance(s, PreparedSide)
    }
    if len(schemes) > 1:
        raise ValueError(
            "prepared sides use different signature schemes: "
            f"{', '.join(sorted(schemes))}"
        )
    return next(iter(schemes.values()), None)


class SharedPair:
    """One join's two prepared sides as the hybrid pool reads them.

    ``left``/``right`` are :class:`~repro.parallel.shm.SideArrays`.  Each
    side is its own publication (one for both when ``left is right``),
    except that ``inline_left`` ships the left side inline with the
    tasks — a serve batch or a stream chunk against a prepared roster.
    Pair-scoped arrays — self-join value identities, and the left side's
    soundex ids from the right side's table — go inline with an inline
    left side and into the pair's own publication otherwise.
    :attr:`publications` lists what backs the refs; each is credited to
    a collector once.
    """

    def __init__(
        self,
        left: PreparedSide,
        right: PreparedSide,
        *,
        inline_left: bool,
        self_join: bool,
    ):
        from repro.parallel import shm

        self._sides = (left, right)
        self._inline = inline_left and left is not right
        self._pair = shm.Publication()
        self.right = right.publish()
        if left is right:
            self.left = self.right
        elif self._inline:
            self.left = shm.inline_side(left.side())
        else:
            self.left = left.publish()
        if self_join:
            vid_l, vid_r = value_identity_codes(left.strings, right.strings)
            self.right = replace(self.right, vid=self._pair.array(vid_r))
            self.left = (
                self.right if left is right else self._with(self.left, vid=vid_l)
            )

    def _with(self, refs, **arrays):
        ref = (lambda a: ("inline", a)) if self._inline else self._pair.array
        return replace(refs, **{name: ref(a) for name, a in arrays.items()})

    def add_sdx(self) -> None:
        """Add soundex ids to both sides (idempotent)."""
        if self.left.sdx is not None:
            return
        left, right = self._sides
        self.right = replace(self.right, sdx=right.publish(sdx=True).sdx)
        self.left = (
            self.right
            if left is right
            else self._with(self.left, sdx=right.soundex_ids(left.strings))
        )

    @property
    def publications(self) -> list:
        left, right = self._sides
        pubs = [right.publication, self._pair]
        if not self._inline and left is not right:
            pubs.append(left.publication)
        return pubs

    @property
    def bytes_shared(self) -> int:
        return sum(pub.bytes_shared for pub in self.publications)
