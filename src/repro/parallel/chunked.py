"""The vectorized similarity join: every method stack over NumPy chunks.

:class:`VectorEngine` is the scaled twin of the scalar reference join:
same methods, same decisions (pinned by the equivalence tests), but the
pair loop runs as NumPy operations over bounded chunks instead of
per-pair Python.  This is the engine the runtime-curve experiments
(paper Figures 7 and 9) use, since their products reach hundreds of
millions of pairs.

Since the planner refactor the engine serves as the *vectorized
execution backend* of :mod:`repro.core.plan`: :meth:`VectorEngine.run`
covers full-product plans and :meth:`VectorEngine.run_candidates`
verifies an explicit candidate stream from any candidate generator
(length buckets, the FBF signature index, key blocking).  Both sides
are held in the :class:`repro.parallel.kernels.Side` layout and every
decision runs through :class:`repro.parallel.kernels.Kernels` — the same
kernels the shared-memory pool workers run.

Timing fidelity note (DESIGN.md): *all* methods run in the same
vectorized paradigm here, so relative timings — the paper's speedup
columns — compare like with like, exactly as the paper's all-C
implementations did.

Observability: pass a :class:`repro.obs.StatsCollector` (constructor or
per-:meth:`VectorEngine.run` call) and the engine reports the same
funnel the scalar driver does — stage sweeps record their tested/passed
totals, verification merges per-chunk aggregates into the one
collector, and signature generation / filtering / verification each get
a wall-time span.  With no collector every hook routes to the falsy
shared no-op and the hot loops are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.join import JoinResult
from repro.core.matchers import method_registry
from repro.core.signatures import SignatureScheme, detect_kind, scheme_for
from repro.core.vectorized import value_identity_codes
from repro.distance.codec import encode_raw
from repro.native import resolve_kernels
from repro.obs.log import get_logger
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.kernels import (
    FILTER_CHUNK,
    VERIFY_CHUNK,
    Kernels,
    Side,
    packed_signatures,
    soundex_ids,
)
from repro.parallel.partition import iter_pair_blocks

__all__ = ["VectorEngine", "VJoinResult"]

_log = get_logger("parallel.chunked")

#: method specs by lower-cased name (``run`` accepts any case)
_SPECS = {name.lower(): spec for name, spec in method_registry().items()}


def _group_by_value(values: np.ndarray) -> dict[int, np.ndarray]:
    """Map each distinct value to the (sorted) indices holding it."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    groups: dict[int, np.ndarray] = {}
    if len(order) == 0:
        return groups
    boundaries = np.nonzero(np.diff(sorted_vals))[0] + 1
    for part in np.split(order, boundaries):
        groups[int(values[part[0]])] = part
    return groups


@dataclass
class VJoinResult:
    """Outcome of one vectorized join (mirrors
    :class:`repro.core.join.JoinResult`)."""

    method: str
    n_left: int
    n_right: int
    match_count: int = 0
    diagonal_matches: int = 0
    #: pairs that reached the verifier (0 for unfiltered/filter-only)
    verified_pairs: int = 0
    matches: list[tuple[int, int]] = field(default_factory=list)

    @property
    def pairs_compared(self) -> int:
        return self.n_left * self.n_right

    @property
    def off_diagonal_matches(self) -> int:
        return self.match_count - self.diagonal_matches


class VectorEngine:
    """A prepared vectorized join over two string datasets.

    Encoding, lengths and packed FBF signatures are computed once at
    construction (the paper's "Gen" cost); Soundex ids and self-join
    value identities on the first method that needs them.  :meth:`run`
    then executes any method stack by name over the full product, and
    :meth:`run_candidates` over an explicit candidate pair stream.

    Parameters
    ----------
    left, right:
        The datasets.
    k, theta:
        Edit threshold and Jaro/Wink similarity floor.
    scheme_kind:
        FBF signature kind (``"numeric"`` / ``"alpha"`` / ``"alnum"``),
        auto-detected when omitted.  Alpha/alnum default to the paper's
        2-occurrence configuration.
    chunk:
        Maximum pairs per NumPy chunk for the dynamic programs, whose
        per-pair state is hundreds of bytes (three rolling DP rows);
        the default keeps the working set cache-resident — the
        chunk-size ablation shows a 2-2.5x DL penalty for chunks that
        spill to memory.
    filter_chunk:
        Maximum pairs per chunk for the cheap sweeps (signature
        XOR+popcount, length masks, Hamming, Soundex), whose per-pair
        state is a few bytes; large chunks amortize the per-chunk
        Python overhead these are dominated by.
    collector:
        A :class:`repro.obs.StatsCollector` receiving signature-"Gen"
        spans at construction and the funnel counters of every
        :meth:`run` (unless the run supplies its own).
    share_right:
        Another engine over the *same* ``right`` dataset whose prepared
        right-side state (codes, lengths, signatures, scheme) this one
        reuses instead of recomputing — construction then costs only the
        left-side "Gen" work.  This is the serve layer's micro-batching
        hook: one prepared engine per index generation, one cheap
        per-batch engine over the queries.
    kernels:
        Inner-kernel selection: ``"numpy"`` (default) keeps the pure
        NumPy tier; ``"native"`` uses the compiled kernels of
        :mod:`repro.native` (warn-once NumPy fallback when no provider
        loads); ``"auto"`` uses them silently when available.  Every
        kernel choice produces bit-identical decisions — only the
        constant factors change.
    """

    def __init__(
        self,
        left: list[str],
        right: list[str],
        *,
        k: int = 1,
        theta: float = 0.8,
        scheme_kind: SignatureScheme | str | None = None,
        levels: int = 2,
        chunk: int = VERIFY_CHUNK,
        filter_chunk: int = FILTER_CHUNK,
        variant: str = "paper",
        record_matches: bool = False,
        collector=None,
        share_right: "VectorEngine | None" = None,
        kernels: str | None = "numpy",
    ):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if share_right is not None and share_right.right is not right:
            raise ValueError(
                "share_right must wrap the identical right dataset object"
            )
        self.left = left
        self.right = right
        self.k = k
        self.theta = theta
        self.chunk = chunk
        self.filter_chunk = max(chunk, filter_chunk)
        self.variant = variant
        self.record_matches = record_matches
        self.collector = collector
        self.kernels = kernels or "numpy"
        self._native = resolve_kernels(self.kernels, warn_key="engine")
        obs = collector if collector else NULL_COLLECTOR
        if share_right is not None:
            self.scheme = share_right.scheme
        elif isinstance(scheme_kind, SignatureScheme):
            self.scheme = scheme_kind
        else:
            kind = scheme_kind or detect_kind(
                list(left[:128]) + list(right[:128])
            )
            self.scheme = scheme_for(kind, levels)
        with obs.span("gen.encode"):
            codes_l, len_l = encode_raw(left)
            if share_right is None:
                codes_r, len_r = encode_raw(right)
        with obs.span("gen.signatures"):
            sigs_l = packed_signatures(left, self.scheme)
            if share_right is None:
                sigs_r = packed_signatures(right, self.scheme)
        self._side_l = Side(len(left), codes_l, len_l, sigs_l)
        if share_right is not None:
            # Own Side object, shared arrays: the soundex ids and value
            # identities filled in later belong to this pair of sides.
            shared = share_right._side_r
            self._side_r = Side(
                shared.n, shared.codes, shared.lengths, shared.sigs
            )
        else:
            self._side_r = Side(len(right), codes_r, len_r, sigs_r)
        self.fbf_bound = self.scheme.safe_threshold(k)
        self._len_groups_l: dict[int, np.ndarray] | None = None
        self._len_groups_r: dict[int, np.ndarray] | None = None
        #: self-joins count the diagonal by value identity (see
        #: JoinResult's diagonal-semantics note), detected once here.
        self.self_join = right is left or (
            len(left) == len(right) and list(left) == list(right)
        )

    # The engine's views of its prepared sides.
    codes_l = property(lambda self: self._side_l.codes)
    len_l = property(lambda self: self._side_l.lengths)
    sigs_l = property(lambda self: self._side_l.sigs)
    codes_r = property(lambda self: self._side_r.codes)
    len_r = property(lambda self: self._side_r.lengths)
    sigs_r = property(lambda self: self._side_r.sigs)

    def sync_right(self) -> int:
        """Prepare rows appended to ``self.right`` since the right side
        was prepared; returns how many were added.

        This is the serve layer's append path: the roster list grows in
        place, and only the new rows are encoded and signed.  The code
        matrix is padded up when a new string is wider than the current
        maximum, and the lazily built pair caches (Soundex ids, length
        groups, value identities) are reset.  Nothing is changed if
        encoding a new row fails.  ``self.right`` must not be the left
        dataset.
        """
        side = self._side_r
        new = self.right[side.n :]
        if not new:
            return 0
        codes, lens = encode_raw(new)
        sigs = packed_signatures(new, self.scheme)
        width = max(side.codes.shape[1], codes.shape[1])
        grown = np.zeros((side.n + len(new), width), dtype=np.uint8)
        grown[: side.n, : side.codes.shape[1]] = side.codes
        grown[side.n :, : codes.shape[1]] = codes
        side.codes = grown
        side.lengths = np.concatenate([side.lengths, lens])
        side.sigs = np.concatenate([side.sigs, sigs])
        side.n += len(new)
        # The left- and right-side caches are built (and checked) as pairs.
        side.sdx = side.vid = self._side_l.sdx = self._side_l.vid = None
        self._len_groups_l = self._len_groups_r = None
        self.self_join = len(self.left) == len(self.right) and list(
            self.left
        ) == list(self.right)
        return len(new)

    def _kernels(self, spec, weighter=None) -> Kernels:
        """The kernels for one method over this engine's sides, with the
        pair caches that method needs filled in."""
        L, R = self._side_l, self._side_r
        if self.self_join and L.vid is None:
            L.vid, R.vid = value_identity_codes(self.left, self.right)
        if spec.verifier == "sdx" and L.sdx is None:
            L.sdx, R.sdx = soundex_ids(self.left, self.right)
        return Kernels(
            L, R, spec,
            k=self.k,
            fbf_bound=self.fbf_bound,
            theta=self.theta,
            variant=self.variant,
            self_join=self.self_join,
            record=self.record_matches,
            weighter=weighter,
            native=self._native,
            chunk=self.chunk,
            filter_chunk=self.filter_chunk,
        )

    @staticmethod
    def _take(res: dict, result) -> None:
        """Move a kernel result dict's matches into ``result``."""
        result.match_count += res["match_count"]
        result.diagonal_matches += res["diagonal"]
        if res["mi"]:
            result.matches.extend(
                zip(
                    np.concatenate(res["mi"]).tolist(),
                    np.concatenate(res["mj"]).tolist(),
                )
            )

    # -- method dispatch ---------------------------------------------------

    def run(self, method: str, collector=None) -> VJoinResult:
        """Execute one method stack by its paper name.

        ``collector`` overrides the instance collector for this run —
        the experiment harness uses that to give each method its own
        child collector over one prepared join.
        """
        spec = _SPECS.get(method.lower())
        if spec is None:
            raise ValueError(f"unknown method {method!r}")
        obs = collector if collector else (
            self.collector if self.collector else NULL_COLLECTOR
        )
        if obs:
            obs.meta["method"] = method
            obs.meta["k"] = self.k
            obs.meta["n_left"] = len(self.left)
            obs.meta["n_right"] = len(self.right)
        _log.debug(
            "run %s over %d x %d pairs", method, len(self.left), len(self.right)
        )
        kern = self._kernels(spec)
        result = VJoinResult(spec.name, len(self.left), len(self.right))
        res = kern.fresh()
        with obs.span(f"run.{method}"):
            if not spec.filters:
                # No filter stage: every pair flows straight to the
                # verifier, one verify chunk at a time.
                for ii, jj in iter_pair_blocks(
                    len(self.left), len(self.right), kern.vchunk
                ):
                    obs.add_pairs(len(ii))
                    kern.tally(res, ii, jj, obs)
            else:
                if spec.filters == ("length",):
                    ii, jj = self._length_pairs(obs)
                elif spec.filters == ("fbf",):
                    ii, jj = self._fbf_pairs(kern, obs)
                else:
                    ii, jj = self._length_then_fbf_pairs(kern, obs)
                obs.add_pairs(len(self.left) * len(self.right))
                if kern.verifier is None:
                    kern.tally(res, ii, jj, obs)
                else:
                    result.verified_pairs = len(ii)
                    with obs.span("verify"):
                        kern.tally(res, ii, jj, obs)
        self._take(res, result)
        return result

    # -- candidate generators --------------------------------------------------

    def _fbf_pairs(self, kern: Kernels, obs) -> tuple[np.ndarray, np.ndarray]:
        with obs.span("fbf.filter"):
            ii, jj = kern.fbf_scan(self.sigs_l, self.sigs_r)
        obs.add_stage("fbf", len(self.left) * len(self.right), len(ii))
        return ii, jj

    def _length_group_blocks(self):
        """Yield ``(left_idx, right_idx)`` index blocks covering exactly
        the length-filter-passing pairs.

        This is the vectorized analogue of the paper's length-first
        short-circuit: per-pair branching does not vectorize, but
        grouping each side by string length lets whole incompatible
        group products be *skipped* before any dense work.  Demographic
        strings have at most a few dozen distinct lengths, so the block
        count stays tiny.
        """
        if self._len_groups_l is None:
            self._len_groups_l = _group_by_value(self.len_l)
            self._len_groups_r = _group_by_value(self.len_r)
        for lv, left_idx in self._len_groups_l.items():
            right_parts = [
                idx
                for rv, idx in self._len_groups_r.items()
                if abs(lv - rv) <= self.k
            ]
            if right_parts:
                yield left_idx, np.concatenate(right_parts)

    def _length_pairs(
        self, obs=NULL_COLLECTOR
    ) -> tuple[np.ndarray, np.ndarray]:
        parts_i: list[np.ndarray] = []
        parts_j: list[np.ndarray] = []
        with obs.span("length.filter"):
            for left_idx, right_idx in self._length_group_blocks():
                ii = np.repeat(left_idx, len(right_idx))
                jj = np.tile(right_idx, len(left_idx))
                parts_i.append(ii)
                parts_j.append(jj)
        if not parts_i:
            obs.add_stage("length", len(self.left) * len(self.right), 0)
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        ii, jj = np.concatenate(parts_i), np.concatenate(parts_j)
        obs.add_stage("length", len(self.left) * len(self.right), len(ii))
        return ii, jj

    def _length_then_fbf_pairs(
        self, kern: Kernels, obs
    ) -> tuple[np.ndarray, np.ndarray]:
        """FBF restricted to length-compatible group blocks.

        The dense XOR+popcount sweep runs only over the surviving
        blocks (~half the product for census-name length distributions),
        which is where the paper's Section 6 "combination beats FBF
        alone" result comes from.
        """
        product = len(self.left) * len(self.right)
        length_passed = 0
        keep_i: list[np.ndarray] = []
        keep_j: list[np.ndarray] = []
        with obs.span("fbf.filter"):
            for left_idx, right_idx in self._length_group_blocks():
                length_passed += len(left_idx) * len(right_idx)
                bi, bj = kern.fbf_scan(
                    self.sigs_l[left_idx], self.sigs_r[right_idx]
                )
                keep_i.append(left_idx[bi])
                keep_j.append(right_idx[bj])
        obs.add_stage("length", product, length_passed)
        if not keep_i:
            obs.add_stage("fbf", length_passed, 0)
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        ii, jj = np.concatenate(keep_i), np.concatenate(keep_j)
        obs.add_stage("fbf", length_passed, len(ii))
        return ii, jj

    def length_blocks(self):
        """Public view of the length-compatible group blocks.

        Yields ``(left_idx, right_idx)`` index arrays whose products
        cover exactly the length-filter-passing pairs; the plan layer's
        length-bucket candidate generator is built on this.
        """
        return self._length_group_blocks()

    # -- candidate-stream execution (plan-layer backend) -----------------------

    def run_candidates(
        self,
        method: str,
        blocks: Iterable[tuple[np.ndarray, np.ndarray]],
        *,
        collector=None,
        weighter=None,
    ) -> JoinResult:
        """Execute one method stack over an explicit candidate stream.

        ``blocks`` yields ``(ii, jj)`` index-pair arrays (a candidate
        generator's output).  The method's own filters still run over
        every candidate — redundant when the generator already implies
        them, but it keeps decisions independent of who generated the
        candidates (plan equivalence) and the funnel stages uniform.

        Funnel accounting covers exactly the candidates seen here; the
        planner accounts for the pairs the generator never emitted.
        Returns the unified :class:`repro.core.join.JoinResult` with
        ``pairs_compared`` equal to the candidate count.

        ``weighter`` (a :class:`repro.core.multiplicity.PairWeighter`)
        puts the funnel counters and match counts in original-pair units
        when the candidates live in unique-value space; ``verified_pairs``
        and ``pairs_compared`` keep counting the actual (unique-space)
        work performed.
        """
        spec = method_registry().get(method)
        if spec is None:
            raise ValueError(f"unknown method {method!r}")
        obs = collector if collector else (
            self.collector if self.collector else NULL_COLLECTOR
        )
        if obs:
            obs.meta.setdefault("method", method)
            obs.meta.setdefault("k", self.k)
            obs.meta["n_left"] = len(self.left)
            obs.meta["n_right"] = len(self.right)
        kern = self._kernels(spec, weighter)
        result = JoinResult(
            method, len(self.left), len(self.right), backend="vectorized"
        )
        with obs.span(f"run.{method}.candidates"):
            for ii, jj in blocks:
                res = kern.run_pairs(ii, jj, obs)
                result.verified_pairs += res["verified"]
                result.pairs_compared += res["compared"]
                self._take(res, result)
        return result
