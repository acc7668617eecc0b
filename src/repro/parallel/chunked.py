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
are :class:`repro.parallel.prepared.PreparedSide` objects, read in the
:class:`repro.parallel.kernels.Side` layout, and every decision runs
through :class:`repro.parallel.kernels.Kernels` — the same kernels the
shared-memory pool workers run.

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

from typing import Iterable

import numpy as np

from repro.core.join import JoinResult, match_rows
from repro.core.matchers import method_registry
from repro.core.signatures import SignatureScheme, detect_kind, scheme_for
from repro.core.vectorized import value_identity_codes
from repro.native import resolve_kernels
from repro.obs.log import get_logger
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.kernels import (
    FILTER_CHUNK,
    VERIFY_CHUNK,
    Kernels,
    Side,
)
from repro.parallel.partition import iter_pair_blocks
from repro.parallel.prepared import PreparedSide, shared_scheme

__all__ = ["VectorEngine"]

_log = get_logger("parallel.chunked")

#: method specs by lower-cased name (``run`` accepts any case)
_SPECS = {name.lower(): spec for name, spec in method_registry().items()}


class VectorEngine:
    """A prepared vectorized join over two string datasets.

    Each side is a :class:`~repro.parallel.prepared.PreparedSide` (a
    plain string list is wrapped in one): its encoding, lengths and
    packed FBF signatures are the paper's "Gen" cost, paid once per
    prepared side however many engines run over it.  Soundex ids and
    self-join value identities belong to the pair of sides and are built
    on the first method that needs them.  :meth:`run` then executes any
    method stack by name over the full product, and
    :meth:`run_candidates` over an explicit candidate pair stream.

    Parameters
    ----------
    left, right:
        The datasets: string lists or prepared sides.  An engine over a
        prepared side sees the rows it held when the engine was built.
    k, theta:
        Edit threshold and Jaro/Wink similarity floor.
    scheme_kind:
        FBF signature kind (``"numeric"`` / ``"alpha"`` / ``"alnum"``),
        auto-detected when omitted.  Alpha/alnum default to the paper's
        2-occurrence configuration.  A prepared side brings its own
        scheme, which wins.
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
        left: list[str] | PreparedSide,
        right: list[str] | PreparedSide,
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
        kernels: str | None = "numpy",
    ):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
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
        self.scheme = shared_scheme(left, right)
        if self.scheme is None:
            if isinstance(scheme_kind, SignatureScheme):
                self.scheme = scheme_kind
            else:
                kind = scheme_kind or detect_kind(
                    list(left[:128]) + list(right[:128])
                )
                self.scheme = scheme_for(kind, levels)
        pl = left if isinstance(left, PreparedSide) else PreparedSide(
            left, self.scheme
        )
        pr = pl if right is left else (
            right if isinstance(right, PreparedSide)
            else PreparedSide(right, self.scheme)
        )
        self._prep_l, self._prep_r = pl, pr
        self.left, self.right = pl.strings, pr.strings
        # Own Side views over the prepared arrays: the soundex ids and
        # value identities filled in later belong to this pair of sides.
        sl, sr = pl.side(obs), pr.side(obs)
        self._side_l = Side(sl.n, sl.codes, sl.lengths, sl.sigs)
        self._side_r = Side(sr.n, sr.codes, sr.lengths, sr.sigs)
        self.fbf_bound = self.scheme.safe_threshold(k)
        #: self-joins count the diagonal by value identity (see
        #: JoinResult's diagonal-semantics note), detected once here.
        self.self_join = pr is pl or (
            len(self.left) == len(self.right)
            and list(self.left) == list(self.right)
        )

    # The engine's views of its prepared sides.
    codes_l = property(lambda self: self._side_l.codes)
    len_l = property(lambda self: self._side_l.lengths)
    sigs_l = property(lambda self: self._side_l.sigs)
    codes_r = property(lambda self: self._side_r.codes)
    len_r = property(lambda self: self._side_r.lengths)
    sigs_r = property(lambda self: self._side_r.sigs)

    def _kernels(self, spec, weighter=None) -> Kernels:
        """The kernels for one method over this engine's sides, with the
        pair caches that method needs filled in."""
        L, R = self._side_l, self._side_r
        if self.self_join and L.vid is None:
            L.vid, R.vid = value_identity_codes(self.left, self.right)
        if spec.verifier == "sdx" and L.sdx is None:
            R.sdx = self._prep_r.soundex_ids()
            L.sdx = (
                R.sdx
                if self._prep_l is self._prep_r
                else self._prep_r.soundex_ids(self.left)
            )
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
        """Move a kernel result dict's counts and match arrays into
        ``result``."""
        result.match_count += res["match_count"]
        result.diagonal_matches += res["diagonal"]
        result.match_rows = match_rows(res["mi"], res["mj"])

    # -- method dispatch ---------------------------------------------------

    def run(self, method: str, collector=None) -> JoinResult:
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
        n_left, n_right = len(self.left), len(self.right)
        result = JoinResult(
            spec.name, n_left, n_right, pairs_compared=n_left * n_right,
            backend="vectorized",
        )
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
        groups_r = self._prep_r.length_groups()
        for lv, left_idx in self._prep_l.length_groups().items():
            right_parts = [
                idx
                for rv, idx in groups_r.items()
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
        kern, obs, result = self._candidate_run(method, collector, weighter)
        res = kern.fresh()
        with obs.span(f"run.{method}.candidates"):
            for ii, jj in blocks:
                kern.absorb(res, kern.run_pairs(ii, jj, obs))
        result.verified_pairs = res["verified"]
        result.pairs_compared = res["compared"]
        self._take(res, result)
        return result

    def run_probe(
        self,
        method: str,
        index,
        *,
        collector=None,
        weighter=None,
        max_pairs: int = 1 << 20,
    ) -> tuple[JoinResult, int]:
        """Execute one method stack over the PASS-JOIN candidates of
        every left row against ``index`` (a
        :class:`~repro.core.passjoin.SegmentIndex` over the right side).

        The candidates are exactly those of
        ``index.candidate_blocks(left)`` and the result and funnel equal
        :meth:`run_candidates`' over them.  With native kernels the
        probe, filters and verifier are one compiled pass over the left
        side's codes; without, the NumPy probe yields blocks of at most
        ``max_pairs`` pairs, each verified in turn (:meth:`Kernels.run_probe`;
        ``max_pairs`` shapes only those blocks).  Returns the result and
        the emitted candidates in the generator stage's units.
        """
        kern, obs, result = self._candidate_run(method, collector, weighter)
        with obs.span(f"run.{method}.probe"):
            res = kern.run_probe(
                index, 0, self._side_l.n, obs, max_pairs=max_pairs
            )
        result.verified_pairs = res["verified"]
        result.pairs_compared = res["compared"]
        self._take(res, result)
        return result, res["emitted"]

    def _candidate_run(self, method: str, collector, weighter):
        """The kernels, collector and empty result of one candidate-fed
        run of ``method``."""
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
        result = JoinResult(
            method, len(self.left), len(self.right), backend="vectorized"
        )
        return self._kernels(spec, weighter), obs, result
