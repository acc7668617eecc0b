"""The vectorized similarity join: every method stack over NumPy chunks.

:class:`VectorEngine` is the scaled twin of the scalar reference join:
same methods, same decisions (pinned by the equivalence tests), but the
pair loop runs as NumPy operations over bounded chunks instead of
per-pair Python.  This is the engine the runtime-curve experiments
(paper Figures 7 and 9) use, since their products reach hundreds of
millions of pairs.

The engine is the in-process tier of :mod:`repro.core.plan`'s
``vectorized`` backend: :meth:`VectorEngine.run` covers full-product
plans as row tasks of about ``_SWEEP_PAIRS`` pairs each
(:meth:`repro.parallel.kernels.Kernels.run_rows`, the sweep each pool
task runs over its slice), :meth:`VectorEngine.run_candidates`
verifies an explicit candidate stream (key blocking, or a collapsed
plan's weighted stream), and :meth:`VectorEngine.run_probe` generates
PASS-JOIN candidates itself.  Both sides are
:class:`repro.parallel.prepared.PreparedSide` objects, read in the
:class:`repro.parallel.kernels.Side` layout, and every decision runs
through :class:`repro.parallel.kernels.Kernels` — the same kernels the
shared-memory pool workers run.  The ``kernels`` argument picks which
kernels: the process's loaded compiled provider (``"auto"``) or NumPy.

Timing fidelity note (DESIGN.md): with ``kernels="numpy"`` *all*
methods run in the same vectorized paradigm, so relative timings — the
paper's speedup columns — compare like with like, exactly as the
paper's all-C implementations did; the experiment harness pins it.

Observability: pass a :class:`repro.obs.StatsCollector` (constructor or
per-:meth:`VectorEngine.run` call) and the engine reports the same
funnel the scalar driver does — stage sweeps record their tested/passed
totals, verification merges per-chunk aggregates into the one
collector, and signature generation and each run get a wall-time
span.  With no collector every hook routes to the falsy
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
from repro.parallel.prepared import PreparedSide, shared_scheme

__all__ = ["VectorEngine"]

_log = get_logger("parallel.chunked")

#: method specs by lower-cased name (``run`` accepts any case)
_SPECS = {name.lower(): spec for name, spec in method_registry().items()}
#: pairs one dense sweep call covers: a call holds its filter survivors
#: until they are verified, so this bounds them
_SWEEP_PAIRS = 1 << 22


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
        ``"auto"`` (default) runs the compiled kernels of
        :mod:`repro.native` when a provider loads in this process, NumPy
        otherwise; ``"numpy"`` pins the NumPy tier.  Every choice makes
        bit-identical decisions — only the constant factors change.
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
        kernels: str = "auto",
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
        self._native = resolve_kernels(kernels)
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
        n = len(self.left)
        rows = max(1, _SWEEP_PAIRS // max(1, len(self.right)))
        res = kern.fresh()
        with obs.span(f"run.{method}"):
            for r0 in range(0, n, rows):
                kern.absorb(res, kern.run_rows(r0, min(n, r0 + rows), obs))
        result = JoinResult(
            spec.name, len(self.left), len(self.right),
            verified_pairs=res["verified"], pairs_compared=res["compared"],
            backend="vectorized",
        )
        self._take(res, result)
        return result

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
