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
(length buckets, the FBF signature index, key blocking).
:class:`ChunkedJoin` remains as a deprecated alias.

Timing fidelity note (DESIGN.md): *all* methods run in the same
vectorized paradigm here, so relative timings — the paper's speedup
columns — compare like with like, exactly as the paper's all-C
implementations did.

Observability: pass a :class:`repro.obs.StatsCollector` (constructor or
per-:meth:`ChunkedJoin.run` call) and the engine reports the same
funnel the scalar driver does — stage sweeps record their tested/passed
totals, verification merges per-chunk aggregates into the one
collector, and signature generation / filtering / verification each get
a wall-time span.  With no collector every hook routes to the falsy
shared no-op and the hot loops are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro._compat import warn_once
from repro.core.join import JoinResult
from repro.core.matchers import method_registry
from repro.core.popcount import popcount_batch_u32
from repro.core.signatures import SignatureScheme, detect_kind, scheme_for
from repro.core.vectorized import (
    fbf_candidates,
    signatures_for_scheme,
    value_identity_codes,
)
from repro.distance.codec import encode_raw
from repro.distance.soundex import soundex
from repro.native import MODE_DL, MODE_PDL, resolve_kernels
from repro.distance.vectorized import (
    hamming_pairs,
    jaro_pairs,
    jaro_winkler_pairs,
    osa_pairs,
    osa_within_k_pairs,
)
from repro.obs.log import get_logger
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.partition import iter_pair_blocks

__all__ = ["VectorEngine", "ChunkedJoin", "VJoinResult"]

_log = get_logger("parallel.chunked")


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

    Encoding, lengths, FBF signatures and Soundex codes are computed
    once at construction (the paper's "Gen" cost); :meth:`run` then
    executes any method stack by name over the full product, and
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
        chunk: int = 1 << 12,
        filter_chunk: int = 1 << 20,
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
        self._obs = NULL_COLLECTOR  # run-scoped; set by run()
        with obs.span("gen.encode"):
            self.codes_l, self.len_l = encode_raw(left)
            if share_right is not None:
                self.codes_r, self.len_r = share_right.codes_r, share_right.len_r
            else:
                self.codes_r, self.len_r = encode_raw(right)
        if share_right is not None:
            self.scheme = share_right.scheme
        elif isinstance(scheme_kind, SignatureScheme):
            self.scheme = scheme_kind
        else:
            kind = scheme_kind or detect_kind(
                list(left[:128]) + list(right[:128])
            )
            self.scheme = scheme_for(kind, levels)
        with obs.span("gen.signatures"):
            self.sigs_l = signatures_for_scheme(left, self.scheme)
            self.sigs_r = (
                share_right.sigs_r
                if share_right is not None
                else signatures_for_scheme(right, self.scheme)
            )
        if self.sigs_l.ndim == 1:
            self.sigs_l = self.sigs_l[:, None]
        if self.sigs_r.ndim == 1:
            self.sigs_r = self.sigs_r[:, None]
        self.fbf_bound = self.scheme.safe_threshold(k)
        self._sdx_l: np.ndarray | None = None
        self._sdx_r: np.ndarray | None = None
        self._len_groups_l: dict[int, np.ndarray] | None = None
        self._len_groups_r: dict[int, np.ndarray] | None = None
        #: self-joins count the diagonal by value identity (see
        #: JoinResult's diagonal-semantics note), detected once here.
        self.self_join = right is left or (
            len(left) == len(right) and list(left) == list(right)
        )
        self._vid_l: np.ndarray | None = None
        self._vid_r: np.ndarray | None = None

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
        new = self.right[len(self.len_r) :]
        if not new:
            return 0
        codes, lens = encode_raw(new)
        sigs = signatures_for_scheme(new, self.scheme)
        if sigs.ndim == 1:
            sigs = sigs[:, None]
        width = max(self.codes_r.shape[1], codes.shape[1])
        grown = np.zeros((len(self.len_r) + len(new), width), dtype=np.uint8)
        grown[: len(self.len_r), : self.codes_r.shape[1]] = self.codes_r
        grown[len(self.len_r) :, : codes.shape[1]] = codes
        self.codes_r = grown
        self.len_r = np.concatenate([self.len_r, lens])
        self.sigs_r = np.concatenate([self.sigs_r, sigs])
        # The left- and right-side caches are built (and checked) as pairs.
        self._sdx_l = self._sdx_r = None
        self._len_groups_l = self._len_groups_r = None
        self._vid_l = self._vid_r = None
        self.self_join = len(self.left) == len(self.right) and list(
            self.left
        ) == list(self.right)
        return len(new)

    # -- method dispatch ---------------------------------------------------

    def run(self, method: str, collector=None) -> VJoinResult:
        """Execute one method stack by its paper name.

        ``collector`` overrides the instance collector for this run —
        the experiment harness uses that to give each method its own
        child collector over one prepared join.
        """
        handler = getattr(self, f"_run_{method.lower()}", None)
        if handler is None:
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
        self._obs = obs
        try:
            with obs.span(f"run.{method}"):
                return handler()
        finally:
            self._obs = NULL_COLLECTOR

    # -- verifiers ----------------------------------------------------------

    def _verify_dl(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        if self._native is not None:
            return self._native.osa_decisions(
                self.codes_l, self.len_l, self.codes_r, self.len_r,
                ii, jj, self.k, mode=MODE_DL,
            )
        return (
            osa_pairs(self.codes_l, self.len_l, self.codes_r, self.len_r, ii, jj)
            <= self.k
        )

    def _verify_pdl(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        if self._native is not None:
            return self._native.osa_decisions(
                self.codes_l, self.len_l, self.codes_r, self.len_r,
                ii, jj, self.k, mode=MODE_PDL,
            )
        return osa_within_k_pairs(
            self.codes_l, self.len_l, self.codes_r, self.len_r, ii, jj, self.k
        )

    # -- diagonal ------------------------------------------------------------

    def _diag_mask(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Diagonal membership for a candidate block.

        Positional (``i == j``) for two different datasets; value
        identity (``left[i] == right[j]``) for self-joins, matching the
        scalar driver's semantics.
        """
        if not self.self_join:
            return ii == jj
        if self._vid_l is None:
            self._vid_l, self._vid_r = value_identity_codes(self.left, self.right)
        return self._vid_l[ii] == self._vid_r[jj]

    # -- full-product predicate runner ---------------------------------------

    def _full_product(
        self,
        method: str,
        predicate: Callable[[np.ndarray, np.ndarray], np.ndarray],
        *,
        chunk: int | None = None,
    ) -> VJoinResult:
        obs = self._obs
        result = VJoinResult(method, len(self.left), len(self.right))
        chunk = chunk or self.chunk
        for ii, jj in iter_pair_blocks(len(self.left), len(self.right), chunk):
            hits = predicate(ii, jj)
            n_hits = int(hits.sum())
            result.match_count += n_hits
            result.diagonal_matches += int((hits & self._diag_mask(ii, jj)).sum())
            if self.record_matches:
                result.matches.extend(
                    zip(ii[hits].tolist(), jj[hits].tolist())
                )
            # Per-chunk aggregates; no filter stage, so every pair flows
            # straight to the decision predicate.
            obs.add_pairs(len(ii))
            obs.add_survivors(len(ii))
            obs.add_verified(len(ii))
            obs.add_matched(n_hits)
        return result

    # -- filtered runner ------------------------------------------------------

    def _filtered(
        self,
        method: str,
        candidates: tuple[np.ndarray, np.ndarray],
        verifier: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    ) -> VJoinResult:
        obs = self._obs
        ii, jj = candidates
        result = VJoinResult(method, len(self.left), len(self.right))
        obs.add_pairs(len(self.left) * len(self.right))
        obs.add_survivors(len(ii))
        if verifier is None:
            result.match_count = len(ii)
            result.diagonal_matches = int(self._diag_mask(ii, jj).sum())
            if self.record_matches:
                result.matches.extend(zip(ii.tolist(), jj.tolist()))
            obs.add_matched(result.match_count)
            return result
        result.verified_pairs = len(ii)
        obs.add_verified(len(ii))
        with obs.span("verify"):
            for c0 in range(0, len(ii), self.chunk):
                bi = ii[c0 : c0 + self.chunk]
                bj = jj[c0 : c0 + self.chunk]
                hits = verifier(bi, bj)
                n_hits = int(hits.sum())
                result.match_count += n_hits
                result.diagonal_matches += int((hits & self._diag_mask(bi, bj)).sum())
                if self.record_matches:
                    result.matches.extend(zip(bi[hits].tolist(), bj[hits].tolist()))
                obs.add_matched(n_hits)  # per-chunk aggregate merge
        return result

    # -- candidate generators --------------------------------------------------

    def _fbf_scan(
        self, sigs_l: np.ndarray, sigs_r: np.ndarray, n_right: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One XOR+popcount+threshold sweep, native kernel when armed.

        Both paths emit candidates in identical row-major order, so
        downstream match lists are bit-identical either way.
        """
        if self._native is not None:
            return self._native.fbf_candidates(sigs_l, sigs_r, self.fbf_bound)
        chunk_rows = max(1, self.filter_chunk // max(1, n_right))
        return fbf_candidates(
            sigs_l, sigs_r, self.fbf_bound, chunk_rows=chunk_rows
        )

    def _fbf_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        obs = self._obs
        with obs.span("fbf.filter"):
            ii, jj = self._fbf_scan(self.sigs_l, self.sigs_r, len(self.right))
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

    def _length_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        obs = self._obs
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

    def _length_then_fbf_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """FBF restricted to length-compatible group blocks.

        The dense XOR+popcount sweep runs only over the surviving
        blocks (~half the product for census-name length distributions),
        which is where the paper's Section 6 "combination beats FBF
        alone" result comes from.
        """
        obs = self._obs
        product = len(self.left) * len(self.right)
        length_passed = 0
        keep_i: list[np.ndarray] = []
        keep_j: list[np.ndarray] = []
        with obs.span("fbf.filter"):
            for left_idx, right_idx in self._length_group_blocks():
                length_passed += len(left_idx) * len(right_idx)
                bi, bj = self._fbf_scan(
                    self.sigs_l[left_idx],
                    self.sigs_r[right_idx],
                    len(right_idx),
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

    def _pair_filter_mask(
        self, name: str, ii: np.ndarray, jj: np.ndarray
    ) -> np.ndarray:
        """Per-pair boolean mask of one named filter over candidate arrays."""
        if name == "length":
            return np.abs(self.len_l[ii] - self.len_r[jj]) <= self.k
        if name == "fbf":
            if self._native is not None:
                return self._native.sig_pair_mask(
                    self.sigs_l, self.sigs_r, ii, jj, self.fbf_bound
                )
            db = np.zeros(len(ii), dtype=np.uint16)
            sigs_l, sigs_r = self.sigs_l, self.sigs_r
            for w in range(sigs_l.shape[1]):
                db += popcount_batch_u32(sigs_l[ii, w] ^ sigs_r[jj, w])
            return db <= self.fbf_bound
        raise ValueError(f"unknown filter {name!r}")

    def _pair_verifier(
        self, kind: str | None
    ) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
        """The per-pair decision predicate for one verifier kind."""
        if kind is None:
            return None
        if kind == "dl":
            return self._verify_dl
        if kind == "pdl":
            return self._verify_pdl
        if kind == "ham":
            return lambda ii, jj: (
                hamming_pairs(
                    self.codes_l, self.len_l, self.codes_r, self.len_r, ii, jj
                )
                <= self.k
            )
        if kind == "jaro":
            return lambda ii, jj: (
                jaro_pairs(
                    self.codes_l, self.len_l, self.codes_r, self.len_r,
                    ii, jj, self.variant,
                )
                >= self.theta
            )
        if kind == "wink":
            return lambda ii, jj: (
                jaro_winkler_pairs(
                    self.codes_l, self.len_l, self.codes_r, self.len_r,
                    ii, jj, 0.1, self.variant,
                )
                >= self.theta
            )
        if kind == "sdx":
            sl, sr = self._sdx_codes()
            return lambda ii, jj: (sl[ii] == sr[jj]) & (sl[ii] != 0)
        raise ValueError(f"unknown verifier kind {kind!r}")

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
        verifier = self._pair_verifier(spec.verifier)
        result = JoinResult(
            method, len(self.left), len(self.right), backend="vectorized"
        )
        compared = 0
        with obs.span(f"run.{method}.candidates"):
            for ii, jj in blocks:
                ii = np.asarray(ii, dtype=np.int64)
                jj = np.asarray(jj, dtype=np.int64)
                compared += len(ii)
                ww = None if weighter is None else weighter.block(ii, jj)
                obs.add_pairs(len(ii) if ww is None else int(ww.sum()))
                for fname in spec.filters:
                    tested = len(ii) if ww is None else int(ww.sum())
                    mask = self._pair_filter_mask(fname, ii, jj)
                    ii, jj = ii[mask], jj[mask]
                    if ww is not None:
                        ww = ww[mask]
                    obs.add_stage(
                        fname, tested, len(ii) if ww is None else int(ww.sum())
                    )
                surviving = len(ii) if ww is None else int(ww.sum())
                obs.add_survivors(surviving)
                if len(ii) == 0:
                    continue
                if verifier is None:
                    dm = self._diag_mask(ii, jj)
                    result.match_count += surviving
                    result.diagonal_matches += (
                        int(dm.sum()) if ww is None else int(ww[dm].sum())
                    )
                    if self.record_matches:
                        result.matches.extend(zip(ii.tolist(), jj.tolist()))
                    obs.add_matched(surviving)
                    continue
                result.verified_pairs += len(ii)
                obs.add_verified(surviving)
                for c0 in range(0, len(ii), self.chunk):
                    bi = ii[c0 : c0 + self.chunk]
                    bj = jj[c0 : c0 + self.chunk]
                    bw = None if ww is None else ww[c0 : c0 + self.chunk]
                    hits = verifier(bi, bj)
                    dm = self._diag_mask(bi, bj)
                    if bw is None:
                        n_hits = int(hits.sum())
                        result.diagonal_matches += int((hits & dm).sum())
                    else:
                        n_hits = int(bw[hits].sum())
                        result.diagonal_matches += int(bw[hits & dm].sum())
                    result.match_count += n_hits
                    if self.record_matches:
                        result.matches.extend(
                            zip(bi[hits].tolist(), bj[hits].tolist())
                        )
                    obs.add_matched(n_hits)
        result.pairs_compared = compared
        return result

    # -- soundex -----------------------------------------------------------------

    def _sdx_codes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sdx_l is None:
            table: dict[str, int] = {"": 0}  # empty code: id 0, never matches

            def encode(values: list[str]) -> np.ndarray:
                out = np.empty(len(values), dtype=np.int64)
                for idx, v in enumerate(values):
                    code = soundex(v)
                    out[idx] = table.setdefault(code, len(table))
                return out

            self._sdx_l = encode(self.left)
            self._sdx_r = encode(self.right)
        return self._sdx_l, self._sdx_r

    # -- the 15 methods -------------------------------------------------------------

    def _run_dl(self) -> VJoinResult:
        return self._full_product("DL", self._verify_dl)

    def _run_pdl(self) -> VJoinResult:
        return self._full_product("PDL", self._verify_pdl)

    def _run_ham(self) -> VJoinResult:
        # Per-pair state is a couple of bytes: the big filter chunk wins.
        return self._full_product(
            "Ham",
            lambda ii, jj: hamming_pairs(
                self.codes_l, self.len_l, self.codes_r, self.len_r, ii, jj
            )
            <= self.k,
            chunk=self.filter_chunk,
        )

    def _run_jaro(self) -> VJoinResult:
        # Jaro's per-pair state (match flags + rank buffers) sits
        # between the DP rows and the byte sweeps; 2x the DP chunk is
        # its measured sweet spot.
        return self._full_product(
            "Jaro",
            lambda ii, jj: jaro_pairs(
                self.codes_l, self.len_l, self.codes_r, self.len_r, ii, jj,
                self.variant,
            )
            >= self.theta,
            chunk=self.chunk * 2,
        )

    def _run_wink(self) -> VJoinResult:
        return self._full_product(
            "Wink",
            lambda ii, jj: jaro_winkler_pairs(
                self.codes_l, self.len_l, self.codes_r, self.len_r, ii, jj,
                0.1, self.variant,
            )
            >= self.theta,
            chunk=self.chunk * 2,
        )

    def _run_sdx(self) -> VJoinResult:
        sl, sr = self._sdx_codes()
        return self._full_product(
            "SDX",
            lambda ii, jj: (sl[ii] == sr[jj]) & (sl[ii] != 0),
            chunk=self.filter_chunk,
        )

    def _run_fbf(self) -> VJoinResult:
        return self._filtered("FBF", self._fbf_pairs(), None)

    def _run_fdl(self) -> VJoinResult:
        return self._filtered("FDL", self._fbf_pairs(), self._verify_dl)

    def _run_fpdl(self) -> VJoinResult:
        return self._filtered("FPDL", self._fbf_pairs(), self._verify_pdl)

    def _run_lf(self) -> VJoinResult:
        return self._filtered("LF", self._length_pairs(), None)

    def _run_ldl(self) -> VJoinResult:
        return self._filtered("LDL", self._length_pairs(), self._verify_dl)

    def _run_lpdl(self) -> VJoinResult:
        return self._filtered("LPDL", self._length_pairs(), self._verify_pdl)

    def _run_lfbf(self) -> VJoinResult:
        return self._filtered("LFBF", self._length_then_fbf_pairs(), None)

    def _run_lfdl(self) -> VJoinResult:
        return self._filtered("LFDL", self._length_then_fbf_pairs(), self._verify_dl)

    def _run_lfpdl(self) -> VJoinResult:
        return self._filtered(
            "LFPDL", self._length_then_fbf_pairs(), self._verify_pdl
        )


class ChunkedJoin(VectorEngine):
    """Deprecated alias for :class:`VectorEngine`.

    Kept so pre-planner code importing ``ChunkedJoin`` keeps working;
    new code should go through :func:`repro.join` or
    :class:`repro.core.plan.JoinPlanner` with ``backend="vectorized"``.
    """

    def __init__(self, *args, **kwargs):
        warn_once(
            "parallel.chunked.ChunkedJoin",
            "ChunkedJoin is deprecated; use repro.join(left, right, method, "
            "backend='vectorized') or repro.core.plan.JoinPlanner (the class "
            "itself now lives on as repro.parallel.chunked.VectorEngine)",
        )
        super().__init__(*args, **kwargs)
