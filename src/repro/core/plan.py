"""The join planner: candidate generation × execution backends.

The paper's driver (Algorithm 7) walks the full ``S x T`` product and
filters per pair, while sub-quadratic structures — the FBF signature
index, length bucketing, key blocking — can skip most of it.  This
module decouples the two halves every related system (PASS-JOIN,
py_stringsimjoin) decouples:

* a :class:`CandidateGenerator` decides *which pairs to look at* —
  :class:`AllPairsGenerator` (the paper's product),
  :class:`LengthBucketGenerator` (length-window group products),
  :class:`FBFIndexGenerator` (bucket + signature filtering via
  :class:`repro.core.index.FBFIndex`),
  :class:`PassJoinGenerator` (PASS-JOIN segment partition index,
  :mod:`repro.core.passjoin`),
  :class:`PrefixQgramGenerator` (q-gram prefix + position inverted
  index, :mod:`repro.core.prefix`), or
  :class:`BlockingKeyGenerator` (traditional key blocking — *lossy*,
  never auto-picked);
* an :class:`ExecutionBackend` decides *how to verify them* —
  ``scalar`` (the reference loop), ``vectorized`` (NumPy chunks),
  ``native`` (the same chunks over compiled kernels), or ``hybrid``
  (the chunk kernels over a shared-memory worker pool — see
  :mod:`repro.parallel.shm`);
* :class:`JoinPlanner` composes one of each from dataset size, the
  method spec and ``k`` via a small cost model, with explicit overrides
  for benchmarks, and runs the plan to a unified
  :class:`repro.core.join.JoinResult`.

**Safety.**  A generator is *safe* for a method when every pair the
method would match is guaranteed to be emitted.  The length window is
implied by edit-bounded verifiers (``dl``/``pdl``/``ham`` — padded
Hamming upper-bounds edit distance) and by an explicit length filter;
the FBF bound additionally requires an edit-bounded verifier or the
method's own ``fbf`` filter.  Unsafe combinations are never auto-picked;
an explicit override runs them anyway (with a log warning) so the
benchmark suite can measure blocking's recall loss.

**Funnel accounting.**  Every plan satisfies the conservation invariant
of :mod:`repro.obs`: the backend counts the candidates it actually saw,
and for non-full-product plans the planner records the generator as the
funnel's first stage (``tested`` = full product, ``passed`` = emitted
candidates) and credits the skipped pairs as considered-and-rejected —
so an index-backed plan *reports* its reduction exactly where a filter
reports its rejections.

**Multiplicity.**  Demographic workloads are heavily duplicated, so the
planner composes the :mod:`repro.core.multiplicity` layer in front of
any (generator, backend) pair: ``collapse`` runs the whole funnel on
the unique-value product with per-pair weights keeping every counter in
original-pair units; self-joins (same dataset on both sides, detected
or forced with ``self_join=True``) enumerate only the ``i <= j``
triangle of the unique product; and a bounded verification memo lets
the scalar backend verify each distinct string pair once on
uncollapsed duplicate-bearing plans.  All of it is
bit-identical to the uncollapsed plan (asserted by the equivalence
suite) — only the enumerated-pair cost changes.

Quickstart::

    from repro import join

    result = join(left, right, "FPDL", k=1)          # planned
    result = join(left, right, "DL", generator="all-pairs",
                  backend="scalar")                  # forced reference
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.join import JoinResult, _scalar_join
from repro.core.matchers import MethodSpec, build_matcher, method_registry
from repro.core.multiplicity import (
    CollapsedJoinResult,
    CollapsedSide,
    PairWeighter,
    VerificationMemo,
    estimate_uniqueness,
    expand_rows,
    positional_diagonal,
)
from repro.core.signatures import detect_kind, scheme_for
from repro.native import available as native_available
from repro.native import kind as native_kind
from repro.native import resolve_kernels
from repro.obs.log import get_logger
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.chunked import VectorEngine
from repro.parallel.partition import iter_pair_blocks
from repro.parallel.prepared import PreparedSide, SharedPair, shared_scheme

__all__ = [
    "EDIT_BOUNDED",
    "GENERATOR_NAMES",
    "GENERATOR_FACTORIES",
    "GENERATOR_SUMMARIES",
    "GeneratorCost",
    "BACKEND_NAMES",
    "CandidateGenerator",
    "CandidateStream",
    "AllPairsGenerator",
    "LengthBucketGenerator",
    "FBFIndexGenerator",
    "PassJoinGenerator",
    "PrefixQgramGenerator",
    "BlockingKeyGenerator",
    "ExecutionBackend",
    "HybridBackend",
    "NativeBackend",
    "JoinPlan",
    "JoinPlanner",
    "join",
]

_log = get_logger("core.plan")

#: Verifiers for which ``match(s, t)`` implies edit distance <= k, hence
#: ``|len(s) - len(t)| <= k`` and the FBF diff-bits bound — the two
#: implications the pruning generators rely on.  Jaro/Wink/SDX bound
#: neither; padded Hamming counts overhang positions as mismatches, so
#: ``Ham <= k`` does imply both.
EDIT_BOUNDED = frozenset({"dl", "pdl", "ham"})

BACKEND_NAMES = ("scalar", "vectorized", "hybrid", "native")

Block = tuple[np.ndarray, np.ndarray]

# -- cost model --------------------------------------------------------------
# Size thresholds (pairs in the full product unless noted):
#: pairs per candidate block a generator yields
_BLOCK_PAIRS = 1 << 20
#: at or below this product the scalar loop beats the compiled kernels'
#: setup (measured crossover between 64 and 96 pairs, FPDL at k = 1) ...
_SCALAR_MAX_PAIRS = 1 << 6
#: ... and, with no compiled provider, NumPy's (between 256 and 512)
_SCALAR_MAX_PAIRS_NUMPY = 1 << 8
#: below this product no index build amortizes: all-pairs
_INDEX_MIN_PAIRS = 1 << 20
#: with workers > 1, from this product on the shared-memory pool amortizes
_HYBRID_MIN_PAIRS = 1 << 22
#: above this k every pruning structure degrades: all-pairs
_MAX_INDEX_K = 4
#: distinct value pairs one verification memo holds
_MEMO_CAPACITY = 1 << 16
#: a two-dataset join collapses to unique values from this product on ...
_COLLAPSE_MIN_PAIRS = 1 << 20
#: ... when the sampled unique product is at most this share of the full one
_COLLAPSE_AUTO_RATIO = 0.5

# Pair-unit costs:
# 1.0 pair-unit = one gathered candidate flowing through the vectorized
# filter + verify funnel; everything else is calibrated relative to it
# from the n=1e4-1e5 LN ablations.  Dense all-pairs blocks avoid the
# gather, signature probes inside length windows touch two packed words,
# and index builds/probes are per-string NumPy sweeps.
_COST_DENSE = 0.35
_COST_WINDOW = 1.0
_COST_SIG_PROBE = 0.15
_COST_BUILD_FBF = 6.0
_COST_BUILD_SEG = 8.0
_COST_BUILD_GRAM = 14.0
_COST_PROBE_SEG = 4.0
_COST_PROBE_GRAM = 10.0
# Each inverted-list collision costs more than a verified candidate:
# range expansion, the dedup sort, and the downstream verify all touch
# it (measured ~3x on the 1e5 LN ablation, where k=2 emits 5e8).
_COST_COLLISION_SEG = 3.0
_COST_COLLISION_GRAM = 2.0


# ---------------------------------------------------------------------------
# Candidate generators
# ---------------------------------------------------------------------------


class CandidateGenerator:
    """Protocol: decide which ``(i, j)`` pairs the backend verifies.

    ``blocks(planner)`` yields ``(ii, jj)`` index-array pairs; a
    generator with ``is_full_product`` set never materializes them —
    backends use their native full-product paths instead.
    """

    name = "generator"
    #: covers the whole product (backends may take their dense paths)
    is_full_product = False
    #: guaranteed to emit every pair any method could match
    lossless = True
    #: one-line description for --help and --plan output
    summary = ""
    #: what a method must provide for this generator to be safe
    requirement = "nothing"

    def is_safe_for(self, spec: MethodSpec) -> bool:
        """May this generator prune without dropping matches of ``spec``?"""
        raise NotImplementedError

    def blocks(self, planner: "JoinPlanner") -> Iterator[Block]:
        raise NotImplementedError

    def estimate_cost(
        self, planner: "JoinPlanner", spec: MethodSpec
    ) -> tuple[float, str]:
        """(pair-unit cost estimate, one-line how) for the cost model."""
        raise NotImplementedError


class AllPairsGenerator(CandidateGenerator):
    """The paper's full Cartesian product — safe for everything."""

    name = "all-pairs"
    is_full_product = True
    summary = "full Cartesian product (the paper's driver; always safe)"

    def is_safe_for(self, spec: MethodSpec) -> bool:
        return True

    def blocks(self, planner: "JoinPlanner") -> Iterator[Block]:
        return iter_pair_blocks(
            len(planner.left), len(planner.right), _BLOCK_PAIRS
        )

    def estimate_cost(self, planner, spec):
        product = len(planner.left) * len(planner.right)
        return product * _COST_DENSE, f"dense product of {product:,} pairs"


class LengthBucketGenerator(CandidateGenerator):
    """Group products whose lengths differ by at most ``k``.

    The length filter at *group* granularity: each side is bucketed by
    string length once, and only bucket pairs within the ``k`` window
    produce candidates — incompatible bucket products are skipped
    wholesale, never enumerated.
    """

    name = "length-bucket"
    summary = "length-window bucket products"
    requirement = (
        "an edit-bounded verifier (dl/pdl/ham) or the method's own "
        "length filter"
    )

    def is_safe_for(self, spec: MethodSpec) -> bool:
        return spec.verifier in EDIT_BOUNDED or "length" in spec.filters

    def estimate_cost(self, planner, spec):
        window = planner.window_pairs()
        return window * _COST_WINDOW, f"{window:,} length-window pairs"

    def blocks(self, planner: "JoinPlanner") -> Iterator[Block]:
        groups_l, groups_r = planner.length_groups()
        for lv, left_idx in groups_l.items():
            right_parts = [
                idx for rv, idx in groups_r.items() if abs(lv - rv) <= planner.k
            ]
            if not right_parts:
                continue
            right_idx = np.concatenate(right_parts)
            rows = max(1, _BLOCK_PAIRS // max(1, len(right_idx)))
            for r0 in range(0, len(left_idx), rows):
                chunk = left_idx[r0 : r0 + rows]
                yield (
                    np.repeat(chunk, len(right_idx)),
                    np.tile(right_idx, len(chunk)),
                )


class FBFIndexGenerator(CandidateGenerator):
    """Bucket + FBF-signature pruning via :class:`FBFIndex`.

    The right side is indexed once (length buckets holding packed
    signature matrices); each left string probes only its length window
    and keeps signature-compatible entries.  Unlike :meth:`FBFIndex.
    search`, empty strings and length-0 buckets are included — whether
    empties match is the verifier's decision, not the generator's.
    """

    name = "fbf-index"
    summary = "FBF signature probes inside length windows"
    requirement = (
        "an edit-bounded verifier (dl/pdl/ham) or the method's own "
        "length+fbf filters"
    )

    def is_safe_for(self, spec: MethodSpec) -> bool:
        if spec.verifier in EDIT_BOUNDED:
            return True
        return "length" in spec.filters and "fbf" in spec.filters

    def blocks(self, planner: "JoinPlanner") -> Iterator[Block]:
        return planner.index().candidate_blocks(
            planner.left, planner.k, max_pairs=_BLOCK_PAIRS
        )

    def estimate_cost(self, planner, spec):
        window = planner.window_pairs()
        cost = (
            len(planner.right) * _COST_BUILD_FBF + window * _COST_SIG_PROBE
        )
        return cost, f"signature probes over {window:,} window pairs"


class PassJoinGenerator(CandidateGenerator):
    """PASS-JOIN segment partition index (:mod:`repro.core.passjoin`).

    Exact for edit-bounded verifiers: candidates come from inverted
    segment-index collisions, so generation cost tracks collisions, not
    the n x m product.  OSA-complete via boundary-transposition probe
    variants (see the module docstring).
    """

    name = "pass-join"
    summary = "PASS-JOIN segment partition index (exact, sub-quadratic)"
    requirement = "an edit-bounded verifier (dl/pdl/ham)"

    def is_safe_for(self, spec: MethodSpec) -> bool:
        return spec.verifier in EDIT_BOUNDED

    def blocks(self, planner: "JoinPlanner") -> Iterator[Block]:
        return planner.passjoin_index().candidate_blocks(
            planner.left, max_pairs=_BLOCK_PAIRS
        )

    def estimate_cost(self, planner, spec):
        emitted = planner.sampled_emit("pass-join")
        cost = (
            len(planner.right) * _COST_BUILD_SEG
            + len(planner.left) * _COST_PROBE_SEG
            + emitted * _COST_COLLISION_SEG
        )
        return cost, f"~{emitted:,.0f} sampled segment collisions"


class PrefixQgramGenerator(CandidateGenerator):
    """q-gram prefix + position filter (:mod:`repro.core.prefix`).

    Exact for edit-bounded verifiers; generation cost tracks
    inverted-list collisions of the rarest-first gram prefixes.
    """

    name = "prefix"
    summary = "q-gram prefix+position inverted index (exact, sub-quadratic)"
    requirement = "an edit-bounded verifier (dl/pdl/ham)"

    def is_safe_for(self, spec: MethodSpec) -> bool:
        return spec.verifier in EDIT_BOUNDED

    def blocks(self, planner: "JoinPlanner") -> Iterator[Block]:
        return planner.prefix_index().candidate_blocks(
            planner.left, max_pairs=_BLOCK_PAIRS
        )

    def estimate_cost(self, planner, spec):
        emitted = planner.sampled_emit("prefix")
        cost = (
            len(planner.right) * _COST_BUILD_GRAM
            + len(planner.left) * _COST_PROBE_GRAM
            + emitted * _COST_COLLISION_GRAM
        )
        return cost, f"~{emitted:,.0f} sampled gram collisions"


class BlockingKeyGenerator(CandidateGenerator):
    """Traditional key blocking as a candidate generator.

    Wraps any object with the :class:`repro.linkage.blocking.
    BlockingMethod` shape (``name``, ``pairs``, ``pairs_observed``) —
    duck-typed so this module never imports the linkage layer.  Key
    blocking is **lossy** (a key error silently drops a true match: the
    paper's core argument against it), so the planner never auto-picks
    it; it exists for explicit use, the linkage engine, and the
    completeness benchmarks.

    ``keys`` override what the blocking method sees per side; by default
    the joined strings are their own keys.
    """

    is_full_product = False
    lossless = False
    summary = "traditional key blocking (lossy — never auto-picked)"
    requirement = "nothing — key blocking is lossy by design"

    def __init__(
        self,
        method,
        *,
        key_left: Sequence[str] | None = None,
        key_right: Sequence[str] | None = None,
        buffer_pairs: int = 1 << 16,
    ):
        self.method = method
        self.name = f"blocking:{getattr(method, 'name', 'custom')}"
        self.key_left = key_left
        self.key_right = key_right
        self.buffer_pairs = buffer_pairs

    def is_safe_for(self, spec: MethodSpec) -> bool:
        return False

    def key_pairs(
        self, left: Sequence[str], right: Sequence[str]
    ) -> Iterator[tuple[int, int]]:
        """The wrapped method's raw pair stream (linkage-engine entry)."""
        return self.method.pairs(left, right)

    def key_pairs_observed(
        self, left: Sequence[str], right: Sequence[str], collector
    ) -> Iterator[tuple[int, int]]:
        """Pair stream with the method's own funnel-stage accounting."""
        return self.method.pairs_observed(left, right, collector)

    def blocks(self, planner: "JoinPlanner") -> Iterator[Block]:
        left = self.key_left if self.key_left is not None else planner.left
        right = self.key_right if self.key_right is not None else planner.right
        buf_i: list[int] = []
        buf_j: list[int] = []
        for i, j in self.method.pairs(left, right):
            buf_i.append(i)
            buf_j.append(j)
            if len(buf_i) >= self.buffer_pairs:
                yield (
                    np.asarray(buf_i, dtype=np.int64),
                    np.asarray(buf_j, dtype=np.int64),
                )
                buf_i, buf_j = [], []
        if buf_i:
            yield (
                np.asarray(buf_i, dtype=np.int64),
                np.asarray(buf_j, dtype=np.int64),
            )

    def estimate_cost(self, planner, spec):
        return float("inf"), "lossy by design — never auto-picked"


def _default_blocking() -> BlockingKeyGenerator:
    """The registry's ``"blocking"`` entry: Soundex standard blocking
    (the configuration the CLI and the recall benchmarks use).  Lazy so
    the plan layer never imports the linkage layer unless asked."""
    from repro.distance.soundex import soundex
    from repro.linkage.blocking import StandardBlocking

    return BlockingKeyGenerator(StandardBlocking(key=soundex))


_default_blocking.summary = BlockingKeyGenerator.summary

#: name -> zero-arg factory for every registered generator.  The CLI
#: derives its ``--generator`` choices and help text from this mapping,
#: and :meth:`JoinPlanner.generator` instantiates entries lazily — so a
#: new generator registers here once and appears everywhere.
GENERATOR_FACTORIES: dict[str, type | object] = {
    "all-pairs": AllPairsGenerator,
    "length-bucket": LengthBucketGenerator,
    "fbf-index": FBFIndexGenerator,
    "pass-join": PassJoinGenerator,
    "prefix": PrefixQgramGenerator,
    "blocking": _default_blocking,
}

GENERATOR_NAMES = tuple(GENERATOR_FACTORIES)

GENERATOR_SUMMARIES = {
    name: factory.summary for name, factory in GENERATOR_FACTORIES.items()
}


@dataclass(frozen=True)
class GeneratorCost:
    """One generator's cost-model score for a method (see
    :meth:`JoinPlanner.generator_costs`)."""

    name: str
    generator: CandidateGenerator
    #: estimated pair-units; ``inf`` for lossy generators
    cost: float
    #: may the cost model pick it (lossless and safe for the method)?
    safe: bool
    detail: str


class CandidateStream:
    """A plan's candidate blocks on their way to the backend.

    Counts what the generator emitted — pairs, or original-pair weight
    under ``weighter`` — so the planner can credit the generator stage
    with the full product and the skipped pairs.  A symmetric weighter
    enumerates the ``i <= j`` triangle of a self-join, so the stream
    drops the other half first.  A backend that generates candidates
    itself (the engine or the hybrid pool probing PASS-JOIN) reads
    ``generator`` instead of iterating, and adds what it generated to
    ``emitted``.
    """

    def __init__(
        self,
        generator: CandidateGenerator,
        planner: "JoinPlanner",
        weighter: PairWeighter | None = None,
    ):
        self.generator = generator
        self.planner = planner
        self.weighter = weighter
        self.emitted = 0

    def __iter__(self) -> Iterator[Block]:
        w = self.weighter
        for ii, jj in self.generator.blocks(self.planner):
            if w is None:
                self.emitted += len(ii)
                yield ii, jj
                continue
            if w.symmetric:
                keep = ii <= jj
                ii, jj = ii[keep], jj[keep]
            if len(ii) == 0:
                continue
            self.emitted += w.total(ii, jj)
            yield ii, jj


# ---------------------------------------------------------------------------
# Execution backends
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """Protocol: verify a candidate stream (or the full product)."""

    name = "backend"

    def run(
        self,
        planner: "JoinPlanner",
        method: str,
        blocks: Iterator[Block] | None,
        *,
        collector,
        record_matches: bool,
    ) -> JoinResult:
        """Execute; ``blocks=None`` means the full product (use the
        native dense path)."""
        raise NotImplementedError


def _flatten(blocks: Iterable[Block]) -> Iterator[tuple[int, int]]:
    for ii, jj in blocks:
        yield from zip(ii.tolist(), jj.tolist())


def _probes_passjoin(blocks) -> bool:
    """Whether ``blocks`` is a pass-join plan's stream, which the
    engine backends and the hybrid pool probe instead of draining."""
    return isinstance(blocks, CandidateStream) and isinstance(
        blocks.generator, PassJoinGenerator
    )


class ScalarBackend(ExecutionBackend):
    """The paper-faithful per-pair reference loop."""

    name = "scalar"

    def run(self, planner, method, blocks, *, collector, record_matches):
        matcher = build_matcher(
            method,
            k=planner.k,
            theta=planner.theta,
            scheme=planner.scheme(),
            collector=collector,
        )
        memo = planner.memo_for(method)
        if memo is not None:
            matcher.memo = memo
        result = _scalar_join(
            planner.left,
            planner.right,
            matcher,
            record_matches=record_matches,
            pairs=None if blocks is None else _flatten(blocks),
            collector=collector,
            weighter=planner.weighter,
            self_join=planner.content_equal,
        )
        result.backend = self.name
        return result


class VectorizedBackend(ExecutionBackend):
    """The chunked NumPy engine (:class:`VectorEngine`).

    A pass-join plan's stream is not drained: the engine probes the
    index itself (:meth:`VectorEngine.run_probe`, the loop the hybrid
    pool workers run over their row slices) and the backend credits
    what it emitted to the stream, as :class:`HybridBackend` does.
    """

    name = "vectorized"

    def run(self, planner, method, blocks, *, collector, record_matches):
        engine = planner.engine()
        engine.record_matches = record_matches
        if blocks is None:
            result = engine.run(method, collector=collector)
        elif _probes_passjoin(blocks):
            result, emitted = engine.run_probe(
                method,
                planner.passjoin_index(),
                collector=collector,
                weighter=planner.weighter,
                max_pairs=_BLOCK_PAIRS,
            )
            blocks.emitted += emitted
        else:
            result = engine.run_candidates(
                method, blocks, collector=collector, weighter=planner.weighter
            )
        result.backend = self.name
        return result


class NativeBackend(VectorizedBackend):
    """The vectorized engine with compiled inner kernels.

    Identical dataflow, chunking and funnel accounting to
    :class:`VectorizedBackend` — the planner's cached engine is
    temporarily armed with the :mod:`repro.native` kernel set (the
    compiled ``cc`` provider), which every
    :class:`repro.parallel.kernels.Kernels` the engine builds during the
    run picks up.  It swaps only the innermost loops: the packed
    XOR+popcount candidate scan and pair mask, the batched
    bit-parallel/banded OSA verifier, and the PASS-JOIN probe.
    Decisions are bit-identical by construction (providers must pass
    the native self-check) and pinned by the plan-equivalence suite.
    When no provider is available the run degrades to the plain
    vectorized tier with a once-per-process warning.
    """

    name = "native"

    def run(self, planner, method, blocks, *, collector, record_matches):
        kernels = resolve_kernels("native", warn_key="backend")
        if kernels is None:
            return planner._backends["vectorized"].run(
                planner, method, blocks,
                collector=collector, record_matches=record_matches,
            )
        engine = planner.engine()
        prev = engine._native
        engine._native = kernels
        try:
            return super().run(
                planner, method, blocks,
                collector=collector, record_matches=record_matches,
            )
        finally:
            engine._native = prev


class HybridBackend(ExecutionBackend):
    """Shared-memory worker pool running the vectorized chunk kernels
    (:mod:`repro.parallel.kernels`, the same ones the in-process engine
    runs).

    The planner's sides are published once (its cached
    :meth:`JoinPlanner.shared_datasets`): a side the planner prepared
    itself once per planner, a prepared side passed in once over its
    own lifetime — the left side of such a planner (a serve batch, a
    stream chunk) ships inline with the tasks.  Every run then fans out
    over the process-wide warm pool — workers × SIMD, with the datasets
    crossing the process boundary at most once per pool lifetime.
    Decisions and funnel counters are identical to the scalar reference
    (per-worker collectors merge into the parent's).

    A pass-join plan generates its candidates inside the workers: each
    task probes the PASS-JOIN index with a slice of the published left
    rows and verifies what it found, so the parent never holds the
    candidate pairs.  Every other generator's blocks — and any block
    iterable a caller passes directly — are drained in the parent and
    handed to the pool as candidate slices.
    """

    name = "hybrid"

    def run(self, planner, method, blocks, *, collector, record_matches):
        from repro.parallel import shm

        spec = method_registry()[method]
        datasets = planner.shared_datasets(need_sdx=spec.verifier == "sdx")
        pool = shm.shared_pool(planner.workers)
        source = blocks
        if _probes_passjoin(blocks):
            source = shm.PassJoinProbe(planner.passjoin_index())
        result = shm.run_hybrid(
            pool,
            datasets.left,
            datasets.right,
            method,
            source,
            scheme=planner.scheme(),
            k=planner.k,
            theta=planner.theta,
            self_join=planner.content_equal,
            collector=collector,
            record_matches=record_matches,
            weighter=planner.weighter,
            publications=datasets.publications,
        )
        if source is not blocks:
            blocks.emitted += source.emitted
        result.backend = self.name
        return result


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinPlan:
    """One chosen (generator, backend) composition."""

    method: str
    generator: CandidateGenerator
    backend: ExecutionBackend
    n_left: int
    n_right: int
    reason: str

    @property
    def product(self) -> int:
        return self.n_left * self.n_right

    def describe(self) -> str:
        return (
            f"{self.method}: {self.generator.name} -> {self.backend.name} "
            f"over {self.n_left} x {self.n_right} "
            f"({self.product:,} pairs) [{self.reason}]"
        )


class JoinPlanner:
    """Pick and run a (candidate generator, execution backend) pair.

    One planner is bound to two datasets and the join parameters;
    :meth:`run` executes any registered method under the chosen (or
    overridden) plan.  Each side is a string list or a
    :class:`~repro.parallel.prepared.PreparedSide`; the planner prepares
    a list itself (over its own copy), and uses a prepared side's list
    and signature scheme as they are.  Prepared state — encodings, the
    FBF/PASS-JOIN/prefix indexes, length groups, the shared-memory
    publication — lives on the prepared sides and is built lazily, so
    repeated runs over the same datasets (the experiment harness's
    shape) pay preparation once, and planners over one prepared side
    (serve batches, stream chunks) share it; :meth:`prepare` forces it
    eagerly for timing loops that must exclude it.

    Cost model (see :meth:`plan` and the module's ``_COST_*`` block):
    index-backed candidate generation needs the product to be large
    enough to amortize building the index (``_INDEX_MIN_PAIRS``) and a
    small ``k`` (window width scales bucket probes); the scalar backend
    is only right for products small enough that kernel setup dominates
    (``_SCALAR_MAX_PAIRS`` with a compiled provider,
    ``_SCALAR_MAX_PAIRS_NUMPY`` without); hybrid needs ``workers > 1`` and a product
    that amortizes the pool (``_HYBRID_MIN_PAIRS``).  Products above the
    scalar cutoff prefer the native backend (same dataflow, compiled
    constants) whenever a :mod:`repro.native` provider validated —
    otherwise vectorized.
    """

    def __init__(
        self,
        left: Sequence[str] | PreparedSide,
        right: Sequence[str] | PreparedSide,
        *,
        k: int = 1,
        theta: float = 0.8,
        scheme: str | None = None,
        levels: int = 2,
        workers: int | None = None,
        record_matches: bool = False,
        collector=None,
        collapse: str = "auto",
        self_join: bool | None = None,
        memo: str = "auto",
    ):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if collapse not in ("auto", "on", "off"):
            raise ValueError(
                f"collapse must be 'auto', 'on' or 'off', got {collapse!r}"
            )
        if memo not in ("auto", "on", "off"):
            raise ValueError(
                f"memo must be 'auto', 'on' or 'off', got {memo!r}"
            )
        same_object = right is left
        #: sides passed in prepared; a list gets its own on first use
        self._prep_l = left if isinstance(left, PreparedSide) else None
        self._prep_r = right if isinstance(right, PreparedSide) else None
        #: a planner over a prepared right side ships its left inline
        self._inline_left = self._prep_r is not None and self._prep_l is None
        self.left = list(left) if self._prep_l is None else left.strings
        self.right = (
            self.left
            if same_object
            else list(right) if self._prep_r is None else right.strings
        )
        #: both sides hold the same values (the self-join *condition*);
        #: detected once so backends get value-identity diagonal
        #: semantics without re-comparing datasets per run
        self.content_equal = same_object or (
            len(self.left) == len(self.right) and self.left == self.right
        )
        if self_join and not self.content_equal:
            raise ValueError(
                "self_join=True requires left and right to hold the same "
                "values (the triangular enumeration mirrors every pair)"
            )
        #: use the triangular enumeration strategy (the self-join
        #: *optimization*; diagonal semantics follow the data, not this)
        self.self_join = self.content_equal if self_join is None else bool(self_join)
        self.k = k
        self.theta = theta
        self.levels = levels
        self.workers = workers
        self.record_matches = record_matches
        self.collector = collector
        self.collapse = collapse
        self.memo = memo
        #: per-pair multiplicity weights, set around a collapsed run so
        #: the backends (which only see this planner) pick them up
        self.weighter: PairWeighter | None = None
        self._uniqueness: float | None = None
        self._memos: dict[str, VerificationMemo] = {}
        self._collapsed: tuple[CollapsedSide, CollapsedSide] | None = None
        self._inner: "JoinPlanner" | None = None
        self._kind = scheme
        self._scheme = shared_scheme(left, right)
        self._engine: VectorEngine | None = None
        self._shared: SharedPair | None = None
        self._window_pairs: int | None = None
        self._cost_samples: dict[str, float] = {}
        #: lazily instantiated from GENERATOR_FACTORIES (see generator())
        self._generators: dict[str, CandidateGenerator] = {}
        self._backends = {
            b.name: b
            for b in (
                ScalarBackend(),
                VectorizedBackend(),
                NativeBackend(),
                HybridBackend(),
            )
        }

    # -- prepared state ------------------------------------------------------

    def kind(self) -> str:
        """The FBF signature kind (detected once, like the engines do;
        a prepared side's scheme names it)."""
        if self._kind is None:
            self._kind = (
                detect_kind(list(self.left[:128]) + list(self.right[:128]))
                if self._scheme is None
                else self._scheme.name.rstrip("0123456789x")
            )
        return self._kind

    def scheme(self):
        """The shared signature scheme — one object for matcher, engine
        and index, so FBF decisions agree across every plan."""
        if self._scheme is None:
            self._scheme = scheme_for(self.kind(), self.levels)
        return self._scheme

    def _sides(self) -> tuple[PreparedSide, PreparedSide]:
        """The two prepared sides (one object for a same-object
        self-join), each list side prepared on first use."""
        if self._prep_r is None:
            self._prep_r = PreparedSide(self.right, self.scheme())
        if self._prep_l is None:
            self._prep_l = (
                self._prep_r
                if self.left is self.right
                else PreparedSide(self.left, self.scheme())
            )
        return self._prep_l, self._prep_r

    def engine(self) -> VectorEngine:
        """The vectorized engine over the prepared sides (cached)."""
        if self._engine is None:
            left, right = self._sides()
            self._engine = VectorEngine(
                left,
                right,
                k=self.k,
                theta=self.theta,
                record_matches=self.record_matches,
            )
        return self._engine

    def index(self):
        """The FBF signature index over the right side."""
        return self._sides()[1].fbf_index()

    def passjoin_index(self):
        """The PASS-JOIN segment index over the right side."""
        return self._sides()[1].passjoin_index(self.k)

    def prefix_index(self):
        """The q-gram prefix index over the right side."""
        return self._sides()[1].prefix_index(self.k)

    def generator(self, name: str) -> CandidateGenerator | None:
        """The registered generator instance for ``name`` (lazily built
        from :data:`GENERATOR_FACTORIES`), or ``None`` if unknown."""
        gen = self._generators.get(name)
        if gen is None:
            factory = GENERATOR_FACTORIES.get(name)
            if factory is None:
                return None
            gen = self._generators[name] = factory()
        return gen

    def shared_datasets(self, *, need_sdx: bool = False) -> SharedPair:
        """Both sides as the hybrid pool reads them (cached).

        Repeated hybrid runs over one planner attach to the same
        segments, so the datasets cross the process boundary once; a
        prepared right side passed in keeps one publication across every
        planner over it, and the left side of such a planner ships
        inline.  Soundex ids are added on the first method that needs
        them.
        """
        if self._shared is None:
            left, right = self._sides()
            self._shared = SharedPair(
                left,
                right,
                inline_left=self._inline_left,
                self_join=self.content_equal,
            )
        if need_sdx:
            self._shared.add_sdx()
        return self._shared

    def length_groups(self) -> tuple[dict, dict]:
        """String length -> rows, for each side."""
        left, right = self._sides()
        return left.length_groups(), right.length_groups()

    def prepare(self, backend: str = "vectorized") -> None:
        """Eagerly build the named backend's cached state (timing parity
        with the pre-planner drivers, which prepared outside the clock)."""
        if backend == "vectorized":
            self.engine()
        elif backend == "hybrid":
            self.shared_datasets()
            from repro.parallel import shm

            shm.shared_pool(self.workers).ensure()

    # -- multiplicity layer --------------------------------------------------

    def uniqueness_ratio(self) -> float:
        """Sampled estimate of ``unique product / full product``.

        The product of each side's :func:`estimate_uniqueness`; cached,
        since it both gates auto-collapse and auto-enables the memo.
        """
        if self._uniqueness is None:
            ul = estimate_uniqueness(self.left)
            ur = ul if self.content_equal else estimate_uniqueness(self.right)
            self._uniqueness = ul * ur
        return self._uniqueness

    def collapse_active(self) -> bool:
        """Will plans run on the unique-value product?

        ``"on"``/``"off"`` are honored verbatim.  ``"auto"`` collapses a
        self-join whenever the sampled unique product is at most
        ``_COLLAPSE_AUTO_RATIO`` of the full one; a two-dataset join
        additionally needs a product of at least ``_COLLAPSE_MIN_PAIRS``
        (collapsing pays a dictionary pass per side up front, which tiny
        joins never earn back).
        """
        if self.collapse == "on":
            return True
        if self.collapse == "off":
            return False
        ratio = self.uniqueness_ratio()
        if self.self_join:
            return ratio <= _COLLAPSE_AUTO_RATIO
        product = len(self.left) * len(self.right)
        return product >= _COLLAPSE_MIN_PAIRS and ratio <= _COLLAPSE_AUTO_RATIO

    def _multiplicity_active(self) -> bool:
        """Route through the collapsed path (triangle and/or collapse)?"""
        return self.self_join or self.collapse_active()

    def memo_for(self, method: str) -> VerificationMemo | None:
        """The per-method verification memo, or ``None`` when disabled.

        ``"auto"`` enables the memo only when duplicates were sampled
        (``uniqueness_ratio() < 1``) — on unique data every canonical
        pair arrives once and the cache is pure overhead.  The collapsed
        path disables it outright (its inner planner is built with
        ``memo="off"``): unique-space pairs never repeat either.
        Filter-only methods have no verifier to memoize.
        """
        if self.memo == "off":
            return None
        if self.memo == "auto" and self.uniqueness_ratio() >= 1.0:
            return None
        spec = method_registry().get(method)
        if spec is None or spec.verifier is None:
            return None
        m = self._memos.get(method)
        if m is None:
            m = self._memos[method] = VerificationMemo(_MEMO_CAPACITY)
        return m

    def _collapsed_sides(self) -> tuple[CollapsedSide, CollapsedSide]:
        """The factored sides (shared object for self-joins; identity
        views when the triangle is wanted but collapsing declined)."""
        if self._collapsed is None:
            make = (
                CollapsedSide.from_strings
                if self.collapse_active()
                else CollapsedSide.identity
            )
            cl = make(self.left)
            cr = cl if self.content_equal else make(self.right)
            self._collapsed = (cl, cr)
        return self._collapsed

    def _unique_planner(self) -> "JoinPlanner":
        """The inner planner over unique values.

        Cached: it owns the prepared state (engine, index) of the
        unique-space problem, so repeated runs pay preparation once just
        like the uncollapsed planner does.  Built with ``collapse="off"``
        / ``self_join=False`` / ``memo="off"`` so it never recurses into
        the multiplicity layer; for self-joins both sides are the *same
        object*, which is how the backends detect value-identity
        diagonal semantics.
        """
        if self._inner is None:
            cl, cr = self._collapsed_sides()
            self._inner = JoinPlanner(
                cl.values,
                cl.values if self.content_equal else cr.values,
                k=self.k,
                theta=self.theta,
                scheme=self.kind(),
                levels=self.levels,
                workers=self.workers,
                collapse="off",
                self_join=False,
                memo="off",
            )
            self._inner._scheme = self.scheme()
        return self._inner

    # -- plan selection -----------------------------------------------------

    #: stride-sample sizes for the collision estimates in sampled_emit
    COST_SAMPLE_LEFT = 256
    COST_SAMPLE_RIGHT = 512

    def window_pairs(self) -> int:
        """Exact count of pairs within the ``k`` length window, from the
        per-side length groups (cheap: one ``len()`` pass)."""
        if self._window_pairs is None:
            groups_l, groups_r = self.length_groups()
            self._window_pairs = sum(
                len(rows_l) * len(rows_r)
                for lv, rows_l in groups_l.items()
                for rv, rows_r in groups_r.items()
                if abs(lv - rv) <= self.k
            )
        return self._window_pairs

    def sampled_emit(self, kind: str) -> float:
        """Estimated candidates an inverted index would emit, from a
        stride-sampled build + probe (collisions are a pair-level
        phenomenon, so the sample count scales by both side ratios)."""
        est = self._cost_samples.get(kind)
        if est is None:
            n_l, n_r = len(self.left), len(self.right)
            stride_l = max(1, n_l // self.COST_SAMPLE_LEFT)
            stride_r = max(1, n_r // self.COST_SAMPLE_RIGHT)
            left = self.left[::stride_l]
            right = self.right[::stride_r]
            if kind == "pass-join":
                from repro.core.passjoin import PassJoinIndex

                index = PassJoinIndex(right, k=self.k)
            elif kind == "prefix":
                from repro.core.prefix import PrefixQgramIndex

                index = PrefixQgramIndex(right, k=self.k)
            else:
                raise ValueError(f"no sampler for generator {kind!r}")
            emitted = sum(
                len(qi) for qi, _ in index.candidate_blocks(left)
            )
            scale = (n_l / max(1, len(left))) * (n_r / max(1, len(right)))
            est = self._cost_samples[kind] = emitted * scale
        return est

    def generator_costs(self, method: str) -> list[GeneratorCost]:
        """Every registered generator's cost-model score for ``method``,
        cheapest first (what ``--plan`` prints and auto picks from)."""
        spec = method_registry().get(method)
        if spec is None:
            raise ValueError(f"unknown method {method!r}")
        scores = []
        for name in GENERATOR_NAMES:
            gen = self.generator(name)
            cost, detail = gen.estimate_cost(self, spec)
            safe = gen.lossless and (
                gen.is_full_product or gen.is_safe_for(spec)
            )
            scores.append(GeneratorCost(name, gen, cost, safe, detail))
        return sorted(scores, key=lambda c: (c.cost, c.name))

    def _resolve_generator(
        self, generator, spec: MethodSpec
    ) -> tuple[CandidateGenerator, str]:
        if isinstance(generator, CandidateGenerator):
            return generator, "explicit"
        if generator is not None and generator != "auto":
            gen = self.generator(generator)
            if gen is None:
                raise ValueError(
                    f"unknown generator {generator!r}; expected one of "
                    f"{', '.join(sorted(GENERATOR_NAMES))} or a "
                    "CandidateGenerator instance"
                )
            return gen, "explicit"
        product = len(self.left) * len(self.right)
        if product < _INDEX_MIN_PAIRS or self.k > _MAX_INDEX_K:
            # Small products never amortize an index build (and large k
            # degrades every pruning structure): skip the samplers.
            reason = (
                f"product {product:,} below index threshold "
                f"{_INDEX_MIN_PAIRS:,}"
                if product < _INDEX_MIN_PAIRS
                else f"k={self.k} > {_MAX_INDEX_K}: pruning degrades"
            )
            return self.generator("all-pairs"), reason
        best = next(c for c in self.generator_costs(spec.name) if c.safe)
        return best.generator, (
            f"cost model: {best.name} ~ {best.cost:,.0f} pair-units "
            f"({best.detail})"
        )

    def _resolve_backend(self, backend) -> tuple[ExecutionBackend, str]:
        if isinstance(backend, ExecutionBackend):
            return backend, "explicit"
        if backend is not None and backend != "auto":
            be = self._backends.get(backend)
            if be is None:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of "
                    f"{BACKEND_NAMES} or an ExecutionBackend instance"
                )
            return be, "explicit"
        product = len(self.left) * len(self.right)
        native = native_available()
        scalar_max = _SCALAR_MAX_PAIRS if native else _SCALAR_MAX_PAIRS_NUMPY
        if product <= scalar_max:
            return self._backends["scalar"], (
                f"product {product:,} <= {scalar_max:,}: "
                "kernel setup would dominate"
            )
        # The hybrid pool is only auto-picked when the caller opted into
        # parallelism (workers > 1) and the product amortizes the first
        # publish + spawn; single-worker hybrid is strictly vectorized
        # plus IPC overhead.
        if (
            self.workers
            and self.workers > 1
            and product >= _HYBRID_MIN_PAIRS
        ):
            return self._backends["hybrid"], (
                f"workers={self.workers} and product {product:,} >= "
                f"{_HYBRID_MIN_PAIRS:,}: shared-memory pool amortizes"
            )
        # Same dataflow as vectorized, strictly better constants: prefer
        # the compiled kernels whenever a validated provider loaded.
        if native:
            return self._backends["native"], (
                f"product {product:,} > {scalar_max:,}; "
                f"compiled kernels loaded ({native_kind()})"
            )
        return self._backends["vectorized"], (
            f"product {product:,} > {scalar_max:,}"
        )

    def plan(
        self, method: str, *, generator=None, backend=None
    ) -> JoinPlan:
        """Choose (or honor) the plan for one method, without running it.

        ``generator`` / ``backend`` are names, instances, ``"auto"`` or
        ``None`` (auto).  An explicitly named generator that is unsafe
        for the method is honored — with a warning — so blocking-recall
        experiments stay expressible.
        """
        spec = method_registry().get(method)
        if spec is None:
            raise ValueError(f"unknown method {method!r}")
        if self._multiplicity_active():
            inner = self._unique_planner()
            p = inner.plan(method, generator=generator, backend=backend)
            parts = []
            if self.self_join:
                parts.append("triangular self-join")
            if self.collapse_active():
                parts.append("unique-collapse")
            prefix = " + ".join(parts)
            return JoinPlan(
                method, p.generator, p.backend, p.n_left, p.n_right,
                f"{prefix}: {p.reason}",
            )
        gen, gen_reason = self._resolve_generator(generator, spec)
        be, be_reason = self._resolve_backend(backend)
        if not gen.is_full_product and not gen.is_safe_for(spec):
            _log.warning(
                "generator %s is not safe for %s: the plan may drop matches "
                "(%s)",
                gen.name,
                method,
                "lossy by design"
                if not gen.lossless
                else f"requires {gen.requirement}",
            )
        reason = gen_reason if gen_reason == be_reason else (
            f"{gen_reason}; {be_reason}"
        )
        return JoinPlan(method, gen, be, len(self.left), len(self.right), reason)

    # -- execution ----------------------------------------------------------

    def run(
        self,
        method: str,
        *,
        generator=None,
        backend=None,
        collector=None,
        record_matches: bool | None = None,
    ) -> JoinResult:
        """Plan and execute one method; returns the unified result.

        The funnel (when a collector is given) satisfies conservation
        for every plan: non-full-product generators appear as the first
        stage, with the pairs they never emitted counted as considered
        and rejected there.
        """
        obs = collector if collector else (
            self.collector if self.collector else NULL_COLLECTOR
        )
        record = self.record_matches if record_matches is None else record_matches
        if self._multiplicity_active():
            return self._run_collapsed(
                method, generator=generator, backend=backend,
                obs=obs, record=record,
            )
        plan = self.plan(method, generator=generator, backend=backend)
        _log.info("plan %s", plan.describe())
        if obs:
            obs.meta["generator"] = plan.generator.name
            obs.meta["backend"] = plan.backend.name
        if plan.generator.is_full_product:
            result = plan.backend.run(
                self,
                method,
                None,
                collector=obs if obs else None,
                record_matches=record,
            )
        else:
            stream = CandidateStream(plan.generator, self)
            # Register the generator's stage before the backend creates
            # the filter stages, so the funnel renders in dataflow order.
            if obs:
                obs.stage(plan.generator.name)
            result = plan.backend.run(
                self,
                method,
                stream,
                collector=obs if obs else None,
                record_matches=record,
            )
            if obs:
                # The backend counted the emitted candidates; credit the
                # generator with the full product and the skipped pairs.
                obs.add_stage(plan.generator.name, plan.product, stream.emitted)
                obs.add_pairs(plan.product - stream.emitted)
        result.generator = plan.generator.name
        result.backend = plan.backend.name
        return result

    def _run_collapsed(
        self, method: str, *, generator, backend, obs, record: bool
    ) -> CollapsedJoinResult:
        """Run one method through the multiplicity layer.

        The inner planner's (generator, backend) pair executes over the
        unique-value product — restricted to the ``i <= j`` triangle for
        self-joins — with a :class:`PairWeighter` keeping every counter
        in original-pair units.  The generator is accounted as the
        funnel's first stage against the *original* product, so
        conservation holds exactly as for uncollapsed plans; the skipped
        weight is the enumerated-pair reduction this layer exists for.
        """
        cl, cr = self._collapsed_sides()
        inner = self._unique_planner()
        plan = self.plan(method, generator=generator, backend=backend)
        _log.info("plan %s", plan.describe())
        weighter = PairWeighter(cl.counts, cr.counts, symmetric=self.self_join)
        # Unique-space matches are needed for the lazy expansion and,
        # on two-dataset joins, for the positional diagonal.
        need_matches = record or not self.self_join
        product = len(self.left) * len(self.right)
        if obs:
            obs.meta["generator"] = plan.generator.name
            obs.meta["backend"] = plan.backend.name
            obs.meta["collapse"] = self.collapse_active()
            obs.meta["self_join"] = self.self_join
            # Register the generator's stage before the backend creates
            # the filter stages (dataflow order in the funnel).
            obs.stage(plan.generator.name)
        stream = CandidateStream(plan.generator, inner, weighter)
        inner.weighter = weighter
        try:
            result = plan.backend.run(
                inner,
                method,
                stream,
                collector=obs if obs else None,
                record_matches=need_matches,
            )
        finally:
            inner.weighter = None
        if obs:
            obs.add_stage(plan.generator.name, product, stream.emitted)
            obs.add_pairs(product - stream.emitted)
            # The backend stamped unique-space sizes; restore originals.
            obs.meta["n_left"] = len(self.left)
            obs.meta["n_right"] = len(self.right)
        unique_rows = result.match_rows
        if self.self_join:
            # Unique values are distinct, so the backend's value-identity
            # diagonal is exactly the weighted sum over matched (u, u).
            diagonal = result.diagonal_matches
        else:
            diagonal = positional_diagonal(*unique_rows, cl, cr)
        expander = None
        if record:
            symmetric = self.self_join

            def expander(ui, uj):
                return expand_rows(ui, uj, cl, cr, symmetric=symmetric)

        return CollapsedJoinResult(
            method,
            len(self.left),
            len(self.right),
            match_count=result.match_count,
            diagonal_matches=diagonal,
            verified_pairs=result.verified_pairs,
            pairs_compared=result.pairs_compared,
            generator=plan.generator.name,
            backend=plan.backend.name,
            unique_left=cl.n_unique,
            unique_right=cr.n_unique,
            unique_rows=unique_rows,
            expander=expander,
        )


def join(
    left: Sequence[str],
    right: Sequence[str],
    method: str = "FPDL",
    *,
    k: int = 1,
    theta: float = 0.8,
    scheme: str | None = None,
    generator=None,
    backend=None,
    workers: int | None = None,
    record_matches: bool = False,
    collector=None,
    collapse: str = "auto",
    self_join: bool | None = None,
    **planner_kwargs,
) -> JoinResult:
    """One-shot planned similarity join (the public entry point).

    Builds a :class:`JoinPlanner` and runs ``method`` under the plan its
    cost model picks — or under an explicit ``generator`` / ``backend``
    override.  For repeated joins over the same datasets, hold a
    planner instead.

    ``collapse`` (``"auto"``/``"on"``/``"off"``) controls unique-string
    collapse; ``self_join=True`` forces the triangular enumeration for
    content-equal sides (it is auto-detected when both arguments are the
    same object or hold the same values).  The ``memo`` knob passes
    through ``planner_kwargs``.

    >>> r = join(["123456789"], ["123456780"], "FPDL", k=1, scheme="numeric")
    >>> (r.match_count, r.generator, r.backend)
    (1, 'all-pairs', 'scalar')
    """
    planner = JoinPlanner(
        left,
        right,
        k=k,
        theta=theta,
        scheme=scheme,
        workers=workers,
        record_matches=record_matches,
        collector=collector,
        collapse=collapse,
        self_join=self_join,
        **planner_kwargs,
    )
    return planner.run(method, generator=generator, backend=backend)
