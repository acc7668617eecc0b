"""repro — Fast Bitwise Filter (FBF) approximate string matching.

A from-scratch reproduction of *"Understanding Cloud Data Using
Approximate String Matching and Edit Distance"* (Jupin, Shi, Obradovic —
SC 2012): the FBF filter-and-verify system for edit-distance string
matching and the record-linkage pipeline it was built for.

Quickstart::

    from repro import join

    clean = ["123456789", "555443333"]
    dirty = ["123456780", "555443333"]
    result = join(clean, dirty, "FPDL", k=1, scheme="numeric")
    assert result.match_count == 2

:func:`join` plans each call: a candidate generator (all-pairs,
PASS-JOIN, key blocking) picks which pairs to look at, an execution
backend (scalar, vectorized, hybrid) verifies them, and a cost model
composes the two from dataset size — see :mod:`repro.core.plan` for
overrides and :class:`JoinPlanner` for reuse across calls.
Duplicate-heavy inputs are collapsed to their unique values and
self-joins enumerate the pair triangle where it pays
(:mod:`repro.core.multiplicity`), with results bit-identical to the
full product; prepared sides always run the full product.

Package map (details in DESIGN.md):

* :mod:`repro.core` — FBF signatures, filters, the 14 evaluated method
  stacks, the similarity join and the join planner (the paper's
  contribution plus the scaling layer over it).
* :mod:`repro.distance` — the string metrics substrate (DL/OSA, PDL,
  Jaro, Jaro-Winkler, Hamming, Soundex, q-grams) plus vectorized
  pair-batch engines.
* :mod:`repro.data` — calibrated synthetic demographic data and
  single-edit error injection.
* :mod:`repro.linkage` — the record-linkage system (comparators,
  scorers, blocking, engine).
* :mod:`repro.parallel` — scaled join drivers (chunked NumPy engine,
  shared-memory worker pool).
* :mod:`repro.eval` — the paper's experiments, timing protocols and
  table rendering.
* :mod:`repro.serve` — online match serving: mutable indexes with
  stable ids, query micro-batching, result caching and snapshots
  (``repro-fbf serve``).
* :mod:`repro.stream` — out-of-core streaming joins: chunked disk
  scans broadcast-joined against an in-memory roster, with disk spill
  and crash-resumable checkpoints (``repro-fbf join-stream``).
* :mod:`repro.obs` — observability: filter-funnel counters, wall-time
  spans, exporters and the ``repro.*`` logger hierarchy.
"""

from repro.core.filters import FBFFilter, FilterChain, LengthFilter
from repro.core.join import JoinResult
from repro.core.matchers import METHOD_NAMES, build_matcher
from repro.core.multiplicity import (
    CollapsedSide,
    PairWeighter,
)
from repro.core.plan import JoinPlanner, join
from repro.core.signatures import (
    SignatureScheme,
    alnum_signature,
    alpha_signature,
    diff_bits,
    find_diff_bits,
    num_signature,
    scheme_for,
)
from repro.distance import (
    damerau_levenshtein,
    hamming,
    jaro,
    jaro_winkler,
    levenshtein,
    pdl,
    soundex,
)
from repro.obs import StatsCollector, render_funnel
from repro.parallel.chunked import VectorEngine
from repro.serve import MatchService, MutableIndex, QueryResult
from repro.stream import StreamResult, join_stream

__version__ = "1.9.0"

__all__ = [
    "CollapsedSide",
    "FBFFilter",
    "FilterChain",
    "JoinPlanner",
    "JoinResult",
    "LengthFilter",
    "METHOD_NAMES",
    "MatchService",
    "MutableIndex",
    "PairWeighter",
    "QueryResult",
    "SignatureScheme",
    "StatsCollector",
    "StreamResult",
    "VectorEngine",
    "__version__",
    "alnum_signature",
    "alpha_signature",
    "build_matcher",
    "damerau_levenshtein",
    "diff_bits",
    "find_diff_bits",
    "hamming",
    "jaro",
    "jaro_winkler",
    "join",
    "join_stream",
    "levenshtein",
    "num_signature",
    "pdl",
    "render_funnel",
    "scheme_for",
    "soundex",
]
