"""The paper's primary contribution: the Fast Bitwise Filter (FBF).

Layout:

* :mod:`repro.core.popcount` — population-count kernels (Wegner's loop from
  the paper's Algorithm 6, table-driven variants, NumPy byte-table batch
  kernel).
* :mod:`repro.core.signatures` — FBF signature generation (Algorithms 4-5
  plus the alphanumeric combination and l-level occurrence vectors).
* :mod:`repro.core.filters` — the FBF filter, length filter and the
  composable filter-chain framework.
* :mod:`repro.core.matchers` — the 14 method stacks of the evaluation
  (DL, PDL, Jaro, Wink, Ham, FDL, FPDL, FBF, LDL, LPDL, LF, LFDL, LFPDL,
  LFBF) behind one factory registry.
* :mod:`repro.core.join` — Algorithm 7 ``MatchStrings``: the all-pairs
  similarity join with pluggable filter/verify stages (now the plan
  layer's scalar backend).
* :mod:`repro.core.plan` — the join planner: candidate generators
  (all-pairs, length buckets, FBF index, key blocking) × execution
  backends (scalar, vectorized, hybrid, native), composed by a cost
  model behind :func:`repro.join`.
* :mod:`repro.core.vectorized` — NumPy batch engines: signature matrices,
  pairwise XOR-popcount candidate generation, chunked banded DP.
"""

from repro.core.filters import (
    FBFFilter,
    FilterChain,
    FilterStats,
    LengthFilter,
    PairFilter,
)
from repro.core.bktree import BKTree
from repro.core.index import FBFIndex
from repro.core.join import JoinResult
from repro.core.plan import JoinPlan, JoinPlanner, join
from repro.core.triejoin import TrieIndex
from repro.core.matchers import (
    METHOD_NAMES,
    MethodSpec,
    PreparedMatcher,
    build_matcher,
    method_registry,
)
from repro.core.popcount import (
    popcount,
    popcount_kernighan,
    popcount_parallel,
    popcount_table8,
    popcount_table16,
)
from repro.core.signatures import (
    SignatureScheme,
    alnum_signature,
    alpha_signature,
    diff_bits,
    find_diff_bits,
    num_signature,
    scheme_for,
    scheme_from_name,
)

__all__ = [
    "BKTree",
    "FBFFilter",
    "FBFIndex",
    "FilterChain",
    "TrieIndex",
    "FilterStats",
    "JoinPlan",
    "JoinPlanner",
    "JoinResult",
    "LengthFilter",
    "METHOD_NAMES",
    "MethodSpec",
    "PairFilter",
    "PreparedMatcher",
    "SignatureScheme",
    "alnum_signature",
    "alpha_signature",
    "build_matcher",
    "diff_bits",
    "find_diff_bits",
    "join",
    "method_registry",
    "num_signature",
    "popcount",
    "popcount_kernighan",
    "popcount_parallel",
    "popcount_table8",
    "popcount_table16",
    "scheme_for",
    "scheme_from_name",
]
