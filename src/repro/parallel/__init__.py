"""Scaled join drivers (the HPC layer).

The paper's experiments are quadratic joins — 25 million pairs per table
at paper scale — so the harness needs engines faster than one Python
call per pair:

* :mod:`repro.parallel.partition` — pair-space partitioning: rectangular
  blocking of the ``n_left x n_right`` product into cache-sized chunks,
  and balanced work splits for the hybrid pool's tasks.
* :mod:`repro.parallel.kernels` — the chunk kernels every vectorized
  executor runs: one prepared-side layout (codes, lengths, packed
  ``uint64`` signatures), one verifier/filter/diagonal dispatch and one
  funnel tally, over NumPy (:mod:`repro.distance.vectorized`) or the
  compiled :mod:`repro.native` tier.
* :mod:`repro.parallel.prepared` — one prepared dataset side
  (:class:`PreparedSide`): encoded once, with its candidate-generator
  indexes and its shared-memory publication, reused by every join,
  serve batch and stream chunk run over it.
* :mod:`repro.parallel.chunked` — the vectorized join
  (:class:`VectorEngine`): every method stack of the evaluation run
  through those kernels over NumPy pair chunks.  One process, no
  per-pair Python; the plan layer's ``vectorized`` backend.
* :mod:`repro.parallel.shm` — the zero-copy hybrid: encodings are
  published once through ``multiprocessing.shared_memory`` and a
  persistent :class:`WorkerPool` (reused across joins and serve
  batches) runs the same chunk kernels inside each worker; the plan
  layer's ``hybrid`` backend.

All are composed with candidate generators by
:class:`repro.core.plan.JoinPlanner`; the scalar reference loop they
are checked against is :func:`repro.core.join._scalar_join`.
"""

from repro.parallel.chunked import VectorEngine
from repro.parallel.kernels import pack_signatures
from repro.parallel.partition import balanced_splits, iter_pair_blocks
from repro.parallel.prepared import PreparedSide
from repro.parallel.shm import (
    Publication,
    SideArrays,
    WorkerPool,
    close_shared_pools,
    inline_side,
    run_hybrid,
    shared_pool,
)

__all__ = [
    "PreparedSide",
    "Publication",
    "SideArrays",
    "VectorEngine",
    "WorkerPool",
    "balanced_splits",
    "close_shared_pools",
    "inline_side",
    "iter_pair_blocks",
    "pack_signatures",
    "run_hybrid",
    "shared_pool",
]
