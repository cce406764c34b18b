"""Distributed N-partition tier: one huge system across many workers.

* :mod:`~repro.distributed.partition` — the slab math: each slab's
  elimination split into a bind half
  (:func:`~repro.distributed.partition.factor_slab`, the interior
  factored on the :data:`~repro.distributed.partition.SLAB_HEURISTIC`
  route — the paper's hybrid for ``M < 32``, Thomas above —
  plus its spike columns) and an RHS-only step half
  (:func:`~repro.distributed.partition.eliminate_slab`), the ``2P``-row reduced
  interface system, vectorized back-substitution, and the in-process
  bitwise reference.
* :mod:`~repro.distributed.pool` — persistent multiprocessing workers
  fed through pickle-free shared-memory arenas.
* :mod:`~repro.distributed.backend` — the ``distributed``
  :class:`~repro.backends.base.Backend` the registry negotiates.
"""

from repro.distributed.backend import DistributedBackend, DistributedBoundSolve
from repro.distributed.partition import (
    effective_ranks,
    partitioned_solve_reference,
    slab_bounds,
)
from repro.distributed.pool import (
    DistributedWorkerError,
    WorkerPool,
    get_pool,
    shutdown_pools,
)

__all__ = [
    "DistributedBackend",
    "DistributedBoundSolve",
    "DistributedWorkerError",
    "WorkerPool",
    "effective_ranks",
    "get_pool",
    "partitioned_solve_reference",
    "shutdown_pools",
    "slab_bounds",
]
