"""repro — reproduction of *A Scalable Tridiagonal Solver for GPUs*
(Hee-Seok Kim, Shengzhao Wu, Li-wen Chang, Wen-mei W. Hwu; ICPP 2011).

The paper's contribution is a hybrid tridiagonal solver for GPUs:
a **tiled parallel-cyclic-reduction (PCR) front-end** streams a large
system through a *buffered sliding window* in shared memory — caching
cross-tile dependencies so nothing is loaded or eliminated twice — and
splits it into ``2^k`` independent interleaved systems; a **thread-level
parallel Thomas (p-Thomas) back-end** then solves those systems with
fully coalesced memory accesses.  The transition point ``k`` adapts to
the problem shape and the hardware (Tables II-III).

This package implements:

* every algorithm involved (Thomas, CR, PCR, RD, tiled PCR with the
  sliding window, p-Thomas, the hybrid, and the published baselines it is
  compared against) — numerically real, in vectorized NumPy;
* a GPU **execution-model simulator** (:mod:`repro.gpusim`) standing in
  for the paper's GTX480: occupancy, coalescing, shared memory, and an
  analytic timing model that reproduces the shape of every figure;
* workload generators, the benchmark harness for every table and figure,
  and analysis utilities.

Quick start
-----------
>>> import numpy as np
>>> import repro
>>> n = 4096
>>> rng = np.random.default_rng(7)
>>> a = rng.standard_normal(n); a[0] = 0.0
>>> c = rng.standard_normal(n); c[-1] = 0.0
>>> b = 4.0 + np.abs(a) + np.abs(c)   # diagonally dominant
>>> d = rng.standard_normal(n)
>>> x = repro.solve(a, b, c, d)       # hybrid tiled-PCR + p-Thomas

Time-stepping loops that solve one matrix against many right-hand
sides should prepare it once (``handle = repro.prepare(a, b, c)``;
``handle.solve(d)``) — or just keep calling ``repro.solve_batch``:
the engine fingerprints coefficients and serves repeats from its
factorization cache automatically (see :mod:`repro.engine.prepared`).
"""

from repro.core import (
    GTX480_HEURISTIC,
    BlockThomasFactorization,
    CyclicSingularError,
    HybridFactorization,
    PentaFactorization,
    ThomasFactorization,
    block_thomas_solve_batch,
    pentadiag_solve_batch,
    HybridReport,
    HybridSolver,
    TiledPCR,
    TransitionHeuristic,
    cr_solve,
    cr_solve_batch,
    pcr_solve,
    pcr_solve_batch,
    rd_solve,
    rd_solve_batch,
    solve,
    solve_batch,
    solve_periodic,
    solve_periodic_batch,
    thomas_solve,
    thomas_solve_batch,
)
from repro.backends import (
    Backend,
    Capabilities,
    PerStepSession,
    RouteDecision,
    SolveTrace,
    SystemDescriptor,
    bind_via,
    get_backend,
    last_trace,
    list_backends,
    register_backend,
)
from repro.autotune import (
    AdaptiveRouter,
    PerformanceModel,
    disable_adaptive_routing,
    enable_adaptive_routing,
)
from repro.engine import (
    BoundSolve,
    ExecutionEngine,
    PreparedPlan,
    SolvePlan,
    default_engine,
    prepare,
)
from repro.service import (
    ServiceConfig,
    ServiceOverloaded,
    SolveService,
    SyncSolveClient,
)
from repro.distributed import DistributedWorkerError, partitioned_solve_reference
from repro.util import BatchTridiagonal, TridiagonalSystem

__version__ = "1.12.0"

__all__ = [
    "solve",
    "solve_batch",
    "solve_periodic",
    "solve_periodic_batch",
    "HybridSolver",
    "HybridReport",
    "TiledPCR",
    "TransitionHeuristic",
    "GTX480_HEURISTIC",
    "thomas_solve",
    "thomas_solve_batch",
    "cr_solve",
    "cr_solve_batch",
    "pcr_solve",
    "pcr_solve_batch",
    "rd_solve",
    "rd_solve_batch",
    "pentadiag_solve_batch",
    "block_thomas_solve_batch",
    "ThomasFactorization",
    "HybridFactorization",
    "CyclicSingularError",
    "PentaFactorization",
    "BlockThomasFactorization",
    "SystemDescriptor",
    "ServiceConfig",
    "ServiceOverloaded",
    "SolveService",
    "SyncSolveClient",
    "DistributedWorkerError",
    "partitioned_solve_reference",
    "BoundSolve",
    "ExecutionEngine",
    "PerStepSession",
    "PreparedPlan",
    "SolvePlan",
    "bind_via",
    "default_engine",
    "prepare",
    "AdaptiveRouter",
    "Backend",
    "Capabilities",
    "PerformanceModel",
    "RouteDecision",
    "SolveTrace",
    "disable_adaptive_routing",
    "enable_adaptive_routing",
    "get_backend",
    "last_trace",
    "list_backends",
    "register_backend",
    "TridiagonalSystem",
    "BatchTridiagonal",
    "__version__",
]
