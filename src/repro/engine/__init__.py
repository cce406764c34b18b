"""Solve-plan execution engine (plan → workspace → execute).

Freezes the paper's launch-time decisions (transition ``k``, sliding-
window schedule, buffer layout) into cached :class:`SolvePlan` objects,
pools the preallocated workspaces they imply, and executes repeated
solves against them on the calling thread: the batch's ``M`` lanes are
the parallel axis every NumPy call vectorizes over.  Results are
bitwise identical to the single-call
:class:`~repro.core.hybrid.HybridSolver` reference path.

Typical use::

    from repro.engine import default_engine

    eng = default_engine()
    x = eng.solve_batch(a, b, c, d)          # cold: plans + allocates
    x = eng.solve_batch(a, b, c, d)          # warm: reuses both

    handle = eng.prepare(a, b, c)            # factor once…
    x = handle.solve(d)                      # …solve RHS-only forever

Time-stepping loops that own their request can go one layer lower and
bind a session — plan, factorization and workspaces resolved once,
then an allocation-free ``step`` per right-hand side::

    from repro.backends.request import SolveRequest

    session = eng.bind(SolveRequest.build(a, b, c, d))
    for _ in range(steps):
        x = session.step(d)                  # hot loop: no dispatch cost
    session.close()

``repro.solve_batch(..., algorithm="auto")`` routes through
:func:`default_engine` transparently, and by default fingerprints the
coefficients so repeated solves of one matrix hit the factorization
cache on their own (see :mod:`repro.engine.prepared`).
"""

from repro.engine.diskcache import FactorizationDiskCache
from repro.engine.engine import EngineStats, ExecutionEngine, default_engine
from repro.engine.executor import execute_plan
from repro.engine.plan import SolvePlan, build_plan, plan_key
from repro.engine.prepared import (
    CyclicRhsFactorization,
    PreparedPlan,
    ThomasRhsFactorization,
    coefficient_fingerprint,
    prepare,
)
from repro.engine.session import BoundSolve
from repro.engine.workspace import PlanWorkspace, PreparedWorkspace

__all__ = [
    "BoundSolve",
    "CyclicRhsFactorization",
    "EngineStats",
    "ExecutionEngine",
    "FactorizationDiskCache",
    "PlanWorkspace",
    "PreparedPlan",
    "PreparedWorkspace",
    "SolvePlan",
    "ThomasRhsFactorization",
    "build_plan",
    "coefficient_fingerprint",
    "default_engine",
    "execute_plan",
    "plan_key",
    "prepare",
]
