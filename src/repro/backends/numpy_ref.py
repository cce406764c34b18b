"""The reference backend: single-call :class:`HybridSolver`, no caching.

This is the bitwise baseline every other backend is held to.  It
re-plans and re-allocates on every call — exactly the seed repo's
behaviour — which makes it the right backend for cold-path comparisons
(``benchmarks/bench_engine.py``) and the wrong one for hot loops.

Constructing :class:`~repro.core.hybrid.HybridSolver` directly is now
an implementation detail of this module (plus ``core`` internals and
tests); everything else reaches it through the registry or through
:func:`reference_solver`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import BackendBase, Capabilities, CyclicSession
from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming
from repro.core.hybrid import HybridSolver, choose_transition

__all__ = ["NumpyReferenceBackend", "reference_solver"]


def reference_solver(**opts) -> HybridSolver:
    """A configured single-call reference solver (the bitwise baseline).

    Accepts the :class:`~repro.core.hybrid.HybridSolver` knobs
    (``k``, ``heuristic``, ``parallelism``, ``subtile_scale``,
    ``n_windows``, ``fuse``).  Benchmarks and comparison harnesses use
    this instead of constructing ``HybridSolver`` themselves.
    """
    return HybridSolver(**opts)


class NumpyReferenceBackend(BackendBase):
    """Registry adapter over the single-call reference solver."""

    name = "numpy"
    priority = 20

    def capabilities(self) -> Capabilities:
        caps = getattr(self, "_caps", None)
        if caps is None:
            caps = self._caps = Capabilities(
                systems=("tridiagonal", "pentadiagonal", "block"),
                description=(
                    "single-call HybridSolver reference — re-plans and "
                    "re-allocates every call; the bitwise baseline "
                    "(banded systems solve densely)"
                ),
            )
        return caps

    def _execute_banded(self, request: SolveRequest) -> SolveOutcome:
        """Dense-assembly reference for penta/block requests.

        Deliberately *not* the banded elimination: assembling the full
        matrices and calling stacked ``np.linalg.solve`` gives an
        independent oracle the structured sweeps are validated against
        (the same role the single-call hybrid plays for tridiagonal).
        """
        t0 = time.perf_counter()
        if request.system.kind == "pentadiagonal":
            from repro.core.pentadiag import penta_to_dense

            dense = penta_to_dense(
                request.e, request.a, request.b, request.c, request.f
            )
            rhs = request.d
        else:
            from repro.core.blocktridiag import block_to_dense

            dense = block_to_dense(request.a, request.b, request.c)
            rhs = request.d.reshape(request.m, -1)
        t_assemble = time.perf_counter() - t0

        t1 = time.perf_counter()
        x = np.linalg.solve(dense, rhs[..., None])[..., 0]
        x = np.ascontiguousarray(x.reshape(request.d.shape))
        dt = time.perf_counter() - t1
        if request.out is not None:
            request.out[...] = x
            x = request.out
        trace = self._set_trace(
            SolveTrace(
                backend=request.label or self.name,
                m=request.m,
                n=request.n,
                dtype=request.dtype,
                k=0,
                k_source="banded",
                plan_cache="n/a",
                system=request.system.kind,
                stages=[
                    StageTiming("dense-assemble", t_assemble),
                    StageTiming("dense-solve", dt),
                ],
            )
        )
        return SolveOutcome(x=x, trace=trace)

    def execute(self, request: SolveRequest) -> SolveOutcome:
        if request.system.kind != "tridiagonal":
            return self._execute_banded(request)
        if request.periodic:
            # no native cyclic pipeline: a transient bound correction
            outcome = CyclicSession(self, request).step_once()
            self._set_trace(outcome.trace)
            return outcome

        t0 = time.perf_counter()
        k, k_source = choose_transition(request.m, request.n, k=request.k)
        # the paper's schedule: one window, Table I's c = 1
        solver = reference_solver(k=k, fuse=request.fuse)
        t_prepare = time.perf_counter() - t0

        t1 = time.perf_counter()
        x = solver.solve_batch(request.a, request.b, request.c, request.d,
                               check=False)
        dt = time.perf_counter() - t1
        if request.out is not None:
            request.out[...] = x
            x = request.out
        trace = self._set_trace(
            SolveTrace(
                backend=request.label or self.name,
                m=request.m,
                n=request.n,
                dtype=request.dtype,
                k=k,
                k_source=k_source,
                fuse=request.fuse,
                plan_cache="n/a",
                stages=[
                    StageTiming("prepare", t_prepare),
                    StageTiming("hybrid (single-call)", dt),
                ],
            )
        )
        return SolveOutcome(x=x, trace=trace)
