"""The ``distributed`` backend: one huge system across ``P`` workers.

Splits a single :class:`~repro.backends.request.SolveRequest` into
``P`` contiguous N-slabs, ships each slab to a persistent
:mod:`multiprocessing` worker over pickle-free shared memory, runs the
slab elimination locally per rank (factored once per coefficient set,
then RHS-only per step), gathers the ``2P``-row
reduced interface system, solves it on rank 0 through
:class:`~repro.core.blocktridiag.BlockThomasFactorization` (``B = 1``
fast path), scatters the boundary values back, and lets every worker
back-substitute its interior in parallel.

Negotiation is the normal :class:`~repro.backends.base.Backend`
protocol — ``Capabilities.max_ranks`` advertises the multi-rank axis,
periodic systems bind a :class:`~repro.backends.base.CyclicSession`
around the ranks (``A'`` factored and ``q`` solved once per session,
then one pipeline plus the rank-one correction per step), and ``ranks=1``
short-circuits to the engine's ``k = 0`` route so the single-rank
anchor stays bitwise identical to the engine.  For ``P >= 2`` the
result is bitwise identical to
:func:`~repro.distributed.partition.partitioned_solve_reference` at the
same ``P`` (same functions, same values) and agrees with the global
Thomas solve to reassociation-level rounding.

The phase sequence lives in one place,
:meth:`DistributedBoundSolve._pipeline`, which holds the pool's lock
from the attach to the gather: threads sharing the process-wide pool
run their pipelines one at a time.  Time-stepping loops bind
instead of re-executing: :meth:`DistributedBackend.bind` returns a
:class:`DistributedBoundSolve` whose per-step cost is one RHS scatter
plus the pipeline — the coefficient slabs are transposed and shipped
to the workers **once** (no phase mutates them), each rank runs the
bind half of its elimination
(:func:`~repro.distributed.partition.factor_slab`) on its first step
and only the RHS-only step half after, and the pool's ``epoch``
counter detects interleaved foreign scatters — the session re-ships
its coefficients and the ranks re-factor — so sessions sharing the
process-wide pool stay correct.  A one-shot
:meth:`DistributedBackend.execute` is a transient bind plus one
instrumented ``step_once``, just as ``ExecutionEngine.run`` is for the
engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import BackendBase, Capabilities, CyclicSession
from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming
from repro.distributed.partition import (
    assemble_reduced,
    effective_ranks,
    slab_bounds,
    slab_interior_k,
    solve_reduced,
)
from repro.distributed.pool import get_pool
from repro.engine.session import Session

__all__ = [
    "DistributedBackend",
    "DistributedBoundSolve",
    "MAX_RANKS",
    "DEFAULT_RANKS",
]

#: Largest rank count the backend will negotiate.
MAX_RANKS = 64

#: Ranks used when the caller names the backend but pins no ``ranks=``.
DEFAULT_RANKS = 2


class DistributedBackend(BackendBase):
    """Multi-process N-partition solver behind the two-method protocol."""

    name = "distributed"
    #: Below the engine (100) so plain ``backend="auto"`` never lands
    #: here; the router's ``route_ranks`` rule (or an explicit
    #: ``ranks>1``) is what brings traffic in.
    priority = 30

    def __init__(
        self,
        *,
        default_ranks: int = DEFAULT_RANKS,
        timeout_s: float | None = None,
    ):
        super().__init__()
        self.default_ranks = int(default_ranks)
        self.timeout_s = timeout_s
        self._caps = None

    def capabilities(self) -> Capabilities:
        if self._caps is None:
            self._caps = Capabilities(
                periodic=True,  # a CyclicSession around the ranks
                max_workers=1,
                max_ranks=MAX_RANKS,
                prepared=False,
                systems=("tridiagonal",),
                description=(
                    "multi-process N-partition solver: slabs factored "
                    "once per rank + reduced interface system over "
                    "shared memory"
                ),
            )
        return self._caps

    # -- execution -----------------------------------------------------
    def execute(self, request: SolveRequest) -> SolveOutcome:
        """A one-shot is a transient bind plus one instrumented step."""
        if request.periodic:
            session = CyclicSession(self, request)
        else:
            session = self._session(request, transient=True)
        outcome = session.step_once()
        self._set_trace(outcome.trace)
        return outcome

    def bind(self, request: SolveRequest):
        """Native session: coefficients partitioned and shipped once.

        A periodic request binds a
        :class:`~repro.backends.base.CyclicSession` whose inner
        session is this backend's :meth:`_session` for the
        corner-reduced ``A'``: the ranks factor ``A'`` once, solve
        ``q`` once, and each step is one RHS-only pipeline plus the
        rank-one correction.
        """
        if request.periodic:
            return CyclicSession(self, request)
        return self._session(request)

    def _session(self, request: SolveRequest, *, transient: bool = False):
        """The session for ``request``'s effective rank count.

        ``ranks=1`` binds the engine's ``k = 0`` route, so the
        single-rank anchor stays bitwise identical to
        ``solve_batch(..., k=0)`` (one slab means no interface system);
        more ranks get a :class:`DistributedBoundSolve`.
        """
        ranks = effective_ranks(request.n, request.ranks or self.default_ranks)
        if ranks == 1:
            from repro.engine import default_engine

            return default_engine().bind(
                request.replace(k=0, label=self.name), transient=transient
            )
        return DistributedBoundSolve(self, request, ranks)


class DistributedBoundSolve(Session):
    """Bound session over the N-partition pipeline.

    Bind transposes the coefficient slabs once and records the slab
    geometry; the first step attaches the process-wide pool, ships the
    coefficients, and notes the pool :attr:`~WorkerPool.epoch`; the
    ranks factor their slabs inside that step's eliminate phase.  Each
    :meth:`step` then scatters **only the right-hand side** (a strided
    transpose view — the arena assignment is the only copy) and runs
    the RHS-only eliminate → reduced-solve → backsub → gather.  When
    the epoch moves (another solve or session scattered into the
    shared arenas, or the pool was rebuilt after a worker death) the
    coefficients are re-shipped and the ranks re-factor before the
    step — sessions never trust stale arenas or factorizations.

    Every step — :meth:`step`, :meth:`step_t` or :meth:`step_once` —
    runs the one :meth:`_pipeline`, holding the pool's lock from the
    attach to the gather, so concurrent solves on the process-wide
    pool (threads, the service's dispatch workers) run one after the
    other instead of interleaving their scatters and phase commands.
    A one-shot solve (:meth:`DistributedBackend.execute`) is a
    transient session and one :meth:`step_once`, so stepped results
    are bitwise identical to independent one-shot distributed solves.
    The input scan, buffers and lifecycle are the
    :class:`~repro.engine.session.Session` contract.
    """

    mode = "distributed"

    def __init__(self, backend: DistributedBackend, request: SolveRequest, ranks: int):
        super().__init__(request)
        self.backend = backend
        self.ranks = ranks
        t0 = time.perf_counter()
        self.bounds = slab_bounds(request.n, ranks)
        self._at = np.ascontiguousarray(request.a.T)
        self._bt = np.ascontiguousarray(request.b.T)
        self._ct = np.ascontiguousarray(request.c.T)
        self.bind_stages = [("partition", time.perf_counter() - t0)]
        # (pool, epoch) whose arenas hold this session's coefficients
        self._attached = None

    # -- arena currency ------------------------------------------------
    def _locked_pool(self):
        """The live pool for this rank count, with its lock held.

        ``get_pool`` replaces a broken pool; one that broke while this
        thread waited for its lock is let go and the next one taken, so
        a step always runs on the pool whose lock it holds.
        """
        while True:
            pool = get_pool(self.ranks, timeout_s=self.backend.timeout_s)
            pool.lock.acquire()
            if not pool.broken:
                return pool
            pool.lock.release()

    def _pipeline(self, dt, out_t, timings=None):
        """One ``(N, M)`` RHS through scatter → eliminate → reduce →
        backsub, gathered into the ``(N, M)`` array ``out_t``.

        ``dt`` and ``out_t`` may be transpose views of ``(M, N)``
        arrays: the arena copies are the only copies.  The pool's lock
        is held throughout.  ``comms`` covers the lock wait and pool
        attach (and, when the arenas are stale, the coefficient
        scatter) as well as every RHS/boundary/solution transfer.  On
        steps that factor — every one-shot, a session's first step and
        the step after a foreign scatter — the ranks' bind half runs
        inside the eliminate phase.
        """
        t1 = time.perf_counter()
        pool = self._locked_pool()
        try:
            if self._attached != (pool, pool.epoch):
                pool.attach(self.bounds, self.request.m, self._dtype)
                # the RHS slot is overwritten by scatter_rhs before every
                # eliminate, so the d shipped here is a placeholder
                pool.scatter_slabs(
                    self._at, self._bt, self._ct, self._at, self.bounds
                )
                self._attached = (pool, pool.epoch)
            pool.scatter_rhs(dt, self.bounds)
            t_comms = time.perf_counter() - t1

            t1 = time.perf_counter()
            pool.eliminate()
            t_eliminate = time.perf_counter() - t1

            t1 = time.perf_counter()
            reduced_rows = pool.gather_reduced()
            t_comms += time.perf_counter() - t1

            t1 = time.perf_counter()
            xb = solve_reduced(*assemble_reduced(reduced_rows))
            t_reduced = time.perf_counter() - t1

            t1 = time.perf_counter()
            pool.scatter_boundary(xb)
            t_comms += time.perf_counter() - t1

            t1 = time.perf_counter()
            pool.backsub()
            t_backsub = time.perf_counter() - t1

            t1 = time.perf_counter()
            pool.gather_solution(out_t, self.bounds)
            t_comms += time.perf_counter() - t1
        finally:
            pool.lock.release()

        if timings is not None:
            timings.append(
                (f"local-eliminate [{self.ranks} ranks]", t_eliminate)
            )
            timings.append(("reduced-solve", t_reduced))
            timings.append((f"backsub [{self.ranks} ranks]", t_backsub))
            timings.append(("comms", t_comms))

    # -- execution -----------------------------------------------------
    def _step(self, d, out) -> None:
        """One RHS scatter + the pipeline, through transpose views."""
        self._pipeline(d.T, out.T)

    def _step_t(self, dt, out_t) -> None:
        """The pipeline is transposed-native — the arenas hold ``(L,
        M)`` slabs and the gathered solution is ``(N, M)`` — so an
        ``(N, M)`` caller skips both transposes."""
        self._pipeline(dt, out_t)

    def step_once(self, d=None, out=None) -> SolveOutcome:
        """One fully-instrumented step: the one-shot trace schema."""
        request = self.request
        d, out = self._once_args(d, out)
        if out is None:
            out = np.empty(self._dshape, dtype=self._dtype)
        timings = list(self.bind_stages)
        self._pipeline(d.T, out.T, timings)
        trace = SolveTrace(
            backend=self.backend.name,
            m=request.m,
            n=request.n,
            dtype=request.dtype,
            k=0,
            k_source="fixed",
            workers=1,
            ranks=self.ranks,
            plan_cache="n/a",
            factorization="n/a",
            system=request.system.kind,
            stages=[StageTiming(name, secs) for name, secs in timings],
        )
        trace.decision = request.decision
        self.backend._set_trace(trace)
        self.steps += 1
        return SolveOutcome(x=out, trace=trace)

    # -- lifecycle -----------------------------------------------------
    def describe(self) -> dict:
        """Session summary: the common keys, geometry and each slab
        interior's ``k`` (0 = Thomas)."""
        m = self.request.m
        return {
            **super().describe(),
            "ranks": self.ranks,
            "bounds": list(self.bounds),
            "slab_k": [slab_interior_k(m, hi - lo) for lo, hi in self.bounds],
        }

    def _release(self) -> None:
        """Forget the pool (the arenas stay with it)."""
        self._attached = None
