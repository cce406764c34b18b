"""The ``distributed`` backend: one huge system across ``P`` workers.

Splits a single :class:`~repro.backends.request.SolveRequest` into
``P`` contiguous N-slabs, ships each slab to a persistent
:mod:`multiprocessing` worker over pickle-free shared memory, runs the
modified-Thomas elimination locally per slab, gathers the ``2P``-row
reduced interface system, solves it on rank 0 through
:class:`~repro.core.blocktridiag.BlockThomasFactorization` (``B = 1``
fast path), scatters the boundary values back, and lets every worker
back-substitute its interior in parallel.

Negotiation is the normal :class:`~repro.backends.base.Backend`
protocol — ``Capabilities.max_ranks`` advertises the multi-rank axis,
periodic systems ride the generic
:meth:`~repro.backends.base.BackendBase._periodic_fallback` (this
backend is its long-promised non-engine consumer), and ``ranks=1``
short-circuits to the engine's ``k = 0`` route so the single-rank
anchor stays bitwise identical to the engine.  For ``P >= 2`` the
result is bitwise identical to
:func:`~repro.distributed.partition.partitioned_solve_reference` at the
same ``P`` (same functions, same values) and agrees with the global
Thomas solve to reassociation-level rounding.

The phase sequence lives in one place,
:meth:`DistributedBoundSolve._pipeline`.  Time-stepping loops bind
instead of re-executing: :meth:`DistributedBackend.bind` returns a
:class:`DistributedBoundSolve` whose per-step cost is one RHS scatter
plus the pipeline — the coefficient slabs are transposed and shipped
to the workers **once** (``eliminate_slab`` never mutates them), and
the pool's ``epoch`` counter detects interleaved foreign scatters so
sessions sharing the process-wide pool stay correct.  A one-shot
:meth:`DistributedBackend.execute` is a transient bind plus one
instrumented ``step_once``, just as ``ExecutionEngine.run`` is for the
engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import BackendBase, Capabilities
from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming
from repro.distributed.partition import (
    assemble_reduced,
    effective_ranks,
    slab_bounds,
    solve_reduced,
)
from repro.distributed.pool import get_pool

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
                periodic=True,  # via the generic Sherman–Morrison fallback
                max_workers=1,
                max_ranks=MAX_RANKS,
                prepared=False,
                systems=("tridiagonal",),
                description=(
                    "multi-process N-partition solver: modified-Thomas "
                    "slabs + reduced interface system over shared memory"
                ),
            )
        return self._caps

    # -- execution -----------------------------------------------------
    def execute(self, request: SolveRequest) -> SolveOutcome:
        """A one-shot is a transient bind plus one instrumented step."""
        if request.periodic:
            return self._periodic_fallback(request)
        outcome = self._session(request, transient=True).step_once()
        self._set_trace(outcome.trace)
        return outcome

    def bind(self, request: SolveRequest):
        """Native session: coefficients partitioned and shipped once.

        Periodic and RHS-only requests ride the generic
        per-step-dispatch session (the corner-reduce pipeline rebuilds
        per step anyway); everything else gets :meth:`_session`.
        """
        if request.periodic or request.rhs_only:
            return super().bind(request)
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


class DistributedBoundSolve:
    """Bound session over the N-partition pipeline.

    Bind transposes the coefficient slabs once and records the slab
    geometry; the first step attaches the process-wide pool, ships the
    coefficients, and notes the pool :attr:`~WorkerPool.epoch`.  Each
    :meth:`step` then scatters **only the right-hand side** (a strided
    transpose view — the arena assignment is the only copy) and runs
    eliminate → reduced-solve → backsub → gather.  When the epoch moves
    (another solve or session scattered into the shared arenas, or the
    pool was rebuilt after a worker death) the coefficients are
    re-shipped before the step — sessions never trust stale arenas.

    A one-shot solve (:meth:`DistributedBackend.execute`) is a
    transient session and one :meth:`step_once`, so every step —
    :meth:`step`, :meth:`step_t` or :meth:`step_once` — runs the one
    :meth:`_pipeline`, and stepped results are bitwise identical to
    independent one-shot distributed solves.
    """

    mode = "distributed"

    def __init__(self, backend: DistributedBackend, request: SolveRequest, ranks: int):
        self.backend = backend
        self.request = request
        self.ranks = ranks
        self.steps = 0
        self.closed = False
        t0 = time.perf_counter()
        self.bounds = slab_bounds(request.n, ranks)
        self._at = np.ascontiguousarray(request.a.T)
        self._bt = np.ascontiguousarray(request.b.T)
        self._ct = np.ascontiguousarray(request.c.T)
        self._dtype = self._bt.dtype
        self._dshape = (request.m, request.n)
        self._out = None
        self._xt = None
        self.bind_stages = [("partition", time.perf_counter() - t0)]
        self._pool = None
        self._epoch = None

    # -- arena currency ------------------------------------------------
    def _attached_pool(self):
        """The pool with this session's coefficients current in it."""
        pool = self._pool
        if (
            pool is not None
            and not pool.broken
            and pool.epoch == self._epoch
        ):
            return pool
        pool = get_pool(self.ranks, timeout_s=self.backend.timeout_s)
        pool.attach(self.bounds, self.request.m, self._dtype)
        # the RHS slot is overwritten by scatter_rhs before every
        # eliminate, so the d shipped here is a placeholder
        pool.scatter_slabs(self._at, self._bt, self._ct, self._at, self.bounds)
        self._pool = pool
        self._epoch = pool.epoch
        return pool

    def _canon_d(self, d):
        d = np.asarray(d)
        if d.shape != self._dshape:
            raise ValueError(
                f"d has shape {d.shape}, session bound for {self._dshape}"
            )
        if d.dtype != self._dtype:
            d = d.astype(self._dtype)
        return d

    def _pipeline(self, dt, out_t, timings=None):
        """One ``(N, M)`` RHS through scatter → eliminate → reduce →
        backsub, gathered into the ``(N, M)`` array ``out_t``.

        ``dt`` and ``out_t`` may be transpose views of ``(M, N)``
        arrays: the arena copies are the only copies.  ``comms`` covers
        the pool attach (and, when the arenas are stale, the
        coefficient scatter) as well as every RHS/boundary/solution
        transfer.
        """
        t1 = time.perf_counter()
        pool = self._attached_pool()
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

        if timings is not None:
            timings.append(
                (f"local-eliminate [{self.ranks} ranks]", t_eliminate)
            )
            timings.append(("reduced-solve", t_reduced))
            timings.append((f"backsub [{self.ranks} ranks]", t_backsub))
            timings.append(("comms", t_comms))

    # -- execution -----------------------------------------------------
    def step(self, d, out=None):
        """The per-step hot loop: one RHS scatter + the pipeline.

        Returns the session-owned output buffer when ``out`` is omitted
        (reused across steps — copy it if you keep references).
        """
        if self.closed:
            raise RuntimeError("session is closed")
        d = self._canon_d(d)
        if out is None:
            out = self._out
            if out is None:
                out = self._out = np.empty(self._dshape, dtype=self._dtype)
        self._pipeline(d.T, out.T)
        self.steps += 1
        return out

    def step_t(self, dt, out_t=None):
        """Transposed-layout hot step: ``(N, M)`` in, ``(N, M)`` out.

        The distributed pipeline is transposed-native — the arenas hold
        ``(L, M)`` slabs and the gathered solution is ``(N, M)`` — so a
        caller already working in that orientation skips both the RHS
        transpose view and the output transpose copy.  ``out_t``
        defaults to a session-owned buffer (reused across steps — copy
        it if you keep references).
        """
        if self.closed:
            raise RuntimeError("session is closed")
        dt = np.asarray(dt)
        n, m = self.request.n, self.request.m
        if dt.shape != (n, m):
            raise ValueError(
                f"dt has shape {dt.shape}, session bound for {(n, m)}"
            )
        if dt.dtype != self._dtype:
            dt = dt.astype(self._dtype)
        if out_t is None:
            out_t = self._xt
            if out_t is None:
                out_t = self._xt = np.empty((n, m), dtype=self._dtype)
        self._pipeline(dt, out_t)
        self.steps += 1
        return out_t

    def step_once(self, d=None, out=None) -> SolveOutcome:
        """One fully-instrumented step: the one-shot trace schema."""
        request = self.request
        if d is None:
            d = request.d
        if out is None:
            out = request.out
        if out is None:
            out = np.empty(self._dshape, dtype=self._dtype)
        d = self._canon_d(d)
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
    @property
    def m(self) -> int:
        return self.request.m

    @property
    def n(self) -> int:
        return self.request.n

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def describe(self) -> dict:
        """Session summary: mode, geometry, step count."""
        return {
            "mode": self.mode,
            "m": self.request.m,
            "n": self.request.n,
            "dtype": np.dtype(self._dtype).name,
            "ranks": self.ranks,
            "bounds": list(self.bounds),
            "steps": self.steps,
        }

    def close(self) -> None:
        """Drop buffers and forget the pool (arenas stay with the pool)."""
        if self.closed:
            return
        self.closed = True
        self._pool = None
        self._epoch = None
        self._out = None
        self._xt = None

    def __enter__(self) -> "DistributedBoundSolve":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
