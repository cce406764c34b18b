"""The simulated-GPU backend: real numerics + device-model pricing.

Wraps :class:`~repro.kernels.hybrid_gpu.GpuHybridSolver` behind the
backend protocol so counter/timing reports ride the same interface as
every other solve.  ``execute`` solves the request numerically (through
the engine spine, with the *device* plan's launch parameters) and
prices the same launch on the device model; the resulting trace carries
each kernel stage's **predicted** device time next to the **measured**
NumPy wall time, plus the predicted total.  Cyclic requests price the
Sherman–Morrison pipeline (two inner launches — or the prepared
RHS-only sweep — plus the rank-one correction pair).  ``ranks > 1``
requests run the N-partition pipeline in process and price it as
``P`` devices; they bind a session whose slabs are factored once, so
a periodic request's two inner solves share one set of slabs.

Numerics note: the device planner caps ``k`` by shared-memory capacity
and picks Fig. 11b window counts, so its plan can differ from the
reference heuristic's — results then agree with the other backends to
floating-point tolerance rather than bitwise (the documented-tolerance
path asserted in ``tests/test_backends.py``).
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from repro.backends.base import BackendBase, Capabilities, CyclicSession
from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming
from repro.engine.session import Session
from repro.kernels.hybrid_gpu import GpuHybridSolver

__all__ = ["GpuSimBackend"]

#: engine stages with no device-side counterpart — excluded from the
#: positional measured-vs-predicted kernel pairing
_HOST_STAGES = ("prepare", "fingerprint", "factorize")
_HOST_STAGES_PERIODIC = _HOST_STAGES + ("cyclic-reduce",)


def _effective_ranks(request: SolveRequest) -> int:
    """The rank count gpusim prices ``request`` on (1: one device)."""
    if (
        request.system.kind != "tridiagonal"
        or request.ranks is None
        or request.ranks <= 1
    ):
        return 1
    from repro.distributed.partition import effective_ranks

    return effective_ranks(request.n, request.ranks)


@lru_cache(maxsize=64)
def _distributed_plan_cached(
    m: int, n: int, ranks: int, dtype_bytes: int, device
) -> tuple:
    """Memoized comm-kernel stage plan (DeviceSpec is frozen/hashable)."""
    from repro.kernels.comm_kernel import distributed_plan

    return tuple(
        distributed_plan(m, n, ranks, dtype_bytes, device=device)
    )


class GpuSimBackend(BackendBase):
    """Registry adapter over the simulated-GTX480 hybrid solver."""

    name = "gpusim"
    priority = 10

    def __init__(self, solver: GpuHybridSolver | None = None):
        super().__init__()
        self.solver = solver if solver is not None else GpuHybridSolver()

    def capabilities(self) -> Capabilities:
        caps = getattr(self, "_caps", None)
        if caps is None:
            caps = self._caps = Capabilities(
                simulated=True,
                prepared=True,
                max_ranks=64,
                systems=("tridiagonal", "pentadiagonal", "block"),
                description=(
                    f"engine numerics + {self.solver.device.name} "
                    "device-model pricing — trace shows predicted kernel "
                    "times; prepared solves price the RHS-only kernels; "
                    "ranks>1 prices the N-partitioned multi-device pipeline"
                ),
            )
        return caps

    def _price(self, counters, dtype_bytes: int) -> list:
        """``(kernel name, predicted µs)`` for each ledger on the device."""
        from repro.gpusim.timing import GpuTimingModel

        model = GpuTimingModel(self.solver.device)
        return [
            (c.name, model.time(c, dtype_bytes).total_s * 1e6) for c in counters
        ]

    def _execute_distributed(self, request: SolveRequest) -> SolveOutcome:
        """A ranks one-shot: a transient :meth:`bind` plus one
        instrumented ``step_once``, as the distributed backend runs it."""
        outcome = self.bind(request).step_once()
        self._set_trace(outcome.trace)
        return outcome

    def bind(self, request: SolveRequest):
        """A bound ranks route for ``ranks > 1`` tridiagonal requests.

        Each slab is factored once, at bind (:class:`_RanksSession`); a
        periodic request wraps that session as the inner ``A'`` of a
        :class:`_PricedCyclicSession`, so ``q`` and every ``y`` reuse
        one set of slab factorizations.  Every other request gets the
        generic per-step session, which re-prices each step through
        :meth:`execute`.
        """
        ranks = _effective_ranks(request)
        if ranks == 1:
            return super().bind(request)
        if request.periodic:
            return _PricedCyclicSession(self, request)
        return _RanksSession(self, request, ranks)

    def _execute_banded(self, request: SolveRequest) -> SolveOutcome:
        """Run a penta/block request on the engine and price its sweep."""
        from repro.engine import default_engine
        from repro.kernels.banded_kernel import banded_counters

        dtype_bytes = np.dtype(request.dtype).itemsize
        outcome = default_engine().run(request)
        rhs_only = outcome.trace.rhs_only

        predicted = self._price(
            banded_counters(
                request.system.kind,
                request.m,
                request.n,
                dtype_bytes,
                block_size=request.system.block_size,
                prepared=rhs_only,
                device=self.solver.device,
            ),
            dtype_bytes,
        )
        predicted_total_us = sum(us for _, us in predicted)

        stages = list(outcome.trace.stages)
        kernel_stages = [s for s in stages if s.name not in _HOST_STAGES]
        for stage, (_, us) in zip(kernel_stages, predicted):
            stage.predicted_us = us
        for name, us in predicted[len(kernel_stages):]:
            stages.append(StageTiming(f"{name} (predicted)", 0.0, us))

        trace = self._set_trace(
            SolveTrace(
                backend=request.label or self.name,
                m=request.m,
                n=request.n,
                dtype=request.dtype,
                k=0,
                k_source="banded",
                plan_cache=outcome.trace.plan_cache,
                factorization=outcome.trace.factorization,
                rhs_only=rhs_only,
                system=request.system.kind,
                stages=stages,
                predicted_total_us=predicted_total_us,
            )
        )
        return SolveOutcome(x=outcome.x, trace=trace)

    def execute(self, request: SolveRequest) -> SolveOutcome:
        from repro.engine import default_engine
        from repro.kernels.rhs_kernel import (
            cyclic_correction_counters,
            rhs_only_counters,
        )

        if request.system.kind != "tridiagonal":
            return self._execute_banded(request)

        if _effective_ranks(request) > 1:
            return self._execute_distributed(request)

        dtype_bytes = np.dtype(request.dtype).itemsize
        if request.k is None:
            k, n_windows = self.solver.plan(request.m, request.n, dtype_bytes)
            k_source = "device-plan"
        else:
            k = request.k
            n_windows = self.solver.plan_windows(request.m, request.n, k)
            k_source = "fixed"

        # solve on the engine spine under the *device* plan's launch
        # parameters; the trace it returns carries the measured stages
        outcome = default_engine().run(
            request.replace(
                k=k,
                n_windows=n_windows,
                subtile_scale=self.solver.subtile_scale,
                fuse=self.solver.fuse,
            )
        )
        rhs_only = outcome.trace.rhs_only
        report = self.solver.predict(
            request.m, request.n, dtype_bytes, k=k, n_windows=n_windows
        )

        if rhs_only:
            # the stored factorization skipped elimination — price the
            # RHS-only kernel sequence instead of the full launch
            sweep = self._price(rhs_only_counters(
                request.m, request.n, report.k, dtype_bytes,
                device=self.solver.device,
            ), dtype_bytes)
        if request.periodic:
            correction = self._price(cyclic_correction_counters(
                request.m, request.n, dtype_bytes, device=self.solver.device,
            ), dtype_bytes)
            if rhs_only:
                # prepared cyclic: one RHS-only sweep + the correction pair
                predicted = sweep + correction
            else:
                # unprepared cyclic: the full launch runs twice (y and q
                # inner solves), then the correction pair
                predicted = report.trace_stages() * 2 + correction
        else:
            predicted = sweep if rhs_only else report.trace_stages()
        predicted_total_us = sum(us for _, us in predicted)

        stages = list(outcome.trace.stages)
        # pair measured kernel stages with predicted kernel times
        # positionally (both ledgers follow the same front-end →
        # back-end order); plan/fingerprint/reduction bookkeeping runs
        # host-side and has no device counterpart
        host = _HOST_STAGES_PERIODIC if request.periodic else _HOST_STAGES
        kernel_stages = [s for s in stages if s.name not in host]
        for stage, (_, us) in zip(kernel_stages, predicted):
            stage.predicted_us = us
        for name, us in predicted[len(kernel_stages):]:
            stages.append(StageTiming(f"{name} (predicted)", 0.0, us))

        trace = self._set_trace(
            SolveTrace(
                backend=request.label or self.name,
                m=request.m,
                n=request.n,
                dtype=request.dtype,
                k=report.k,
                k_source=k_source,
                fuse=report.fused,
                n_windows=report.n_windows,
                plan_cache="n/a",
                factorization=outcome.trace.factorization,
                rhs_only=rhs_only,
                periodic=request.periodic,
                stages=stages,
                predicted_total_us=predicted_total_us,
            )
        )
        return SolveOutcome(x=outcome.x, trace=trace)


class _RanksSession(Session):
    """gpusim's bound ranks route: the N-partition pipeline in process.

    Numerics run through the slab functions the distributed backend's
    workers run, so every step is bitwise
    :func:`~repro.distributed.partition.partitioned_solve_reference`.
    Bind transposes the coefficients and runs each slab's bind half
    (:func:`~repro.distributed.partition.factor_slab`) once, timed as
    ``partition``; each step runs the step half — eliminate → reduced
    solve → back-substitution.  ``step_once`` prices that step on the
    device model (:mod:`~repro.kernels.comm_kernel`), which treats the
    ranks as ``P`` concurrent devices exchanging interface rows over a
    latency/bandwidth link; its measured ``comms`` covers the staging
    transposes in and out.
    """

    mode = "distributed"

    def __init__(self, backend: GpuSimBackend, request: SolveRequest, ranks: int):
        from repro.distributed.partition import factor_slab, slab_bounds

        super().__init__(request)
        self.backend = backend
        self.ranks = ranks
        self._predicted = dict(_distributed_plan_cached(
            request.m, request.n, ranks, self._dtype.itemsize,
            backend.solver.device,
        ))
        t0 = time.perf_counter()
        self.bounds = slab_bounds(request.n, ranks)
        at, bt, ct = (
            np.ascontiguousarray(v.T) for v in (request.a, request.b, request.c)
        )
        self._slabs = [
            factor_slab(at[lo:hi], bt[lo:hi], ct[lo:hi]) for lo, hi in self.bounds
        ]
        self._t_partition = time.perf_counter() - t0

    def _pipeline(self, dt, out_t, timings=None) -> None:
        """The ``(N, M)`` right-hand side ``dt`` through eliminate →
        reduced solve → back-substitution into ``out_t``."""
        from repro.distributed.partition import (
            assemble_reduced,
            backsub_slab,
            eliminate_slab,
            solve_reduced,
        )

        t0 = time.perf_counter()
        reps, reduced_rows = [], []
        for slab, (lo, hi) in zip(self._slabs, self.bounds):
            rep, reduced = eliminate_slab(slab, dt[lo:hi])
            reps.append(rep)
            reduced_rows.append(reduced)
        t1 = time.perf_counter()
        xb = solve_reduced(*assemble_reduced(reduced_rows))
        t2 = time.perf_counter()
        for p, (lo, hi) in enumerate(self.bounds):
            backsub_slab(reps[p], xb[:, 2 * p], xb[:, 2 * p + 1], out_t[lo:hi])
        if timings is not None:
            timings += [
                (f"local-eliminate [{self.ranks} ranks]", t1 - t0),
                ("reduced-solve", t2 - t1),
                (f"backsub [{self.ranks} ranks]", time.perf_counter() - t2),
            ]

    def _step(self, d, out) -> None:
        """The pipeline through transpose views of ``d`` and ``out``."""
        self._pipeline(d.T, out.T)

    def _step_t(self, dt, out_t) -> None:
        """The pipeline is transposed-native: no staging copies."""
        self._pipeline(dt, out_t)

    def step_once(self, d=None, out=None) -> SolveOutcome:
        """One instrumented step, each stage beside its prediction."""
        if self.closed:
            raise RuntimeError("session is closed")
        request = self.request
        d, out = self._once_args(d, out)
        t0 = time.perf_counter()
        dt = np.ascontiguousarray(d.T)
        xt = np.empty_like(dt)
        t_staging = time.perf_counter() - t0
        timings = [("partition", self._t_partition)]
        self._pipeline(dt, xt, timings)
        t0 = time.perf_counter()
        if out is None:
            x = np.ascontiguousarray(xt.T)
        else:
            x = out
            np.copyto(x, xt.T)
        timings.append(("comms", t_staging + time.perf_counter() - t0))
        predicted = self._predicted
        trace = SolveTrace(
            backend=request.label or self.backend.name,
            m=request.m,
            n=request.n,
            dtype=request.dtype,
            k=0,
            k_source="fixed",
            ranks=self.ranks,
            plan_cache="n/a",
            factorization="n/a",
            system=request.system.kind,
            stages=[
                StageTiming(name, secs, predicted.get(name))
                for name, secs in timings
            ],
            predicted_total_us=sum(predicted.values()),
        )
        trace.decision = request.decision
        self.backend._set_trace(trace)
        self.steps += 1
        return SolveOutcome(x=x, trace=trace)

    def describe(self) -> dict:
        """Session summary: the common keys, backend and rank count."""
        return {**super().describe(), "backend": self.backend.name, "ranks": self.ranks}


class _PricedCyclicSession(CyclicSession):
    """gpusim's periodic ranks session: the bound Sherman–Morrison
    route, whose instrumented step also prices the correction pair as
    the single-device periodic path does and totals the stage column."""

    def step_once(self, d=None, out=None) -> SolveOutcome:
        from repro.kernels.rhs_kernel import cyclic_correction_counters

        outcome = super().step_once(d, out)
        request = self.request
        dtype_bytes = self._dtype.itemsize
        (_, dot_us), *rest = self.backend._price(
            cyclic_correction_counters(
                request.m, request.n, dtype_bytes,
                device=self.backend.solver.device,
            ),
            dtype_bytes,
        )
        trace = outcome.trace
        trace.stage("cyclic-correction").predicted_us = dot_us
        trace.stages += [
            StageTiming(f"{name} (predicted)", 0.0, us) for name, us in rest
        ]
        trace.predicted_total_us = sum(
            s.predicted_us for s in trace.stages if s.predicted_us is not None
        )
        return outcome
