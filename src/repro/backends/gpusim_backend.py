"""The simulated-GPU backend: real numerics + device-model pricing.

Wraps :class:`~repro.kernels.hybrid_gpu.GpuHybridSolver` behind the
backend protocol so counter/timing reports ride the same interface as
every other solve.  ``execute`` solves the request numerically (through
the engine spine, with the *device* plan's launch parameters) and
prices the same launch on the device model; the resulting trace carries
each kernel stage's **predicted** device time next to the **measured**
NumPy wall time, plus the predicted total.  Cyclic requests price the
Sherman–Morrison pipeline (two inner launches — or the prepared
RHS-only sweep — plus the rank-one correction pair).

Numerics note: the device planner caps ``k`` by shared-memory capacity
and picks Fig. 11b window counts, so its plan can differ from the
reference heuristic's — results then agree with the other backends to
floating-point tolerance rather than bitwise (the documented-tolerance
path asserted in ``tests/test_backends.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.backends.base import BackendBase, Capabilities
from repro.backends.request import SolveOutcome, SolveRequest
from repro.backends.trace import SolveTrace, StageTiming
from repro.kernels.hybrid_gpu import GpuHybridSolver

__all__ = ["GpuSimBackend"]

#: engine stages with no device-side counterpart — excluded from the
#: positional measured-vs-predicted kernel pairing
_HOST_STAGES = ("prepare", "fingerprint", "factorize")
_HOST_STAGES_PERIODIC = _HOST_STAGES + ("cyclic-reduce",)


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

    def _execute_distributed(
        self, request: SolveRequest, ranks: int
    ) -> SolveOutcome:
        """Price a ``P``-rank N-partitioned solve on the device model.

        Numerics run in-process through the same slab functions the
        real distributed backend's workers run (and
        :func:`~repro.distributed.partition.partitioned_solve_reference`
        — bitwise identical to the multiprocess path by construction);
        the predicted stage times come from the
        :mod:`~repro.kernels.comm_kernel` ledgers, which model the
        ranks as ``P`` concurrent devices exchanging interface rows
        over a latency/bandwidth link.  The ledgers price a step, so
        the one-time bind half
        (:func:`~repro.distributed.partition.factor_slab`) is timed
        under ``partition`` and ``local-eliminate`` measures the step
        half alone.
        """
        import time as _time

        from repro.distributed.partition import (
            assemble_reduced,
            backsub_slab,
            eliminate_slab,
            factor_slab,
            slab_bounds,
            solve_reduced,
        )

        if request.periodic:
            # corner-reduce + two plain distributed solves; the inner
            # requests keep ranks=, so each re-enters this route
            return self._periodic_fallback(request)

        dtype_bytes = np.dtype(request.dtype).itemsize
        predicted = {
            name: us
            for name, us in _distributed_plan_cached(
                request.m, request.n, ranks, dtype_bytes,
                self.solver.device,
            )
        }

        t0 = _time.perf_counter()
        bounds = slab_bounds(request.n, ranks)
        at = np.ascontiguousarray(request.a.T)
        bt = np.ascontiguousarray(request.b.T)
        ct = np.ascontiguousarray(request.c.T)
        dt = np.ascontiguousarray(request.d.T)
        facts = [
            factor_slab(at[lo:hi], bt[lo:hi], ct[lo:hi]) for lo, hi in bounds
        ]
        t_partition = _time.perf_counter() - t0

        t0 = _time.perf_counter()
        reps, reduced_rows = [], []
        for fact, (lo, hi) in zip(facts, bounds):
            rep, reduced = eliminate_slab(fact, dt[lo:hi])
            reps.append(rep)
            reduced_rows.append(reduced)
        t_eliminate = _time.perf_counter() - t0

        t0 = _time.perf_counter()
        xb = solve_reduced(*assemble_reduced(reduced_rows))
        t_reduced = _time.perf_counter() - t0

        t0 = _time.perf_counter()
        xt = np.empty_like(bt)
        for p, (lo, hi) in enumerate(bounds):
            backsub_slab(
                reps[p], xb[:, 2 * p], xb[:, 2 * p + 1], xt[lo:hi]
            )
        t_backsub = _time.perf_counter() - t0

        t0 = _time.perf_counter()
        if request.out is not None:
            x = request.out
            np.copyto(x, xt.T)
        else:
            x = np.ascontiguousarray(xt.T)
        t_comms = _time.perf_counter() - t0

        measured = [
            ("partition", t_partition),
            (f"local-eliminate [{ranks} ranks]", t_eliminate),
            ("reduced-solve", t_reduced),
            (f"backsub [{ranks} ranks]", t_backsub),
            ("comms", t_comms),
        ]
        stages = [
            StageTiming(name, secs, predicted.get(name))
            for name, secs in measured
        ]
        trace = self._set_trace(
            SolveTrace(
                backend=request.label or self.name,
                m=request.m,
                n=request.n,
                dtype=request.dtype,
                k=0,
                k_source="fixed",
                ranks=ranks,
                plan_cache="n/a",
                factorization="n/a",
                system=request.system.kind,
                stages=stages,
                predicted_total_us=sum(predicted.values()),
            )
        )
        return SolveOutcome(x=x, trace=trace)

    def _execute_banded(self, request: SolveRequest) -> SolveOutcome:
        """Run a penta/block request on the engine and price its sweep."""
        from repro.engine import default_engine
        from repro.gpusim.timing import GpuTimingModel
        from repro.kernels.banded_kernel import banded_counters

        dtype_bytes = np.dtype(request.dtype).itemsize
        outcome = default_engine().run(request)
        rhs_only = outcome.trace.rhs_only

        model = GpuTimingModel(self.solver.device)
        predicted = [
            (c.name, model.time(c, dtype_bytes).total_s * 1e6)
            for c in banded_counters(
                request.system.kind,
                request.m,
                request.n,
                dtype_bytes,
                block_size=request.system.block_size,
                prepared=rhs_only,
                device=self.solver.device,
            )
        ]
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
                workers=outcome.trace.workers,
                system=request.system.kind,
                stages=stages,
                predicted_total_us=predicted_total_us,
            )
        )
        return SolveOutcome(
            x=outcome.x,
            trace=trace,
            factorization=outcome.factorization,
            plan=outcome.plan,
        )

    def execute(self, request: SolveRequest) -> SolveOutcome:
        from repro.engine import default_engine
        from repro.gpusim.timing import GpuTimingModel
        from repro.kernels.rhs_kernel import (
            cyclic_correction_counters,
            rhs_only_counters,
        )

        if request.system.kind != "tridiagonal":
            return self._execute_banded(request)

        if request.ranks is not None and request.ranks > 1:
            from repro.distributed.partition import effective_ranks

            ranks = effective_ranks(request.n, request.ranks)
            if ranks > 1:
                return self._execute_distributed(request, ranks)

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

        if request.periodic or rhs_only:
            model = GpuTimingModel(self.solver.device)

            def price(counters):
                return [
                    (c.name, model.time(c, dtype_bytes).total_s * 1e6)
                    for c in counters
                ]

        if rhs_only:
            # the stored factorization skipped elimination — price the
            # RHS-only kernel sequence instead of the full launch
            sweep = price(rhs_only_counters(
                request.m, request.n, report.k, dtype_bytes,
                device=self.solver.device,
            ))
        if request.periodic:
            correction = price(cyclic_correction_counters(
                request.m, request.n, dtype_bytes, device=self.solver.device,
            ))
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
        return SolveOutcome(
            x=outcome.x,
            trace=trace,
            factorization=outcome.factorization,
            plan=outcome.plan,
        )
