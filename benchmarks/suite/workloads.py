"""The suite's five workloads.

Each workload generates its inputs from the seed before anything is
timed (the library only ever sees the generated arrays) and exposes:

* ``cold_start()`` — release every cache and pool, then time the path
  from nothing to the first result (plan build, bind, factorize, pool
  spawn, service start, plus the first op); returns ``(seconds,
  slowdown, evidence)``, where ``evidence`` is a small record of the
  result;
* ``started_ok(evidence)`` — the correctness check of one cold start.
  It runs later, after peak RSS has been read, because it computes the
  reference with the baseline path;
* ``window(seconds, tracer=None)`` — build the steady state, then time
  ops for ``seconds``; returns a :class:`~benchmarks.suite.harness.Window`;
* ``probes()`` — gpusim measured/predicted ratios for the kernels the
  workload runs (untimed);
* ``kernel_bytes()`` — device-model bytes one main op moves (computed,
  not measured).

Every op is checked outside its timed region: bitwise where the
library promises it (sessions vs per-call at ``k = 0``, service scatter
vs solo solves, ranks vs :func:`repro.partitioned_solve_reference`),
relative residual ``<= RTOL`` elsewhere.  Reference results are
computed on first use, never before the cold starts.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

import repro
from repro.backends import bind_via
from repro.distributed import partitioned_solve_reference, shutdown_pools
from repro.kernels import GpuHybridSolver, pthomas_counters, rhs_only_counters
from repro.kernels.comm_kernel import (
    reduced_solve_counters,
    slab_backsub_counters,
    slab_eliminate_counters,
)
from repro.workloads import (
    ADIDiffusion2D,
    ADIDiffusion3D,
    mirror_laplacian,
    shared_matrix_traffic,
    small_request_traffic,
)
from repro.workloads.generators import huge_system_batch, random_batch
from repro.workloads.pde import adi_row_coefficients

from benchmarks.suite.harness import (
    Op,
    Series,
    Window,
    Yardstick,
    interleave,
    relative_residual,
)

__all__ = ["RTOL", "WORKLOADS"]

#: relative residual bound wherever bitwise equality is not promised
RTOL = 1e-10

DTYPE_BYTES = 8


def _seed(*key: int) -> int:
    """A generator seed derived from the run seed and a local key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).view(np.uint8))
    return h.hexdigest()


def _useful_bytes(counters) -> float:
    return float(sum(c.traffic.useful_bytes for c in counters))


def _gpusim_trace(batch, **opts):
    repro.solve_batch(*batch, backend="gpusim", **opts)
    return repro.last_trace()


def _kernel_kind(stage: str) -> str | None:
    if stage.startswith("tiled-pcr"):
        return "tiled_pcr"
    if stage.startswith("p-thomas"):
        return "pthomas"
    if "thomas" in stage:
        return "thomas"
    if stage.startswith(("local-eliminate", "backsub")):
        return "slab"
    return None


def measured_over_predicted(traces) -> dict:
    """Measured ÷ gpusim-predicted time per kernel kind over ``traces``."""
    measured: dict = defaultdict(float)
    predicted: dict = defaultdict(float)
    for trace in traces:
        for stage in trace.stages:
            kind = _kernel_kind(stage.name)
            if kind is not None and stage.predicted_us:
                measured[kind] += stage.seconds
                predicted[kind] += stage.predicted_us * 1e-6
    return {kind: measured[kind] / predicted[kind] for kind in predicted}


class Workload:
    """Shared defaults; subclasses set the class attributes below."""

    name = ""
    #: "closed": each client sends its next op only after the last one
    loop = "closed"
    clients = 1
    #: layers charged with the untraced remainder of main/baseline ops
    main_layer = "backends.dispatch"
    baseline_layer = "backends.dispatch"
    #: worker processes count towards peak RSS
    children = False

    inputs_digest = ""

    @functools.cached_property
    def yardstick(self) -> Yardstick:
        return Yardstick()

    def cold_start(self):
        self.teardown()
        self.yardstick.read()
        t0 = time.perf_counter()
        started = self._start()
        seconds = time.perf_counter() - t0
        return seconds, self.yardstick.read(), self._evidence(started)

    def teardown(self) -> None:
        repro.default_engine().clear()

    def close(self) -> None:
        self.teardown()

    def comm_bytes(self) -> float:
        return 0.0

    def _interleave(self, main, baseline, check, seconds, tracer) -> Window:
        with tracer if tracer is not None else nullcontext():
            return interleave(
                Op("main", main, self.main_layer),
                Op("baseline", baseline, self.baseline_layer),
                check,
                seconds,
                self.yardstick,
                tracer=tracer,
            )


class HybridLargeN(Workload):
    name = "hybrid_large_n"
    SHAPES = ((16, 8192), (64, 2048), (256, 512))
    TINY = ((4, 512), (8, 256), (16, 256))

    def __init__(self, seed: int, tiny: bool):
        self.shapes = self.TINY if tiny else self.SHAPES
        # an op is one solve of every shape; op i uses coefficient set
        # i % pool, so consecutive calls never share coefficients
        pool = 2 if tiny else 4
        self.pool = [
            [random_batch(m, n, seed=_seed(seed, s, j)) for s, (m, n) in enumerate(self.shapes)]
            for j in range(pool)
        ]
        self.inputs_digest = _digest(arr for batches in self.pool for b in batches for arr in b)

    def batches(self, i: int):
        return self.pool[i % len(self.pool)]

    def _ok(self, i: int, xs) -> bool:
        return xs is not None and all(
            relative_residual(*batch, x) <= RTOL for batch, x in zip(self.batches(i), xs)
        )

    def _start(self):
        return [repro.solve_batch(*batch) for batch in self.batches(0)]

    def _evidence(self, xs) -> bool:
        return self._ok(0, xs)

    def started_ok(self, evidence) -> bool:
        return evidence

    def window(self, seconds: float, tracer=None) -> Window:
        def main(i):
            return [repro.solve_batch(*batch) for batch in self.batches(i)]

        def baseline(i):
            xs = []
            for batch in self.batches(i):
                xs.append(repro.solve_batch(*batch, algorithm="thomas"))
                if tracer is not None:
                    # the direct path reports its sweep only as a trace stage
                    sweep = repro.last_trace().stage("execute").seconds
                    tracer.leaf("baseline", "core.thomas", sweep, self.baseline_layer)
            return xs

        def check(i, xs, ys):
            agree = (
                xs is not None
                and ys is not None
                and all(
                    np.linalg.norm(x - y) <= RTOL * np.linalg.norm(y) for x, y in zip(xs, ys)
                )
            )
            return self._ok(i, xs) and agree, self._ok(i, ys)

        return self._interleave(main, baseline, check, seconds, tracer)

    def probes(self) -> dict:
        return measured_over_predicted(_gpusim_trace(batch) for batch in self.pool[0])

    def kernel_bytes(self) -> float:
        engine = repro.default_engine()
        solver = GpuHybridSolver()
        total = 0.0
        for m, n in self.shapes:
            k = engine.plan_for(m, n, np.float64).k
            report = solver.predict(m, n, DTYPE_BYTES, k=k)
            total += _useful_bytes(c for _, c, _ in report.stages)
        return total


class _ADI(Workload):
    """Session simulator vs the per-call ``PreparedPlan.solve`` loop."""

    main_layer = "workloads.rhs"
    baseline_layer = "workloads.rhs"
    ALPHA = 0.2

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng(_seed(seed, 0))
        self.u0 = rng.random(self.TINY if tiny else self.GRID)
        self.beta = self.ALPHA * self.DT / 2.0
        self.inputs_digest = _digest([self.u0])

    def _handles(self):
        return [repro.prepare(*adi_row_coefficients(m, n, self.beta)) for m, n in self.sweeps()]

    @staticmethod
    def _close_handles(handles) -> None:
        for handle in handles:
            handle.close()

    @functools.cached_property
    def first_step(self) -> str:
        """Digest of one step of the per-call loop from ``u0``."""
        handles = self._handles()
        try:
            return _digest([self._prepared_step(handles, self.u0)])
        finally:
            self._close_handles(handles)

    def _start(self):
        # a copy: ADIDiffusion2D steps the array it was given in place
        sim = self.SIM(self.u0.copy(), self.ALPHA, self.DT)
        sim.step()
        return sim

    def _evidence(self, sim) -> str:
        try:
            return _digest([sim.u])
        finally:
            sim.close()

    def started_ok(self, evidence) -> bool:
        # the k = 0 routes promise the session step bitwise equal to
        # the per-call loop
        return evidence == self.first_step

    def window(self, seconds: float, tracer=None) -> Window:
        sim = self.SIM(self.u0.copy(), self.ALPHA, self.DT)
        handles = self._handles()
        state = {"u": self.u0.copy()}

        def baseline(i):
            state["u"] = self._prepared_step(handles, state["u"])
            return state["u"]

        def check(i, x, y):
            # both loops run the identical scheme from the same field:
            # the k = 0 routes promise bitwise-equal fields every step
            ok = x is not None and y is not None and bool(np.array_equal(x, y))
            return ok, ok

        try:
            return self._interleave(lambda i: sim.step(), baseline, check, seconds, tracer)
        finally:
            sim.close()
            self._close_handles(handles)

    def probes(self) -> dict:
        rng = np.random.default_rng(0)
        traces = []
        for m, n in self.sweeps():
            a, b, c = adi_row_coefficients(m, n, self.beta)
            batch = (a, b, c, rng.random((m, n)))
            # the second sighting runs the stored factorization's
            # RHS-only sweep, the stage the session hot loop executes
            _gpusim_trace(batch, k=0, fingerprint=True)
            traces.append(_gpusim_trace(batch, k=0, fingerprint=True))
        return measured_over_predicted(traces)

    def kernel_bytes(self) -> float:
        return sum(
            _useful_bytes(rhs_only_counters(m, n, 0, DTYPE_BYTES)) for m, n in self.sweeps()
        )


class ADI2D(_ADI):
    name = "adi2d_session"
    SIM = ADIDiffusion2D
    GRID = (1024, 1024)
    # Table III keeps k = 0 only for batches of >= 1024 rows, and both
    # sweeps must stay on the Thomas route the full grid takes
    TINY = (1024, 1024)
    DT = 0.8

    def sweeps(self):
        ny, nx = self.u0.shape
        return [(ny, nx), (nx, ny)]

    def _prepared_step(self, handles, u):
        row, col = handles
        d1 = u + self.beta * mirror_laplacian(u, axis=0)
        ustar = row.solve(d1)
        d2 = 2.0 * ustar - d1
        return col.solve(np.ascontiguousarray(d2.T)).T.copy()


class ADI3D(_ADI):
    name = "adi3d_lod"
    SIM = ADIDiffusion3D
    GRID = (96, 96, 96)
    TINY = (32, 32, 32)
    DT = 0.5

    def sweeps(self):
        nz, ny, nx = self.u0.shape
        return [(nz * ny, nx), (nz * nx, ny), (ny * nx, nz)]

    def _prepared_step(self, handles, u):
        def sweep(handle, v):
            d = v + self.beta * mirror_laplacian(v)
            shape = v.shape
            return handle.solve(d.reshape(shape[0] * shape[1], shape[2])).reshape(shape)

        u = sweep(handles[0], u)
        ut = np.ascontiguousarray(u.transpose(0, 2, 1))
        ut = sweep(handles[1], ut)
        u = ut.transpose(0, 2, 1)
        ut = np.ascontiguousarray(u.transpose(1, 2, 0))
        ut = sweep(handles[2], ut)
        return np.ascontiguousarray(ut.transpose(2, 0, 1))


class ServiceMix(Workload):
    name = "service_mix"
    clients = 64
    M = 8
    #: shares of the measured window: direct baseline, 64 clients, 1 client
    PHASES = (0.2, 0.6, 0.2)
    #: the 64-client phase runs in segments this long ...
    SEGMENT_S = 2.0
    #: ... with this many yardstick readings averaged between two
    READINGS = 5

    def __init__(self, seed: int, tiny: bool):
        n = 64 if tiny else 1024
        independent, shared = (24, 8) if tiny else (192, 64)
        if tiny:
            self.clients = 8
        frags = [
            (tenant, batch, False)
            for tenant, batch in small_request_traffic(
                independent, self.M, n, tenants=4, seed=_seed(seed, 0)
            )
        ]
        (a, b, c), ds = shared_matrix_traffic(shared, self.M, n, tenants=4, seed=_seed(seed, 1))
        frags += [(tenant, (a, b, c, d), True) for tenant, d in ds]
        order = np.random.default_rng(_seed(seed, 2)).permutation(len(frags))
        self.frags = [frags[k] for k in order]
        self.n = n
        self.inputs_digest = _digest(arr for _, batch, _ in self.frags for arr in batch)
        self.cursor = itertools.count()
        self._refs = None

    def references(self) -> list:
        """The bitwise reference: one solo k = 0 solve per fragment."""
        if self._refs is None:
            self._refs = [repro.solve_batch(*batch, k=0) for _, batch, _ in self.frags]
        return self._refs

    async def _request(self, service, k: int):
        tenant, batch, shared = self.frags[k]
        opts = {"fingerprint": True} if shared else {}
        return await service.submit(*batch, tenant=tenant, **opts)

    async def _direct(self, k: int):
        return repro.solve_batch(*self.frags[k][1], k=0)

    async def _answered(self, request, tally) -> float | None:
        """One request for the next fragment: its wall seconds, checked
        afterwards; ``None`` if it raised or was shed."""
        k = next(self.cursor) % len(self.frags)
        tally["attempted"] += 1
        t0 = time.perf_counter()
        try:
            x = await request(k)
        except Exception:
            # a shed or failed request is counted, reported, and the
            # caller goes on
            traceback.print_exc()
            tally["failed"] += 1
            return None
        wall = time.perf_counter() - t0
        if not np.array_equal(x, self.references()[k]):
            tally["failed"] += 1
        return wall

    async def _one_client(self, request, seconds: float, tally) -> Series:
        """One closed-loop caller for ``seconds``, the yardstick read
        after every reply (nothing else is in flight then)."""
        series = Series()
        self.yardstick.read()
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            wall = await self._answered(request, tally)
            slowdown = self.yardstick.read()
            if wall is not None:
                series.add(wall, slowdown)
        return series

    async def _all_clients(self, service, seconds: float, tally):
        """``clients`` free-running closed-loop callers for ``seconds``.

        Each caller submits its next request as soon as its last reply
        is in, so which requests share a coalescing window depends on
        timing, as it does for request handlers.  The yardstick cannot
        be read while requests are in flight (the loop thread would
        stall them), so the callers run in segments of ``SEGMENT_S``
        with ``READINGS`` yardstick readings between two, and a
        segment's latencies share the slowdown read around it.  Returns
        ``(series, wall seconds, wall seconds at the nominal host speed)``.
        """
        request = functools.partial(self._request, service)
        series, wall_s, nominal_s = Series(), 0.0, 0.0
        end = time.perf_counter() + seconds
        self.yardstick.read(self.READINGS)
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            stop = min(end, t0 + self.SEGMENT_S)
            latencies = []

            async def client():
                while time.perf_counter() < stop:
                    wall = await self._answered(request, tally)
                    if wall is not None:
                        latencies.append(wall)

            await asyncio.gather(*(client() for _ in range(self.clients)))
            wall = time.perf_counter() - t0
            slowdown = self.yardstick.read(self.READINGS)
            for latency in latencies:
                series.add(latency, slowdown)
            wall_s += wall
            nominal_s += wall / slowdown
        return series, wall_s, nominal_s

    def _start(self):
        async def first_requests():
            async with repro.SolveService() as service:
                return await asyncio.gather(
                    *(self._request(service, k) for k in range(self.clients))
                )

        return asyncio.run(first_requests())

    def _evidence(self, xs) -> list:
        return [_digest([x]) for x in xs]

    def started_ok(self, evidence) -> bool:
        refs = self.references()
        return all(d == _digest([refs[k]]) for k, d in enumerate(evidence))

    def window(self, seconds: float, tracer=None) -> Window:
        base_s, busy_s, idle_s = (share * seconds for share in self.PHASES)
        tally = {"attempted": 0, "failed": 0}
        self.cursor = itertools.count()
        self.references()  # computed before the clock starts
        extra: dict = {}

        async def phases():
            baseline = await self._one_client(self._direct, base_s, tally)
            async with repro.SolveService() as service:
                with tracer if tracer is not None else nullcontext():
                    ticker = asyncio.ensure_future(self._ticker(extra)) if tracer else None
                    busy, extra["wall_s"], extra["nominal_s"] = await self._all_clients(
                        service, busy_s, tally
                    )
                    if ticker is not None:
                        extra["stop"] = True
                        await ticker
                extra["stats"] = service.stats.describe()
                extra["idle"] = await self._one_client(
                    functools.partial(self._request, service), idle_s, tally
                )
            return busy, baseline

        busy, baseline = asyncio.run(phases())
        return Window(
            main=busy,
            baseline=baseline,
            attempted=tally["attempted"],
            failed=tally["failed"],
            wall_s=extra["wall_s"],
            main_ops=len(busy.wall),
            extra=extra,
        )

    @staticmethod
    async def _ticker(extra: dict) -> None:
        """1 ms ticker on the service loop: how late each wakeup runs."""
        lag = 0.0
        while not extra.get("stop"):
            t0 = time.perf_counter()
            await asyncio.sleep(0.001)
            lag += max(0.0, time.perf_counter() - t0 - 0.001)
        extra["loop_lag_s"] = lag

    def probes(self) -> dict:
        # the fully coalesced window: every client's fragment in one batch
        parts = [batch for _, batch, shared in self.frags if not shared][: self.clients]
        batch = [np.concatenate(arrs) for arrs in zip(*parts)]
        return measured_over_predicted([_gpusim_trace(batch, k=0, fingerprint=False)])

    def kernel_bytes(self) -> float:
        cold = _useful_bytes([pthomas_counters(self.M, self.n, DTYPE_BYTES)])
        warm = _useful_bytes(rhs_only_counters(self.M, self.n, 0, DTYPE_BYTES))
        shared = sum(1 for *_, s in self.frags if s) / len(self.frags)
        return (1.0 - shared) * cold + shared * warm


class DistributedHugeN(Workload):
    name = "distributed_huge_n"
    M = 4
    RANKS = 2
    children = True

    def __init__(self, seed: int, tiny: bool):
        n = 512 if tiny else 16384
        self.a, self.b, self.c, _ = huge_system_batch(n, m=self.M, seed=_seed(seed, 0))
        rng = np.random.default_rng(_seed(seed, 1))
        self.rhs = [rng.standard_normal((self.M, n)) for _ in range(3)]
        self.n = n
        self.inputs_digest = _digest([self.a, self.b, self.c, *self.rhs])

    @functools.cached_property
    def refs(self) -> list:
        return [
            partitioned_solve_reference(self.a, self.b, self.c, d, self.RANKS)
            for d in self.rhs
        ]

    def _bind(self, **opts):
        return bind_via(self.a, self.b, self.c, np.zeros_like(self.b), **opts)

    def teardown(self) -> None:
        shutdown_pools()
        super().teardown()

    def _start(self):
        session = self._bind(backend="distributed", ranks=self.RANKS)
        return session, session.step(self.rhs[0])

    def _evidence(self, started) -> str:
        session, x = started
        try:
            return _digest([x])
        finally:
            session.close()

    def started_ok(self, evidence) -> bool:
        return evidence == _digest([self.refs[0]])

    def window(self, seconds: float, tracer=None) -> Window:
        refs = self.refs  # computed before the pool starts
        ranks = self._bind(backend="distributed", ranks=self.RANKS)
        engine = self._bind(backend="engine", k=0, fingerprint=True)

        def check(i, x, y):
            j = i % len(self.rhs)
            ok_ranks = x is not None and bool(np.array_equal(x, refs[j]))
            ok_engine = (
                y is not None
                and relative_residual(self.a, self.b, self.c, self.rhs[j], y) <= RTOL
            )
            return ok_ranks, ok_engine

        try:
            return self._interleave(
                lambda i: ranks.step(self.rhs[i % len(self.rhs)]),
                lambda i: engine.step(self.rhs[i % len(self.rhs)]),
                check,
                seconds,
                tracer,
            )
        finally:
            ranks.close()
            engine.close()

    def probes(self) -> dict:
        batch = (self.a, self.b, self.c, self.rhs[0])
        traces = [_gpusim_trace(batch, ranks=self.RANKS)]
        _gpusim_trace(batch, k=0, fingerprint=True)
        traces.append(_gpusim_trace(batch, k=0, fingerprint=True))
        return measured_over_predicted(traces)

    def kernel_bytes(self) -> float:
        rows = -(-self.n // self.RANKS)
        slab = slab_eliminate_counters(self.M, rows, DTYPE_BYTES), slab_backsub_counters(
            self.M, rows, DTYPE_BYTES
        )
        reduced = reduced_solve_counters(self.M, self.RANKS, DTYPE_BYTES)
        return self.RANKS * _useful_bytes(slab) + _useful_bytes([reduced])

    def comm_bytes(self) -> float:
        """Bytes one step copies between the host and the rank arenas.

        Computed from array sizes: the RHS scattered and the solution
        gathered (``M·N`` values each way), plus 6 reduced-equation and
        2 boundary values per system per rank.
        """
        values = 2 * self.M * self.n + self.RANKS * (6 + 2) * self.M
        return float(values * DTYPE_BYTES)


WORKLOADS = {
    cls.name: cls for cls in (HybridLargeN, ADI2D, ADI3D, ServiceMix, DistributedHugeN)
}
