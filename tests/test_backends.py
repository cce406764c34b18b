"""Backend dispatch layer: registry negotiation, router, cross-backend
agreement, and per-solve traces.

The engine must be *bitwise* identical to the single-call NumPy
reference.  The gpusim backend routes its numerics through the engine
too, but its device planner may choose a different transition ``k``
than the reference heuristic (shared memory caps it), so agreement
there is to rounding tolerance, not bitwise — that tolerance is part of
its contract.
"""

import numpy as np
import pytest

import repro
from repro.backends import (
    BackendBase,
    BackendError,
    BackendRegistry,
    Capabilities,
    EngineBackend,
    NumpyReferenceBackend,
    Router,
    SolveRequest,
    bind_via,
    clear_last_trace,
    default_registry,
    solve_via,
)
from repro.core.periodic import CyclicSingularError, solve_periodic_batch
from repro.core.transition import GTX480_HEURISTIC
from repro.engine import ExecutionEngine
from repro.kernels.hybrid_gpu import GpuHybridSolver
from repro.service import SyncSolveClient
from repro.workloads.generators import random_batch

from .conftest import BACKEND_ROWS

ALL_BACKENDS = tuple(BACKEND_ROWS)
#: gpusim's device planner may re-plan k → rounding-level drift.
TOL = {np.float64: 1e-12, np.float32: 1e-4}


def _batch(m=12, n=256, dtype=np.float64, seed=3):
    return random_batch(m, n, dtype=dtype, seed=seed)


def _cyclic_batch(m, n, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    b = (4.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c, d


# ---------------------------------------------------------------- registry


def test_registry_lists_all_four_backends():
    names = [b.name for b in default_registry().backends()]
    # priority order
    assert names == ["engine", "distributed", "numpy", "gpusim"]


def test_threaded_backend_name_is_unknown():
    # the retired backend name has no alias
    a, b, c, d = _batch(m=2, n=32)
    with pytest.raises(BackendError, match="unknown backend 'threaded'"):
        repro.solve_batch(a, b, c, d, backend="threaded")


def test_auto_picks_the_engine():
    a, b, c, d = _batch()
    repro.solve_batch(a, b, c, d)
    assert repro.last_trace().backend == "engine"


@pytest.mark.parametrize("row", ALL_BACKENDS)
def test_named_backend_is_honoured(row):
    name, opts = BACKEND_ROWS[row]
    a, b, c, d = _batch()
    repro.solve_batch(a, b, c, d, backend=name, **opts)
    trace = repro.last_trace()
    assert trace.backend == name


def test_unknown_backend_name_is_a_clear_error():
    a, b, c, d = _batch(m=2, n=32)
    with pytest.raises(BackendError, match="unknown backend .*registered"):
        repro.solve_batch(a, b, c, d, backend="cuda")


def test_classic_algorithms_reject_backend_selection():
    a, b, c, d = _batch(m=2, n=32)
    with pytest.raises(TypeError, match="backend="):
        repro.solve_batch(a, b, c, d, algorithm="thomas", backend="engine")


def test_unknown_solve_option_is_a_type_error():
    a, b, c, d = _batch(m=2, n=32)
    with pytest.raises(TypeError, match="unknown solve option"):
        repro.solve_batch(a, b, c, d, tile=4)


def _assert_retired(name, value):
    """Passing the retired option ``name`` to every solve entry point is
    an unknown-keyword ``TypeError`` that names it, raised before any
    solve.  The CLI's ``--workers`` flag is checked in ``test_cli``.
    """
    from repro.workloads.timestepping import (
        ADIDiffusion2D,
        ADIDiffusion3D,
        CrankNicolsonCubic,
    )

    a, b, c, d = _batch(m=4, n=32)
    opt = {name: value}
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, k=0)
    u2, u3 = np.zeros((4, 8)), np.zeros((3, 4, 5))
    entries = {
        "repro.solve_batch": lambda: repro.solve_batch(a, b, c, d, **opt),
        "solve_periodic_batch": lambda: solve_periodic_batch(
            a, b, c, d, **opt
        ),
        "bind_via": lambda: bind_via(a, b, c, d, **opt),
        "repro.prepare": lambda: repro.prepare(a, b, c, **opt),
        "engine.prepare": lambda: engine.prepare(a, b, c, **opt),
        "engine.solve_batch": lambda: engine.solve_batch(a, b, c, d, **opt),
        "handle.solve": lambda: handle.solve(d, **opt),
        "handle.bind": lambda: handle.bind(**opt),
        "SolveService.submit": lambda: _service_solve(a, b, c, d, **opt),
        "ADIDiffusion2D": lambda: ADIDiffusion2D(u2, 0.1, 0.1, **opt),
        "ADIDiffusion3D": lambda: ADIDiffusion3D(u3, 0.1, 0.1, **opt),
        "CrankNicolsonCubic": lambda: CrankNicolsonCubic(
            u2, 0.1, 0.1, **opt
        ),
    }
    for entry, call in entries.items():
        with pytest.raises(TypeError, match=name):
            call()
    assert engine.stats.solves == 0
    assert engine.stats.plans_built == 1  # the handle's, nothing after


@pytest.mark.parametrize("value", [0, -1, 2.5, 3])
def test_workers_is_rejected_at_every_entry(value):
    # every solve runs on one thread: the retired option is an unknown
    # keyword at every entry that took it, whether its value was once
    # refused (0, -1, 2.5) or once honoured (3)
    _assert_retired("workers", value)


#: GPU launch parameters the engine's plan owns — Fig. 11b's windows,
#: Table I's sub-tile c, Table II's machine parallelism P and a Table III
#: lookup — each with a value the paper's solver accepts
SCHEDULE_OPTIONS = {
    "n_windows": 3,
    "subtile_scale": 1,
    "parallelism": 23040,
    "heuristic": GTX480_HEURISTIC,
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_OPTIONS))
def test_schedule_options_are_unknown_at_every_entry(name):
    # the request names the route; the host schedule is the plan's own
    _assert_retired(name, SCHEDULE_OPTIONS[name])
    if name == "heuristic":
        with pytest.raises(TypeError, match=name):
            ExecutionEngine(heuristic=GTX480_HEURISTIC)


@pytest.mark.parametrize("bad", [0, -1])
def test_ranks_must_be_a_positive_int(bad):
    a, b, c, d = _batch(m=4, n=32)
    with pytest.raises(ValueError, match="ranks must be an int >= 1"):
        repro.solve_batch(a, b, c, d, ranks=bad)
    with pytest.raises(ValueError, match="ranks must be an int >= 1"):
        bind_via(a, b, c, d, ranks=bad)


def test_engine_solve_batch_refuses_ranks():
    # the engine solves on one rank; ranks > 1 is never silently dropped
    a, b, c, d = _batch(m=4, n=32)
    engine = ExecutionEngine()
    with pytest.raises(ValueError, match="ranks=2"):
        engine.solve_batch(a, b, c, d, ranks=2)
    assert engine.stats.solves == 0


def _cyclic_dense(a, b, c):
    dense = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    dense[0, -1] = a[0]
    dense[-1, 0] = c[-1]
    return dense


def _service_solve(a, b, c, d, **opts):
    with SyncSolveClient() as client:
        return client.solve(a, b, c, d, **opts)


def _bound_step(a, b, c, d, **opts):
    with bind_via(a, b, c, d, **opts) as session:
        return session.step(d).copy()


#: every public solve entry, called as ``solve(a, b, c, d, **opts)`` on
#: an ``(M, N)`` batch (the 1-D entry row by row)
SOLVE_ENTRIES = {
    "repro.solve_batch": repro.solve_batch,
    "repro.solve": lambda a, b, c, d, **o: np.stack(
        [repro.solve(*row, **o) for row in zip(a, b, c, d)]
    ),
    "solve_periodic_batch": lambda a, b, c, d, periodic=True, **o: (
        solve_periodic_batch(a, b, c, d, **o)
    ),
    "ExecutionEngine.solve_batch": lambda a, b, c, d, **o: (
        ExecutionEngine().solve_batch(a, b, c, d, **o)
    ),
    "repro.prepare": lambda a, b, c, d, **o: repro.prepare(a, b, c, **o).solve(d),
    "ExecutionEngine.prepare": lambda a, b, c, d, **o: (
        ExecutionEngine().prepare(a, b, c, **o).solve(d)
    ),
    "solve_via": lambda a, b, c, d, **o: solve_via(a, b, c, d, **o)[0],
    "bind_via": _bound_step,
    "SolveService.submit": _service_solve,
}


@pytest.mark.parametrize("entry", sorted(SOLVE_ENTRIES))
def test_every_entry_validates_alike(entry):
    solve = SOLVE_ENTRIES[entry]
    a, b, c, d = _cyclic_batch(3, 16, seed=7)
    # (a) periodic: the corners are couplings, never zeroed pads
    x = solve(a, b, c, d, periodic=True)
    for i in range(3):
        ref = np.linalg.solve(_cyclic_dense(a[i], b[i], c[i]), d[i])
        assert np.allclose(x[i], ref, rtol=1e-12, atol=1e-12)
    # (b) non-finite coefficients or right-hand side under check=True
    for i in (1, 3):
        bad = [a, b.copy(), c, d.copy()]
        bad[i][1, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve(*bad)
    # (c) a cyclic system needs N >= 3
    for n in (1, 2):
        with pytest.raises(ValueError, match="N >= 3"):
            solve(a[:, :n], b[:, :n], c[:, :n], d[:, :n], periodic=True)
    # (d) mismatched shapes
    with pytest.raises(ValueError):
        solve(a, b, c[:, :-1], d)
    with pytest.raises(ValueError):
        solve(a, b, c, d[:, :-1])
    # (e) float32 in, float32 out
    x32 = solve(*(v.astype(np.float32) for v in (a, b, c, d)))
    assert x32.dtype == np.float32
    # (f) lists are coerced like arrays
    assert np.array_equal(solve(*(v.tolist() for v in (a, b, c, d)), periodic=True), x)


# ------------------------------------------------- cross-backend agreement


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [0, None], ids=["k0", "kheuristic"])
@pytest.mark.parametrize("row", ["engine", "threaded", "gpusim"])
def test_cross_backend_agreement(row, k, dtype):
    backend, row_opts = BACKEND_ROWS[row]
    a, b, c, d = _batch(m=8, n=256, dtype=dtype)
    opts = {} if k is None else {"k": k}
    ref = repro.solve_batch(a, b, c, d, backend="numpy", **opts)
    x = repro.solve_batch(a, b, c, d, backend=backend, **opts, **row_opts)
    assert x.dtype == ref.dtype
    if backend == "gpusim" and k is None:
        # device plan may differ from the reference heuristic
        assert np.allclose(x, ref, rtol=TOL[dtype], atol=TOL[dtype])
    else:
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("row", ["engine", "threaded", "gpusim"])
def test_cross_backend_agreement_periodic(row, dtype):
    backend, opts = BACKEND_ROWS[row]
    rng = np.random.default_rng(11)
    m, n = 4, 128
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    b = (6.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    ref = solve_periodic_batch(a, b, c, d, backend="numpy")
    x = solve_periodic_batch(a, b, c, d, backend=backend, **opts)
    if backend == "gpusim":
        assert np.allclose(x, ref, rtol=TOL[dtype], atol=TOL[dtype])
    else:
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("row", ["engine", "threaded", "gpusim"])
def test_periodic_prepared_matches_unprepared(row, dtype):
    # k = 0 pins the plan, so the cyclic RHS-only sweep (stored core
    # factorization + q + scale) must change no bits vs re-elimination
    backend, opts = BACKEND_ROWS[row]
    a, b, c, d = _cyclic_batch(48, 96, dtype=dtype, seed=21)
    ref = solve_periodic_batch(
        a, b, c, d, backend=backend, k=0, fingerprint=False, **opts
    )
    solve_periodic_batch(
        a, b, c, d, backend=backend, k=0, fingerprint=True, **opts
    )
    x = solve_periodic_batch(
        a, b, c, d, backend=backend, k=0, fingerprint=True, **opts
    )
    trace = repro.last_trace()
    assert trace.backend == backend
    assert trace.periodic is True
    assert trace.factorization == "hit"
    assert trace.rhs_only is True
    assert x.dtype == ref.dtype
    assert np.array_equal(x, ref)


def test_periodic_trace_fields():
    a, b, c, d = _cyclic_batch(4, 64, seed=22)
    solve_periodic_batch(a, b, c, d)
    trace = repro.last_trace()
    assert trace.periodic is True
    assert trace.describe()["periodic"] is True
    assert any("cyclic" in s.name for s in trace.stages)
    # plain solves leave the flag down
    repro.solve_batch(*_batch(m=2, n=64))
    assert repro.last_trace().periodic is False


def _periodic_laplacian(n=32):
    """The periodic Laplacian [-1, 2, -1]: its constant nullvector
    collapses |1 + v·q|."""
    a = np.full((2, n), -1.0)
    c = np.full((2, n), -1.0)
    b = np.full((2, n), 2.0)
    return a, b, c, np.zeros((2, n))


@pytest.mark.parametrize("row", (*ALL_BACKENDS, "distributed", "gpusim-ranks"))
def test_periodic_singular_raises_through_backends(row):
    # every backend must surface the guard, the ranks routes included
    backend, opts = {
        **BACKEND_ROWS,
        "distributed": ("distributed", {"ranks": 2}),
        "gpusim-ranks": ("gpusim", {"ranks": 2}),
    }[row]
    with pytest.raises(CyclicSingularError, match="row"):
        solve_periodic_batch(*_periodic_laplacian(), backend=backend, **opts)


def test_periodic_singular_raises_at_a_distributed_bind():
    # the bound correction solves q once, at bind: a singular system
    # never yields a session whose first step would raise
    with pytest.raises(CyclicSingularError, match="row"):
        bind_via(
            *_periodic_laplacian(), backend="distributed", ranks=2, periodic=True
        )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gpusim_ranks_periodic_route_prices_both_inner_solves(dtype):
    a, b, c, d = _cyclic_batch(4, 128, dtype=dtype, seed=23)
    ref = solve_periodic_batch(a, b, c, d, backend="engine")
    x = solve_periodic_batch(a, b, c, d, backend="gpusim", ranks=2)
    assert x.dtype == ref.dtype
    assert np.allclose(x, ref, rtol=TOL[dtype], atol=TOL[dtype])
    trace = repro.last_trace()
    assert trace.backend == "gpusim" and trace.periodic and trace.ranks == 2
    predicted = {s.name: s.predicted_us for s in trace.stages}
    for prefix in ("cyclic-q:", "cyclic-y:"):
        for stage in ("local-eliminate [2 ranks]", "reduced-solve", "comms"):
            assert predicted[prefix + stage] > 0, (prefix, stage)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gpusim_ranks_periodic_total_is_the_sum_of_its_stages(dtype):
    # both inner solves and the correction pair are priced, and the
    # total is what the stage column adds up to
    a, b, c, d = _cyclic_batch(4, 64, dtype=dtype, seed=31)
    solve_periodic_batch(a, b, c, d, backend="gpusim", ranks=2)
    trace = repro.last_trace()
    assert trace.stage("cyclic-correction").predicted_us > 0
    stages_us = sum(s.predicted_us or 0.0 for s in trace.stages)
    assert trace.predicted_total_us == pytest.approx(stages_us, rel=1e-9)


@pytest.mark.parametrize("backend", ["distributed", "gpusim"])
def test_periodic_ranks_trace_reports_the_partition_once(backend):
    # the inner ranks session partitions once, at bind: the stage is
    # listed under cyclic-q: alone, so the total counts it once
    a, b, c, d = _cyclic_batch(4, 64, seed=37)
    solve_periodic_batch(a, b, c, d, backend=backend, ranks=2)
    trace = repro.last_trace()
    names = [s.name for s in trace.stages]
    assert [nm for nm in names if "partition" in nm] == ["cyclic-q:partition"]
    assert any(nm.startswith("cyclic-y:") for nm in names)
    assert trace.total_s == pytest.approx(sum(s.seconds for s in trace.stages))


def test_gpusim_ranks_periodic_factors_each_slab_once(monkeypatch):
    from repro.core.periodic import (
        apply_cyclic_correction,
        correction_denominator,
        correction_scale,
        cyclic_reduce,
    )
    from repro.distributed import partition, partitioned_solve_reference

    calls = []
    real = partition.factor_slab
    monkeypatch.setattr(
        partition, "factor_slab", lambda *args: calls.append(1) or real(*args)
    )
    a, b, c, d = _cyclic_batch(4, 64, seed=29)
    x = solve_periodic_batch(a, b, c, d, backend="gpusim", ranks=2)
    # one bind half per slab: the q- and y-solves share the slabs
    assert len(calls) == 2
    trace = repro.last_trace()
    stages_us = sum(s.predicted_us or 0.0 for s in trace.stages)
    assert trace.predicted_total_us == pytest.approx(stages_us, rel=1e-9)
    # the bits of two partitioned solves of A' and the correction
    ap, bp, cp, u, w = cyclic_reduce(a, b, c)
    q = partitioned_solve_reference(ap, bp, cp, u, 2)
    y = partitioned_solve_reference(ap, bp, cp, d, 2)
    scale = correction_scale(correction_denominator(q, w), 64)
    assert x.tobytes() == apply_cyclic_correction(y, q, w, scale).tobytes()
    # a bound session factors at bind and steps RHS-only
    calls.clear()
    with bind_via(a, b, c, d, backend="gpusim", ranks=2, periodic=True) as s:
        assert s.describe()["inner"] == "distributed"
        for _ in range(3):
            assert s.step(d).tobytes() == x.tobytes()
        assert s.step_once(d).x.tobytes() == x.tobytes()
    assert len(calls) == 2


def test_out_parameter_is_written_in_place():
    a, b, c, d = _batch(m=4, n=64)
    out = np.empty_like(d)
    x, trace = solve_via(a, b, c, d, out=out)
    assert x is out
    assert trace.backend == "engine"


#: a caller's ``out`` that is not the solve's (4, 64) float64 result
BAD_OUTS = {
    "wrong-M": ((5, 64), np.float64),
    "wrong-N": ((4, 65), np.float64),
    "wrong-dtype": ((4, 64), np.float32),
}


#: one-shot routes by backend and options; the session row binds
OUT_ROUTES = {
    "engine": ("engine", {}),
    "numpy": ("numpy", {}),
    "gpusim": ("gpusim", {}),
    "distributed": ("distributed", {"ranks": 2}),
    "distributed-session": ("distributed", {"ranks": 2}),
    "periodic": ("numpy", {"periodic": True}),
    # solve_periodic_batch's direct (in-process) algorithms
    **{
        f"periodic-{alg}": (None, {"periodic": True, "algorithm": alg})
        for alg in ("thomas", "cr", "pcr", "rd")
    },
}


@pytest.mark.parametrize("bad", tuple(BAD_OUTS))
@pytest.mark.parametrize("route", tuple(OUT_ROUTES))
def test_a_wrong_out_is_a_value_error_on_every_route(route, bad):
    # never a partly written result, a silent downcast or a bare
    # broadcast error: the message names both shapes
    m, n = 4, 64
    shape, dtype = BAD_OUTS[bad]
    out = np.zeros(shape, dtype=dtype)
    backend, opts = OUT_ROUTES[route]
    batch = _cyclic_batch if opts.get("periodic") else _batch
    a, b, c, d = batch(m=m, n=n, seed=29)

    def rejects(call, given, wanted):
        with pytest.raises(ValueError) as info:
            call()
        assert str(given) in str(info.value)
        assert str(wanted) in str(info.value)
        assert not out.any()

    if "algorithm" in opts:
        rejects(
            lambda: solve_periodic_batch(
                a, b, c, d, algorithm=opts["algorithm"], out=out
            ),
            shape,
            (m, n),
        )
        return
    if route != "distributed-session":
        rejects(
            lambda: solve_via(a, b, c, d, backend=backend, out=out, **opts),
            shape,
            (m, n),
        )
        return
    with bind_via(a, b, c, d, backend=backend, **opts) as session:
        rejects(lambda: session.step(d, out=out), shape, (m, n))
        rejects(lambda: session.step_once(d, out=out), shape, (m, n))
        dt = np.ascontiguousarray(d.T)
        rejects(lambda: session.step_t(dt, out_t=out.T), shape[::-1], (n, m))


# -------------------------------------------------- prepared vs unprepared


@pytest.mark.parametrize("row", ["engine", "threaded", "gpusim"])
def test_prepared_matches_unprepared_bitwise_k0(row):
    # k = 0 pins the plan, so the RHS-only sweep with stored
    # denominators must change no bits on any prepared-capable backend
    backend, opts = BACKEND_ROWS[row]
    a, b, c, d = _batch(m=48, n=96, seed=41)
    ref = repro.solve_batch(a, b, c, d, backend=backend, k=0,
                            fingerprint=False, **opts)
    repro.solve_batch(a, b, c, d, backend=backend, k=0, fingerprint=True,
                      **opts)
    x = repro.solve_batch(a, b, c, d, backend=backend, k=0, fingerprint=True,
                          **opts)
    trace = repro.last_trace()
    assert trace.backend == backend
    assert trace.factorization == "hit"
    assert trace.rhs_only is True
    assert np.array_equal(x, ref)


@pytest.mark.parametrize("row", ["engine", "threaded", "gpusim"])
def test_prepared_matches_unprepared_hybrid(row):
    backend, opts = BACKEND_ROWS[row]
    a, b, c, d = _batch(m=8, n=320, seed=42)
    ref = repro.solve_batch(a, b, c, d, backend=backend, k=4,
                            fingerprint=False, **opts)
    repro.solve_batch(a, b, c, d, backend=backend, k=4, fingerprint=True,
                      **opts)
    x = repro.solve_batch(a, b, c, d, backend=backend, k=4, fingerprint=True,
                          **opts)
    assert repro.last_trace().rhs_only is True
    # an explicit k pins every row's plan, gpusim's device windows
    # included: the factored sweep keeps the one-shot's bits
    assert x.tobytes() == ref.tobytes()


def test_fingerprint_true_rejects_numpy_backend():
    a, b, c, d = _batch(m=4, n=64, seed=43)
    with pytest.raises(BackendError, match="prepared"):
        repro.solve_batch(a, b, c, d, backend="numpy", fingerprint=True)


def test_fingerprint_true_negotiates_past_numpy():
    registry = BackendRegistry(router=Router())
    registry.register(NumpyReferenceBackend())
    registry.register(EngineBackend())
    a, b, c, d = _batch(m=4, n=64, seed=44)
    _, trace = solve_via(a, b, c, d, fingerprint=True, registry=registry)
    assert trace.backend == "engine"


# ------------------------------------------------------------- negotiation


class _Float64Only(BackendBase):
    """Test double: claims top priority but only supports float64."""

    name = "f64only"
    priority = 999

    def __init__(self):
        super().__init__()
        self._inner = NumpyReferenceBackend()

    def capabilities(self):
        return Capabilities(dtypes=("float64",), description="test double")

    def execute(self, request):
        outcome = self._inner.execute(request)
        outcome.trace.backend = self.name
        self._set_trace(outcome.trace)
        return outcome


def _test_registry():
    registry = BackendRegistry(router=Router())
    registry.register(_Float64Only())
    registry.register(EngineBackend())
    return registry


def test_named_backend_dtype_rejection_is_explicit():
    registry = _test_registry()
    a, b, c, d = _batch(m=2, n=64, dtype=np.float32)
    with pytest.raises(BackendError, match="float32"):
        solve_via(a, b, c, d, backend="f64only", registry=registry)


def test_auto_falls_back_past_incapable_backends():
    registry = _test_registry()
    a, b, c, d = _batch(m=2, n=64, dtype=np.float32)
    _, trace = solve_via(a, b, c, d, registry=registry)
    assert trace.backend == "engine"  # f64only outranks it but can't run

    a, b, c, d = _batch(m=2, n=64, dtype=np.float64)
    _, trace = solve_via(a, b, c, d, registry=registry)
    assert trace.backend == "f64only"  # highest capable priority wins


class _NoPeriodic(BackendBase):
    """Test double: top priority but cannot serve cyclic systems."""

    name = "noperiodic"
    priority = 999

    def __init__(self):
        super().__init__()
        self._inner = NumpyReferenceBackend()

    def capabilities(self):
        return Capabilities(periodic=False, description="test double")

    def execute(self, request):
        outcome = self._inner.execute(request)
        outcome.trace.backend = self.name
        self._set_trace(outcome.trace)
        return outcome


def test_periodic_capability_is_negotiated():
    registry = BackendRegistry(router=Router())
    registry.register(_NoPeriodic())
    registry.register(EngineBackend())
    a, b, c, d = _cyclic_batch(2, 48, seed=23)

    # named explicitly: the rejection reason is surfaced
    with pytest.raises(BackendError, match="periodic"):
        solve_via(
            a, b, c, d, periodic=True, backend="noperiodic", registry=registry
        )

    # auto: negotiation skips the periodic-incapable backend ...
    _, trace = solve_via(a, b, c, d, periodic=True, registry=registry)
    assert trace.backend == "engine"
    assert trace.periodic is True

    # ... which still wins plain (non-periodic) dispatch on priority
    _, trace = solve_via(*_batch(m=2, n=48), registry=registry)
    assert trace.backend == "noperiodic"


def test_no_capable_backend_lists_every_rejection():
    registry = BackendRegistry(router=Router())
    registry.register(_Float64Only())
    a, b, c, d = _batch(m=2, n=64, dtype=np.float32)
    with pytest.raises(BackendError, match="f64only.*float32"):
        solve_via(a, b, c, d, registry=registry)


def test_request_validation():
    z = np.zeros((3, 16))
    request = SolveRequest.build(z, z + 2, z, z, k=2)
    assert (request.m, request.n, request.k) == (3, 16, 2)
    assert request.dtype == "float64"
    with pytest.raises(TypeError, match="unknown solve option"):
        SolveRequest.build(z, z + 2, z, z, block_size=32)
    with pytest.raises(ValueError):
        SolveRequest.build(np.zeros(16), np.zeros(16), np.zeros(16), np.zeros(16))


def test_periodic_requests_are_one_dispatch_seam():
    # periodic is a request attribute, not a separate protocol method:
    # the same solve_via seam serves cyclic systems
    a, b, c, d = _cyclic_batch(3, 48, seed=24)
    x, trace = solve_via(a, b, c, d, periodic=True)
    ref = solve_periodic_batch(a, b, c, d)
    assert trace.periodic is True
    assert np.array_equal(x, ref)


# ------------------------------------------------------------------ traces


def test_plan_cache_hit_recorded_on_warm_solve():
    a, b, c, d = _batch(m=5, n=192, seed=8)
    repro.solve_batch(a, b, c, d, backend="engine")
    first = repro.last_trace().plan_cache
    repro.solve_batch(a, b, c, d, backend="engine")
    assert first in ("hit", "miss")
    assert repro.last_trace().plan_cache == "hit"


def test_trace_records_stages_and_timing():
    a, b, c, d = _batch(m=4, n=128)
    repro.solve_batch(a, b, c, d)
    trace = repro.last_trace()
    stage_names = [s.name for s in trace.stages]
    assert stage_names[:2] == ["validate", "prepare"]
    assert trace.total_s >= 0.0
    assert (trace.m, trace.n) == (4, 128)
    assert trace.describe()["backend"] == "engine"


def test_direct_algorithms_record_traces_too():
    a, b, c, d = _batch(m=2, n=64)
    repro.solve_batch(a, b, c, d, algorithm="thomas")
    assert repro.last_trace().backend == "direct:thomas"


def test_gpusim_trace_carries_predictions():
    a, b, c, d = _batch(m=8, n=512)
    repro.solve_batch(a, b, c, d, backend="gpusim")
    trace = repro.last_trace()
    assert trace.predicted_total_us is not None and trace.predicted_total_us > 0
    assert any(s.predicted_us is not None for s in trace.stages)


def test_gpusim_runs_and_prices_the_requests_fuse():
    # fuse=True on the request runs the fused front end and prices the
    # one fused device launch; the bits are the unfused solve's
    a, b, c, d = _batch(m=8, n=512)
    ref = repro.solve_batch(a, b, c, d, backend="gpusim", fuse=False)
    assert not repro.last_trace().fuse
    x = repro.solve_batch(a, b, c, d, backend="gpusim", fuse=True)
    trace = repro.last_trace()
    assert trace.backend == "gpusim" and trace.k > 0 and trace.fuse
    measured = {s.name: s.predicted_us for s in trace.stages}
    assert "tiled-pcr + fused forward" in measured
    assert "tiled-pcr sweep" not in measured
    (name, us), = GpuHybridSolver(fuse=True).predict(8, 512, k=trace.k).trace_stages()
    assert name.startswith("fused hybrid")
    assert measured["tiled-pcr + fused forward"] == us == trace.predicted_total_us
    assert x.tobytes() == ref.tobytes()


def test_clear_last_trace():
    a, b, c, d = _batch(m=2, n=64)
    repro.solve_batch(a, b, c, d)
    assert repro.last_trace() is not None
    clear_last_trace()
    assert repro.last_trace() is None


def test_instrument_before_any_solve_raises():
    backend = EngineBackend()
    with pytest.raises(RuntimeError, match="not executed"):
        backend.instrument()
