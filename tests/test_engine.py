"""Solve-plan engine: plan caching, workspace reuse, parity.

The engine's contract is strict: for every ``(M, N, k, fuse,
n_windows)`` signature its result must be **bitwise identical** to the
single-call :class:`~repro.core.hybrid.HybridSolver` reference path —
cold (first solve, plans + allocates) and warm (cached plan, pooled
workspace) alike.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.backends.request import SolveRequest
from repro.core.hybrid import HybridReport, HybridSolver, _FusedPThomas
from repro.core.pcr import pcr_sweep
from repro.core.pthomas import (
    PThomasWorkspace,
    pthomas_solve_interleaved,
    subsystem_lengths,
)
from repro.core.solver import solve_batch
from repro.core.tiled_pcr import TiledPCR
from repro.engine import (
    ExecutionEngine,
    PlanWorkspace,
    build_plan,
    execute_plan,
)
from repro.engine.plan import HOST_BLOCK_ELEMENTS
from repro.kernels.hybrid_gpu import GpuHybridSolver

from .conftest import make_batch, max_err, reference_solve

# the (M, N, k, fuse, n_windows) matrix mirroring test_hybrid/test_tiled_pcr
SIGNATURES = [
    (1, 64, 2, False, 1),
    (1, 1024, 6, False, 1),
    (4, 511, 3, True, 1),
    (17, 128, 4, False, 2),
    (2, 40, 2, True, 3),
    (3, 300, None, False, 1),
    (33, 256, None, True, 1),
    (600, 128, None, False, 1),
    (1200, 64, None, False, 1),  # heuristic k = 0 -> transposed Thomas
    (1200, 64, None, True, 2),
]


@pytest.fixture
def engine():
    return ExecutionEngine()


# ---------------------------------------------------------------------------
# bitwise parity with the reference solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,n,k,fuse,nw", SIGNATURES)
def test_engine_bitwise_equals_hybrid(engine, m, n, k, fuse, nw):
    a, b, c, d = make_batch(m, n, seed=m * 1000 + n)
    ref = HybridSolver(k=k, fuse=fuse, n_windows=nw).solve_batch(a, b, c, d)
    got = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, n_windows=nw)
    assert np.array_equal(ref, got)
    assert got.dtype == ref.dtype


@pytest.mark.parametrize("m,n,k,fuse,nw", SIGNATURES)
def test_warm_plan_bitwise_equals_cold(engine, m, n, k, fuse, nw):
    a, b, c, d = make_batch(m, n, seed=m + n)
    cold = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, n_windows=nw)
    warm = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, n_windows=nw)
    warm2 = engine.solve_batch(a, b, c, d, k=k, fuse=fuse, n_windows=nw)
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, warm2)
    assert engine.stats.plan_hits >= 2
    # each warm call either reused a pooled workspace or skipped
    # elimination entirely via the fingerprint/factorization cache
    assert (
        engine.stats.workspaces_reused + engine.stats.rhs_only_solves >= 2
    )


def test_engine_result_is_correct(engine):
    a, b, c, d = make_batch(40, 333, seed=3)
    x = engine.solve_batch(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-12


def test_results_never_alias_pooled_workspaces(engine):
    # Regression: back-to-back same-plan solves must not overwrite a
    # previously returned result (for M = 1 the transposed Thomas
    # output is a contiguous view of workspace memory unless copied).
    for m, n in [(1, 16), (3, 64), (1200, 32)]:
        a, b, c, d = make_batch(m, n, seed=n)
        x1 = engine.solve_batch(a, b, c, d)
        keep = x1.copy()
        d2 = d + 1.0
        engine.solve_batch(a, b, c, d2)
        assert np.array_equal(x1, keep), (m, n)


@pytest.mark.parametrize("fuse", [False, True])
def test_hybrid_buffers_are_column_major(engine, fuse):
    # Every window and p-Thomas kernel works on a row range of all M
    # systems; column-major buffers make that range one contiguous block.
    m, n, k = 5, 300, 3
    a, b, c, d = make_batch(m, n, seed=4)
    engine.solve_batch(
        a, b, c, d, k=k, fuse=fuse, n_windows=2, fingerprint=False
    )
    (ws,) = [
        w
        for (cls, _), pool in engine._pools.items()
        if cls is PlanWorkspace
        for w in pool
    ]
    tiled, pt = ws.tiled, ws.pthomas
    bufs = [ch for ring in tiled.rings for ch in ring.data]
    bufs += [*tiled.stage, tiled.k1, tiled.k2, tiled.tmp]
    bufs += [pt.cp, pt.dp, pt.t1, pt.t2]
    if fuse:
        assert ws.reduced is None
    else:
        bufs += list(ws.reduced)
    for x in bufs:
        assert x.flags.f_contiguous and not x.flags.c_contiguous, x.shape

    slabs = []
    TiledPCR(k=k, c=ws.plan.subtile_scale, n_windows=2).sweep(
        a, b, c, d, emit=lambda e0, e1, q: slabs.extend(q),
        workspace=tiled,
    )
    assert slabs and all(s.flags.f_contiguous for s in slabs)


def test_pooled_pthomas_state_never_aliases_results():
    # A column-major (1, N) workspace buffer is also C-contiguous, so
    # only an explicit copy keeps it out of a result returned without
    # ``out``; the engine always passes ``out`` and cannot see this.
    m, n, k = 1, 64, 3
    ws = PThomasWorkspace(m, n, k, np.float64)
    results = []
    for seed in (1, 2):
        red = pcr_sweep(*make_batch(m, n, seed=seed), k)
        x = pthomas_solve_interleaved(*red, k, workspace=ws)
        results.append((x, x.copy()))
    for seed in (3, 4):
        fused = _FusedPThomas(m, n, k, np.float64, workspace=ws)
        TiledPCR(k=k).sweep(*make_batch(m, n, seed=seed), emit=fused.consume)
        x = fused.backward()
        assert np.array_equal(fused.backward(), x)  # repeatable
        results.append((x, x.copy()))
    for x, keep in results:
        assert not np.shares_memory(x, ws.dp)
        assert np.array_equal(x, keep)
    assert not np.array_equal(results[0][0], results[1][0])
    assert not np.array_equal(results[2][0], results[3][0])


# ---------------------------------------------------------------------------
# dtype preservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "route",
    ["hybrid", "hybrid-fused", "engine", "engine-workers", "solve_batch"],
)
def test_dtype_preserved(dtype, route):
    a, b, c, d = make_batch(6, 200, dtype=dtype, seed=5)
    if route == "hybrid":
        x = HybridSolver(k=3).solve_batch(a, b, c, d)
    elif route == "hybrid-fused":
        x = HybridSolver(k=3, fuse=True).solve_batch(a, b, c, d)
    elif route == "engine":
        x = ExecutionEngine().solve_batch(a, b, c, d, k=3)
    elif route == "engine-workers":
        # one engine shared by three caller-owned worker threads
        engine = ExecutionEngine()
        with ThreadPoolExecutor(max_workers=3) as pool:
            xs = list(pool.map(
                lambda _: engine.solve_batch(a, b, c, d, k=3), range(3)
            ))
        x = xs[0]
        assert all(np.array_equal(x, y) for y in xs[1:])
    else:
        x = solve_batch(a, b, c, d, k=3)
    assert x.dtype == np.dtype(dtype)
    assert x.shape == (6, 200)
    assert np.isfinite(x).all()


def test_float32_thomas_path_dtype():
    a, b, c, d = make_batch(1200, 48, dtype=np.float32, seed=2)
    eng = ExecutionEngine()
    x = eng.solve_batch(a, b, c, d)
    assert eng.last_report.k == 0
    assert x.dtype == np.float32


# ---------------------------------------------------------------------------
# input coercion (solve_batch check=False on lists)
# ---------------------------------------------------------------------------


def test_list_inputs_with_check_false():
    a = [[0.0, 1.0, 1.0, 1.0]]
    b = [[3.0, 3.0, 3.0, 3.0]]
    c = [[1.0, 1.0, 1.0, 0.0]]
    d = [[1.0, 2.0, 3.0, 4.0]]
    x = solve_batch(a, b, c, d, check=False)
    ref = solve_batch(a, b, c, d, check=True)
    assert x.dtype == np.float64
    assert np.array_equal(x, ref)


def test_integer_lists_promote_to_float64():
    # integer inputs with check=False must not truncate float results
    a = [[0, 1, 1, 1]]
    b = [[3, 3, 3, 3]]
    c = [[1, 1, 1, 0]]
    d = [[1, 2, 3, 4]]
    for algo in ("auto", "thomas", "cr", "pcr", "rd"):
        x = solve_batch(a, b, c, d, algorithm=algo, check=False)
        assert x.dtype == np.float64, algo
        assert max_err(x, reference_solve(a, b, c, d)) < 1e-12, algo


# ---------------------------------------------------------------------------
# plans and the cache
# ---------------------------------------------------------------------------


def test_plan_describes_schedule():
    # Table I's c = 1 schedule (an unset c is sized for the host)
    plan = build_plan(8, 256, np.float64, k=3, n_windows=2, subtile_scale=1)
    assert plan.g == 8
    assert plan.subtile == 8
    assert plan.lead_in == 7
    assert plan.window_bounds == (0, 128, 256)
    assert plan.rounds() == 36  # ceil(142/8) + ceil(142/8)
    info = plan.describe()
    assert info["backend"] == "tiled-pcr+p-thomas"
    assert info["subsystems"] == 64


@pytest.mark.parametrize("m,n,k,fuse,nw", SIGNATURES)
def test_plan_rounds_match_the_sweep(engine, m, n, k, fuse, nw):
    # each window streams (r1 - r0) + 2 f(k) raw rows, one sub-tile per
    # round; k = 0 plans run no sweep and count no rounds
    a, b, c, d = make_batch(m, n, seed=m + n)
    engine.solve_batch(
        a, b, c, d, k=k, fuse=fuse, n_windows=nw, fingerprint=False
    )
    report = engine.last_report
    plan = build_plan(m, n, np.float64, k=report.k, fuse=fuse, n_windows=nw)
    assert plan.rounds() == report.tiling.subtiles


# ---------------------------------------------------------------------------
# the host-sized sub-tile (Table I's c) is a pure schedule change
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("nw", [1, 2, 3])
@pytest.mark.parametrize("fuse", [False, True])
@pytest.mark.parametrize("k", range(1, 9))
def test_host_subtile_keeps_the_bits(engine, k, fuse, nw, dtype):
    # N = 12·2^k + 37 is a multiple of no sub-tile, and the host picks
    # c = 2..8 across this grid
    m, n = 3, 12 * (1 << k) + 37
    a, b, c, d = make_batch(m, n, dtype=dtype, seed=k)
    opts = dict(k=k, fuse=fuse, n_windows=nw)
    assert engine.plan_for(m, n, dtype, **opts).subtile_scale > 1
    x = engine.solve_batch(a, b, c, d, **opts)
    for ref in (
        engine.solve_batch(a, b, c, d, subtile_scale=1, **opts),
        repro.solve_batch(a, b, c, d, backend="numpy", **opts),
    ):
        assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("c", [2, 8, 64])
@pytest.mark.parametrize("m,n,k", [(2, 40, 2), (1, 300, 6), (5, 1000, 3)])
def test_explicit_subtile_scale_is_honoured(engine, m, n, k, c):
    # sub-tiles up to and past N (N < 2S) still emit the same bits
    a, b, cc, d = make_batch(m, n, seed=n)
    plan = engine.plan_for(m, n, np.float64, k=k, subtile_scale=c)
    assert plan.subtile_scale == c and plan.subtile == c << k
    x = engine.solve_batch(a, b, cc, d, k=k, subtile_scale=c)
    assert engine.last_report.tiling.subtiles == plan.rounds()
    ref = repro.solve_batch(a, b, cc, d, backend="numpy", k=k)
    assert x.tobytes() == ref.tobytes()


def test_host_subtile_rule_at_the_fitted_budget():
    # HOST_BLOCK_ELEMENTS = 2^14 elements per ufunc block, the fitted
    # value; M·2^k at or above it keeps Table I's c = 1
    assert HOST_BLOCK_ELEMENTS == 1 << 14
    for (m, n), (k, c) in {
        (16, 8192): (7, 8),
        (64, 2048): (6, 4),
        (256, 512): (6, 1),
    }.items():
        plan = build_plan(m, n, np.float64)
        assert (plan.k, plan.subtile_scale) == (k, c), (m, n)
    # short regions keep several rounds; k = 0 plans run no window
    assert build_plan(1, 1024, np.float64, k=3, n_windows=4).subtile == 128
    assert build_plan(4096, 64, np.float64).subtile_scale == 1


def test_gpusim_still_prices_table_one_subtile():
    m, n = 16, 2048
    a, b, c, d = make_batch(m, n, seed=6)
    repro.solve_batch(a, b, c, d, backend="gpusim")
    trace = repro.last_trace()
    assert trace.k > 0
    table_one = GpuHybridSolver().predict(
        m, n, 8, k=trace.k, n_windows=trace.n_windows
    )
    assert trace.predicted_total_us == pytest.approx(
        sum(us for _, us in table_one.trace_stages()), rel=1e-12
    )


def test_plan_cache_hit_and_eviction():
    eng = ExecutionEngine(max_plans=2)
    p1 = eng.plan_for(4, 64, np.float64, k=2)
    assert eng.plan_for(4, 64, np.float64, k=2) is p1
    assert eng.stats.plan_hits == 1
    eng.plan_for(8, 64, np.float64, k=2)
    eng.plan_for(16, 64, np.float64, k=2)  # evicts p1 (LRU)
    assert eng.stats.plan_evictions == 1
    assert eng.plan_for(4, 64, np.float64, k=2) is not p1


def test_plan_cache_distinguishes_signatures():
    eng = ExecutionEngine()
    base = dict(k=2, fuse=False, n_windows=1, subtile_scale=1)
    p = eng.plan_for(4, 64, np.float64, **base)
    assert eng.plan_for(4, 64, np.float32, **base) is not p
    assert eng.plan_for(4, 64, np.float64, **{**base, "fuse": True}) is not p
    assert eng.plan_for(4, 64, np.float64, **{**base, "k": 3}) is not p
    assert eng.plan_for(4, 64, np.float64, **base) is p


def test_workspace_matches_plan():
    plan = build_plan(4, 128, np.float64, k=2)
    ws = PlanWorkspace(plan)
    assert ws.fits(plan)
    assert ws.nbytes > 0
    other = build_plan(4, 128, np.float64, k=3)
    assert not ws.fits(other)
    with pytest.raises(ValueError):
        a, b, c, d = make_batch(4, 128)
        execute_plan(other, ws, a, b, c, d)


def test_clear_drops_plans_but_engine_stays_usable():
    eng = ExecutionEngine()
    a, b, c, d = make_batch(4, 64, seed=1)
    x1 = eng.solve_batch(a, b, c, d)
    eng.clear()
    assert eng.stats.workspace_bytes == 0
    x2 = eng.solve_batch(a, b, c, d)
    assert np.array_equal(x1, x2)


def test_engine_owns_no_threads():
    # every solve runs on its caller's thread: solve -> bind -> step ->
    # prepare -> close starts none
    before = set(threading.enumerate())
    engine = ExecutionEngine()
    a, b, c, d = make_batch(64, 256, seed=8)
    engine.solve_batch(a, b, c, d)
    session = engine.bind(SolveRequest.build(a, b, c, d, k=0))
    session.step(d)
    session.step_t(np.ascontiguousarray(d.T))
    handle = engine.prepare(a, b, c, k=3)
    handle.solve(d)
    handle.close()
    session.close()
    assert set(threading.enumerate()) <= before


def test_default_engine_backs_public_api():
    eng = repro.default_engine()
    before = eng.stats.solves
    a, b, c, d = make_batch(3, 96, seed=11)
    repro.solve_batch(a, b, c, d)
    assert eng.stats.solves == before + 1


# ---------------------------------------------------------------------------
# report parity & vectorized elimination count
# ---------------------------------------------------------------------------


def test_last_report_matches_hybrid(engine):
    a, b, c, d = make_batch(5, 300, seed=8)
    hs = HybridSolver(k=3)
    hs.solve_batch(a, b, c, d)
    engine.solve_batch(a, b, c, d, k=3)
    r1, r2 = hs.last_report, engine.last_report
    for attr in ("m", "n", "k", "k_source", "subsystems", "fused",
                 "n_windows", "pcr_eliminations", "thomas_eliminations"):
        assert getattr(r1, attr) == getattr(r2, attr), attr
    assert r1.tiling.rows_loaded == r2.tiling.rows_loaded
    assert r1.tiling.eliminations == r2.tiling.eliminations


def test_thomas_eliminations_vectorized_matches_loop():
    for n, k in [(64, 0), (64, 3), (100, 2), (7, 3), (1, 0), (33, 5)]:
        rep = HybridReport(m=4, n=n, k=k)
        # the pre-vectorization definition, kept as the oracle
        g = 1 << k
        expected = 0
        for j in range(g):
            length = -(-(n - j) // g)
            if length > 0:
                expected += 2 * length - 1
        expected *= 4
        assert rep.thomas_eliminations == expected, (n, k)
        # cached: repeated access returns the same object state
        assert rep.thomas_eliminations == expected


def test_subsystem_lengths_partition_n():
    for n, k in [(64, 3), (100, 2), (7, 3), (1, 0)]:
        lengths = subsystem_lengths(n, k)
        assert lengths.sum() == n
