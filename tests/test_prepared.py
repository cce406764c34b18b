"""Prepared-solve pipeline: coefficient fingerprinting, the engine's
factorization cache, the explicit ``repro.prepare`` handle, and the
RHS-only fast path's numerics/trace contract."""

import numpy as np
import pytest

import repro
from repro.core.hybrid import HybridSolver
from repro.engine import ExecutionEngine, PreparedPlan, coefficient_fingerprint
from repro.engine.prepared import (
    FINGERPRINT_SAMPLE,
    ThomasRhsFactorization,
    build_factorization,
)
from repro.engine.workspace import PreparedWorkspace
from repro.workloads.pde import adi_row_coefficients, periodic_heat_coefficients

from .conftest import make_batch, max_err, reference_solve

# (M, N) in the paper's large-M regime: Table III picks k = 0 (Thomas),
# where the RHS-only path is bitwise identical to the unprepared solve.
K0_SHAPE = (1024, 64)


# ----------------------------------------------------------- fingerprint


def test_fingerprint_is_deterministic():
    a, b, c, _ = make_batch(4, 64, seed=0)
    assert coefficient_fingerprint(a, b, c) == coefficient_fingerprint(a, b, c)
    assert coefficient_fingerprint(a, b, c) == coefficient_fingerprint(
        a.copy(), b.copy(), c.copy()
    )


def test_fingerprint_changes_with_values_shape_dtype():
    a, b, c, _ = make_batch(4, 64, seed=1)
    base = coefficient_fingerprint(a, b, c)
    b2 = b.copy()
    b2[2, 30] *= 1.0 + 1e-12
    assert coefficient_fingerprint(a, b2, c) != base
    assert coefficient_fingerprint(b, a, c) != base  # order matters
    af, bf, cf = (v.astype(np.float32) for v in (a, b, c))
    assert coefficient_fingerprint(af, bf, cf) != base
    a3, b3, c3, _ = make_batch(4, 32, seed=1)
    assert coefficient_fingerprint(a3, b3, c3) != base


def test_fingerprint_sampled_path_detects_any_change():
    # above FINGERPRINT_SAMPLE elements the digest samples positions but
    # folds in chunk-sum checksums — a change *between* samples flips it
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, FINGERPRINT_SAMPLE))  # 8x the threshold
    base = coefficient_fingerprint(a)
    a2 = a.copy()
    a2[3, 1237] += 1e-9
    assert coefficient_fingerprint(a2) != base


def test_fingerprint_offsample_sum_preserving_swap_changes_digest():
    """Regression: the 2^20 collision construction.

    The original large-array digest hashed a strided sample plus one
    position-blind total checksum.  Swapping the values at two
    positions the sample misses preserves both views bit-for-bit, so
    the digest collided and the engine served a stale factorization.
    The grid checksum (per-row *and* per-column chunk sums) must tell
    the two arrays apart.
    """
    from repro.engine.prepared import _sample_indices

    size = 1 << 20
    rng = np.random.default_rng(30)
    # integer-valued floats: every partial sum is exact, so the swap
    # preserves the total checksum bitwise regardless of summation order
    a = rng.integers(-512, 512, size).astype(np.float64)
    sampled = set(_sample_indices(size).tolist())
    i = next(p for p in range(size) if p not in sampled)
    j = next(p for p in range(size - 1, -1, -1) if p not in sampled)
    a[i], a[j] = 1.0, 2.0
    base = coefficient_fingerprint(a)
    a2 = a.copy()
    a2[i], a2[j] = a[j], a[i]
    # the old digest's two views are identical ...
    assert np.sum(a2) == np.sum(a)
    assert np.array_equal(a2[_sample_indices(size)], a[_sample_indices(size)])
    # ... but the grid checksum catches the moved value
    assert coefficient_fingerprint(a2) != base


def test_offsample_edit_invalidates_factorization_cache():
    # the same construction end to end: after the swap the engine must
    # re-eliminate, never serve the stale factorization
    m, n = 1024, 1024  # 2^20 elements per array: the checksummed regime
    a, b, c, d = make_batch(m, n, seed=31)
    engine = ExecutionEngine()
    _info_solve(engine, a, b, c, d)
    _, info = _info_solve(engine, a, b, c, d)
    assert info.factorization == "factored"

    from repro.engine.prepared import _sample_indices

    sampled = set(_sample_indices(m * n).tolist())
    i = next(p for p in range(m * n) if p not in sampled)
    j = next(p for p in range(m * n - 1, -1, -1) if p not in sampled)
    flat = b.copy().reshape(-1)
    flat[i], flat[j] = flat[j], flat[i]  # sum-preserving off-sample edit
    b2 = flat.reshape(m, n)
    x, info = _info_solve(engine, a, b2, c, d)
    assert info.factorization == "miss"  # new digest: first sighting
    assert not info.rhs_only
    assert np.array_equal(
        x, engine.solve_batch(a, b2, c, d, fingerprint=False)
    )


# ------------------------------------------------ factorization cache


def _info_solve(engine, a, b, c, d, **kw):
    x = engine.solve_batch(a, b, c, d, **kw)
    return x, repro.last_trace()


def test_auto_fingerprint_lifecycle_k0():
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=3)
    engine = ExecutionEngine()
    ref = reference_solve(a, b, c, d)

    x1, i1 = _info_solve(engine, a, b, c, d)
    x2, i2 = _info_solve(engine, a, b, c, d)
    x3, i3 = _info_solve(engine, a, b, c, d)
    assert i1.factorization == "miss"       # first sighting: ledger only
    assert i2.factorization == "factored"   # second: build + serve
    assert i3.factorization == "hit"
    assert not i1.rhs_only and i2.rhs_only and i3.rhs_only
    # ... and the fast path changes no bits
    assert np.array_equal(x1, x2) and np.array_equal(x1, x3)
    assert max_err(x1, ref) < 1e-11
    assert engine.stats.factorizations_built == 1
    assert engine.stats.fingerprint_hits >= 1
    assert engine.stats.factorization_bytes > 0


def test_auto_fingerprint_new_rhs_hits_cache():
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=4)
    engine = ExecutionEngine()
    _info_solve(engine, a, b, c, d)
    _info_solve(engine, a, b, c, d)
    d2 = np.random.default_rng(9).standard_normal((m, n))
    x, info = _info_solve(engine, a, b, c, d2)
    assert info.factorization == "hit"
    assert np.array_equal(
        x, engine.solve_batch(a, b, c, d2, fingerprint=False)
    )


def test_changed_coefficients_miss():
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=5)
    engine = ExecutionEngine()
    _info_solve(engine, a, b, c, d)
    _info_solve(engine, a, b, c, d)
    b2 = b + 0.25
    _, info = _info_solve(engine, a, b2, c, d)
    assert info.factorization == "miss"


def test_auto_stays_off_for_hybrid_plans():
    # k > 0 RHS-only keeps the one-shot's bits, but a k > 0
    # factorization holds 2k + 3 (N, M) arrays: the default
    # (fingerprint=None) does not pay for one without a reuse intent
    a, b, c, d = make_batch(8, 256, seed=6)
    engine = ExecutionEngine()
    for _ in range(3):
        _, info = _info_solve(engine, a, b, c, d, k=4)
        assert info.factorization == "n/a"
        assert not info.rhs_only
    assert engine.stats.factorizations_built == 0


def test_forced_fingerprint_runs_hybrid_prepared():
    a, b, c, d = make_batch(8, 256, seed=7)
    engine = ExecutionEngine()
    ref = engine.solve_batch(a, b, c, d, k=4, fingerprint=False)
    x1, i1 = _info_solve(engine, a, b, c, d, k=4, fingerprint=True)
    x2, i2 = _info_solve(engine, a, b, c, d, k=4, fingerprint=True)
    assert i1.factorization == "factored"   # True forces factor-on-first
    assert i2.factorization == "hit" and i2.rhs_only
    assert x1.tobytes() == ref.tobytes()
    assert x2.tobytes() == ref.tobytes()


def test_fingerprint_false_disables_cache():
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=8)
    engine = ExecutionEngine()
    for _ in range(3):
        _, info = _info_solve(engine, a, b, c, d, fingerprint=False)
        assert info.factorization == "off"
        assert not info.rhs_only
    assert engine.stats.fingerprint_hits == 0


def test_factorization_cache_eviction_is_lru():
    m, n = 64, 32
    engine = ExecutionEngine(max_factorizations=2)
    batches = [make_batch(m, n, seed=20 + i) for i in range(3)]
    for a, b, c, d in batches:
        _info_solve(engine, a, b, c, d, k=0, fingerprint=True)
    assert engine.stats.factorizations_built == 3
    assert engine.stats.factorization_evictions == 1
    # oldest entry was evicted: solving it again rebuilds
    a, b, c, d = batches[0]
    _, info = _info_solve(engine, a, b, c, d, k=0, fingerprint=True)
    assert info.factorization == "factored"


def test_clear_drops_factorizations():
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=9)
    engine = ExecutionEngine()
    _info_solve(engine, a, b, c, d)
    _info_solve(engine, a, b, c, d)
    assert engine.stats.factorization_bytes > 0
    engine.clear()
    assert engine.stats.factorization_bytes == 0
    _, info = _info_solve(engine, a, b, c, d)
    assert info.factorization == "miss"  # ledger cleared too


# ------------------------------------------------------------ handle API


def test_prepare_handle_bitwise_k0():
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=10)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c)
    assert isinstance(handle, PreparedPlan)
    assert handle.k == 0
    x = handle.solve(d)
    assert np.array_equal(
        x, engine.solve_batch(a, b, c, d, fingerprint=False)
    )
    assert handle.solves == 1


def test_prepare_handle_hybrid_bitwise():
    a, b, c, d = make_batch(8, 300, seed=11)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, k=3)
    x = handle.solve(d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10
    ref = engine.solve_batch(a, b, c, d, k=3, fingerprint=False)
    assert x.tobytes() == ref.tobytes()


def test_prepare_seeds_solve_batch_cache():
    # an explicit handle and a later solve_batch with the same
    # coefficients share one cached factorization
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=12)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c)
    _, info = _info_solve(engine, a, b, c, d)
    assert info.factorization == "hit"
    assert engine.stats.factorizations_built == 1
    assert np.array_equal(
        handle.solve(d), engine.solve_batch(a, b, c, d, fingerprint=False)
    )


def test_prepare_handle_describe_and_nbytes():
    a, b, c, _ = make_batch(4, 128, seed=13)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, k=2)
    desc = handle.describe()
    assert desc["m"] == 4 and desc["n"] == 128 and desc["k"] == 2
    assert desc["fingerprint"] == coefficient_fingerprint(a, b, c)
    assert handle.nbytes > 0
    assert handle.dtype == np.float64


def test_prepare_handle_validates_rhs():
    a, b, c, _ = make_batch(4, 128, seed=14)
    handle = ExecutionEngine().prepare(a, b, c)
    with pytest.raises(ValueError, match="shape"):
        handle.solve(np.zeros((4, 64)))
    bad = np.zeros((4, 128))
    bad[1, 3] = np.nan
    with pytest.raises(ValueError):
        handle.solve(bad)


def test_module_level_prepare_uses_default_engine():
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=15)
    handle = repro.prepare(a, b, c)
    x = handle.solve(d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-11
    trace = repro.last_trace()
    assert trace.backend == "prepared"
    assert trace.factorization == "handle"
    assert trace.rhs_only is True


def test_prepared_solve_preserves_float32():
    a, b, c, d = make_batch(512, 64, dtype=np.float32, seed=16)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, k=0)
    x = handle.solve(d)
    assert x.dtype == np.float32
    assert np.array_equal(
        x, engine.solve_batch(a, b, c, d, k=0, fingerprint=False)
    )


# ----------------------------------------------------- periodic prepared


def _cyclic_batch(m, n, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    b = (4.0 + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c, d


def test_periodic_auto_lifecycle_k0():
    m, n = K0_SHAPE
    a, b, c, d = _cyclic_batch(m, n, seed=32)
    engine = ExecutionEngine()
    x1, info1 = _info_solve(engine, a, b, c, d, periodic=True)
    x2, info2 = _info_solve(engine, a, b, c, d, periodic=True)
    x3, info3 = _info_solve(engine, a, b, c, d, periodic=True)
    assert info1.factorization == "miss"
    assert info2.factorization == "factored"
    assert info3.factorization == "hit"
    assert not info1.rhs_only and info2.rhs_only and info3.rhs_only
    assert all(i.periodic for i in (info1, info2, info3))
    # the cyclic RHS-only fast path changes no bits at k = 0
    assert np.array_equal(x1, x2) and np.array_equal(x1, x3)
    assert engine.stats.factorizations_built == 1
    assert engine.stats.rhs_only_solves == 2


def test_periodic_and_plain_factorizations_do_not_collide():
    # identical (padded) coefficient arrays, so identical digests: only
    # the cache key's periodic flag separates the two factorizations —
    # neither solve may ever serve the other's entry
    m, n = K0_SHAPE
    a, b, c, d = make_batch(m, n, seed=33)
    engine = ExecutionEngine()
    _info_solve(engine, a, b, c, d)
    _, info = _info_solve(engine, a, b, c, d)
    assert info.factorization == "factored"  # plain entry cached
    _, info = _info_solve(engine, a, b, c, d, periodic=True)
    assert info.factorization == "miss"  # cyclic key: first sighting


def test_periodic_prepare_handle_bitwise_k0():
    m, n = K0_SHAPE
    a, b, c, d = _cyclic_batch(m, n, seed=34)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, periodic=True)
    assert handle.k == 0
    assert handle.describe()["periodic"] is True
    x = handle.solve(d)
    assert np.array_equal(
        x, engine.solve_batch(a, b, c, d, periodic=True, fingerprint=False)
    )


def test_periodic_prepare_handle_hybrid_bitwise():
    a, b, c, d = _cyclic_batch(8, 300, seed=35)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, periodic=True, k=3)
    x = handle.solve(d)
    ref = engine.solve_batch(a, b, c, d, periodic=True, k=3, fingerprint=False)
    assert x.tobytes() == ref.tobytes()


def test_periodic_prepare_seeds_solve_periodic_cache():
    m, n = K0_SHAPE
    a, b, c, d = _cyclic_batch(m, n, seed=36)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, periodic=True)
    x, info = _info_solve(engine, a, b, c, d, periodic=True)
    assert info.factorization == "hit"
    assert engine.stats.factorizations_built == 1
    assert np.array_equal(handle.solve(d), x)


def test_periodic_prepare_singular_raises_at_factor_time():
    from repro.core.periodic import CyclicSingularError

    n = 24
    a = np.full((2, n), -1.0)
    c = np.full((2, n), -1.0)
    b = np.full((2, n), 2.0)  # periodic Laplacian: constant nullvector
    with pytest.raises(CyclicSingularError, match="row"):
        ExecutionEngine().prepare(a, b, c, periodic=True)


def test_module_level_prepare_periodic():
    m, n = K0_SHAPE
    a, b, c, d = _cyclic_batch(m, n, seed=38)
    handle = repro.prepare(a, b, c, periodic=True)
    x = handle.solve(d)
    trace = repro.last_trace()
    assert trace.backend == "prepared"
    assert trace.periodic is True
    assert trace.rhs_only is True
    assert np.array_equal(
        x, repro.solve_periodic_batch(a, b, c, d, fingerprint=False)
    )


# ------------------------------------------------- RHS factorization unit


def test_thomas_rhs_factorization_matches_reference():
    a, b, c, d = make_batch(16, 40, seed=19)
    fact = ThomasRhsFactorization.factor(a, b, c)
    assert fact.m == 16 and fact.n == 40
    assert fact.nbytes == 3 * a.nbytes
    engine = ExecutionEngine()
    plan = engine.plan_for(16, 40, np.dtype(np.float64), k=0)
    ws = PreparedWorkspace(plan)
    out = np.empty_like(d)
    fact.solve_shard(ws, d, out)
    assert max_err(out, reference_solve(a, b, c, d)) < 1e-11


@pytest.mark.parametrize("k", [0, 3])
def test_prepared_workspace_counts_staging_from_the_first_solve_shard(k):
    # the staging pair is allocated by the first sweep that stages, and
    # the engine's ledger takes the grown nbytes at check-in
    a, b, c, d = make_batch(8, 100, seed=23 + k)
    engine = ExecutionEngine()
    plan = engine.plan_for(8, 100, np.dtype(np.float64), k=k)
    fact = build_factorization(plan, a, b, c)
    ws = engine._checkout(plan, PreparedWorkspace)
    held = ws.nbytes
    x = np.empty_like(d)
    fact.solve_shard(ws, d, x)
    staged = held + 2 * ws.dp.nbytes
    assert ws.nbytes == staged
    fact.solve_shard(ws, d, x)  # allocated once
    assert ws.nbytes == staged
    engine._checkin(plan, ws)
    assert engine.stats.workspace_bytes == staged
    ref = engine.solve_batch(a, b, c, d, k=k, fingerprint=False)
    assert x.tobytes() == ref.tobytes()


# ------------------------------------------ factored bits at every k > 0

#: (M, N, route options, reference options) per case: a ragged N (2^k
#: does not divide it), M = 1, fused p-Thomas, the reference's Fig. 11b
#: schedule of three windows, and N = 2^k, where the requested 2^k
#: reaches N and the plan clamps k on every route alike.  The one-shot
#: reference is ``HybridSolver(k=k, **reference options)``.
BITS_CASES = {
    "ragged": (4, 777, {}, {}),
    "m1": (1, 1500, {}, {}),
    "fuse": (8, 640, {"fuse": True}, {"fuse": True}),
    "windows": (8, 640, {}, {"n_windows": 3}),
    "2^k=N": (3, None, {}, {}),
}


@pytest.mark.parametrize("case", sorted(BITS_CASES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 3, 5, 7, 8])
def test_every_factored_route_has_the_one_shot_bits(k, dtype, case):
    from repro.backends import bind_via

    m, n, opts, ref_opts = BITS_CASES[case]
    n = n or 1 << k
    a, b, c, d = make_batch(m, n, dtype=dtype, seed=k + n)
    engine = ExecutionEngine()
    ref = HybridSolver(k=k, **ref_opts).solve_batch(a, b, c, d)
    x = engine.solve_batch(a, b, c, d, k=k, fingerprint=False, **opts)
    assert x.tobytes() == ref.tobytes()

    with bind_via(a, b, c, d, backend="engine", k=k, fingerprint=True, **opts) as s:
        assert s.describe()["mode"] == "rhs"
        assert s.step(d).tobytes() == ref.tobytes()
        xt = s.step_t(np.ascontiguousarray(d.T))
        assert xt.T.tobytes(order="C") == ref.tobytes()
        assert s.step_once(d).x.tobytes() == ref.tobytes()
    handle = repro.prepare(a, b, c, engine=engine, k=k, **opts)
    assert handle.solve(d).tobytes() == ref.tobytes()

    if n < 3:  # a cyclic system needs N >= 3
        return
    ca, cb, cc, cd = _cyclic_batch(m, n, dtype=dtype, seed=k)
    cref = engine.solve_batch(
        ca, cb, cc, cd, periodic=True, k=k, fingerprint=False, **opts
    )
    periodic = repro.prepare(ca, cb, cc, engine=engine, periodic=True, k=k, **opts)
    assert periodic.solve(cd).tobytes() == cref.tobytes()


@pytest.mark.parametrize("n", [1, 5, 8, 13, 100])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7])
def test_thomas_rhs_sweep_at_stride_g_is_pthomas(k, n):
    # below the engine's clamp too: a short last level and 2^k >= N
    # (every row its own subsystem) keep p-Thomas's bits
    from repro.core.factorize import RhsWorkspace
    from repro.core.pthomas import pthomas_solve_interleaved

    a, b, c, d = make_batch(3, n, seed=k * 100 + n)
    fact = ThomasRhsFactorization.factor(a, b, c, g=1 << k)
    x = np.empty_like(d)
    fact.solve_shard(RhsWorkspace((n, 3), k, d.dtype), d, x)
    assert x.tobytes() == pthomas_solve_interleaved(a, b, c, d, k).tobytes()


# ------------------------------------- one coefficient column at k = 0


def _uniform_batch(m, n, dtype, seed):
    """ADI coefficients (every row one matrix) and a random ``d``."""
    a, b, c = adi_row_coefficients(m, n, 0.3, dtype=dtype)
    d = np.random.default_rng(seed).standard_normal((m, n)).astype(dtype)
    return a, b, c, d


def _assert_one_column(fact, n, dtype):
    assert fact.m == 1
    assert fact.ta.shape == fact.cp.shape == fact.denom.shape == (n, 1)
    assert fact.nbytes == 3 * n * np.dtype(dtype).itemsize


@pytest.mark.parametrize("shape", [(2, 3), (8, 97), (1024, 1024)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_uniform_batch_sweeps_one_column_with_the_one_shot_bits(dtype, shape):
    from repro.backends import bind_via

    m, n = shape
    a, b, c, d = _uniform_batch(m, n, dtype, seed=m + n)
    engine = ExecutionEngine()
    ref = repro.solve_batch(a, b, c, d, k=0, fingerprint=False)

    with bind_via(a, b, c, d, backend="engine", k=0, fingerprint=True) as s:
        _assert_one_column(s.fact, n, dtype)
        assert s.describe()["factorization_bytes"] == s.fact.nbytes
        assert s.step(d).tobytes() == ref.tobytes()
        xt = s.step_t(np.ascontiguousarray(d.T))
        assert xt.T.tobytes(order="C") == ref.tobytes()
        assert s.step_once(d).x.tobytes() == ref.tobytes()
    handle = repro.prepare(a, b, c, engine=engine, k=0)
    _assert_one_column(handle.factorization, n, dtype)
    assert handle.describe()["factorization_bytes"] == handle.nbytes
    assert handle.solve(d).tobytes() == ref.tobytes()

    ca, cb, cc = periodic_heat_coefficients(m, n, 1.0, 0.5, 1.0, dtype=dtype)
    cref = repro.solve_batch(
        ca, cb, cc, d, periodic=True, k=0, fingerprint=False
    )
    periodic = repro.prepare(ca, cb, cc, engine=engine, periodic=True, k=0)
    _assert_one_column(periodic.factorization.core, n, dtype)
    assert periodic.solve(d).tobytes() == cref.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_uniform_column_sweeps_a_stack_of_right_hand_sides(dtype):
    from repro.core.factorize import RhsWorkspace

    m, n, r = 16, 97, 3
    a, b, c, _ = _uniform_batch(m, n, dtype, seed=1)
    d = np.random.default_rng(2).standard_normal((m, n, r)).astype(dtype)
    fact = ThomasRhsFactorization.factor(a, b, c)
    _assert_one_column(fact, n, dtype)
    x = np.empty_like(d)
    fact.solve_shard(RhsWorkspace((n, m, r), 0, dtype), d, x)
    for j in range(r):
        dj = np.ascontiguousarray(d[..., j])
        ref = repro.solve_batch(a, b, c, dj, k=0, fingerprint=False)
        assert np.ascontiguousarray(x[..., j]).tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_uniform_ranks_session_keeps_the_reference_bits(dtype):
    from repro.backends import bind_via
    from repro.distributed import partitioned_solve_reference
    from repro.distributed.partition import factor_slab, slab_bounds

    m, n = 64, 512
    a, b, c, d = _uniform_batch(m, n, dtype, seed=5)
    lo, hi = slab_bounds(n, 2)[0]
    slab = factor_slab(*(np.ascontiguousarray(v.T[lo:hi]) for v in (a, b, c)))
    _assert_one_column(slab.fact, hi - lo - 2, dtype)
    rng = np.random.default_rng(6)
    with bind_via(a, b, c, d, backend="distributed", ranks=2) as s:
        for _ in range(2):
            dd = rng.standard_normal((m, n)).astype(dtype)
            ref = partitioned_solve_reference(a, b, c, dd, 2)
            assert s.step(dd).tobytes() == ref.tobytes()


@pytest.mark.parametrize("edit", ["sign of one zero", "last row"])
def test_a_batch_that_is_not_bytewise_uniform_keeps_full_width(edit):
    m, n = 8, 97
    a, b, c, d = _uniform_batch(m, n, np.float64, seed=7)
    if edit == "sign of one zero":
        # rows that compare equal as floats but not as bits
        a[:, 40] = 0.0
        a[3, 40] = -0.0
    else:
        b[-1, 50] = np.nextafter(b[-1, 50], 2.0)
    ref = repro.solve_batch(a, b, c, d, k=0, fingerprint=False)
    handle = repro.prepare(a, b, c, engine=ExecutionEngine(), k=0)
    fact = handle.factorization
    assert fact.m == m and fact.nbytes == 3 * a.nbytes
    assert handle.solve(d).tobytes() == ref.tobytes()
