"""Prepared-solve pipeline: coefficient fingerprinting, the engine's
factorization cache, the explicit ``repro.prepare`` handle, and the
RHS-only fast path's numerics/trace contract."""

import numpy as np
import pytest

import repro
from repro.engine import ExecutionEngine, PreparedPlan, coefficient_fingerprint
from repro.engine.prepared import FINGERPRINT_SAMPLE, ThomasRhsFactorization

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
    # k > 0 RHS-only agrees to rounding, not bitwise — the default
    # (fingerprint=None) must not silently change results there
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
    assert np.allclose(x1, ref, rtol=1e-10, atol=1e-13)
    assert np.array_equal(x1, x2)


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


def test_prepare_handle_hybrid_allclose():
    a, b, c, d = make_batch(8, 300, seed=11)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, k=3)
    x = handle.solve(d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


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


def test_periodic_prepare_handle_hybrid_allclose():
    a, b, c, d = _cyclic_batch(8, 300, seed=35)
    engine = ExecutionEngine()
    handle = engine.prepare(a, b, c, periodic=True, k=3)
    x = handle.solve(d)
    ref = engine.solve_batch(a, b, c, d, periodic=True, k=3, fingerprint=False)
    assert np.allclose(x, ref, rtol=1e-10, atol=1e-13)


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
    from repro.engine.workspace import PreparedWorkspace

    engine = ExecutionEngine()
    plan = engine.plan_for(16, 40, np.dtype(np.float64), k=0)
    ws = PreparedWorkspace(plan)
    out = np.empty_like(d)
    fact.solve_shard(ws, d, out)
    assert max_err(out, reference_solve(a, b, c, d)) < 1e-11
