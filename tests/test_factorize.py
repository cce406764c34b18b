"""Factorization reuse: the hybrid factor-once / solve-many, Thomas at k = 0."""

import numpy as np
import pytest

from repro.core.factorize import HybridFactorization, ThomasRhsFactorization
from repro.workloads.pde import adi_row_coefficients

from .conftest import make_batch, max_err, reference_solve


# ---- k = 0: factor-once Thomas --------------------------------------------------


def _thomas(a, b, c):
    """The factor-once Thomas: the hybrid factorization at ``k = 0``."""
    fact = HybridFactorization.factor(a, b, c, k=0)
    assert fact.k == 0 and not fact.level_factors
    return fact


@pytest.mark.parametrize("m,n", [(1, 64), (4, 100), (16, 33)])
def test_thomas_factor_solve(m, n):
    a, b, c, d = make_batch(m, n, seed=m + n)
    fact = _thomas(a, b, c)
    x = fact.solve(d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-11


def test_thomas_factor_matches_direct():
    from repro.core.thomas import thomas_solve_batch

    a, b, c, d = make_batch(3, 50, seed=1)
    fact = _thomas(a, b, c)
    assert fact.solve(d).tobytes() == thomas_solve_batch(a, b, c, d).tobytes()


def test_thomas_factor_reuse_is_linear():
    a, b, c, d = make_batch(2, 40, seed=2)
    fact = _thomas(a, b, c)
    x1 = fact.solve(d)
    x2 = fact.solve(3.0 * d)
    assert np.allclose(x2, 3.0 * x1, atol=1e-12)


def test_thomas_multi_rhs():
    m, n, r = 3, 32, 5
    a, b, c, _ = make_batch(m, n, seed=3)
    rng = np.random.default_rng(0)
    D = rng.standard_normal((m, n, r))
    fact = _thomas(a, b, c)
    X = fact.solve(D)
    assert X.shape == (m, n, r)
    for j in range(r):
        assert max_err(X[:, :, j], reference_solve(a, b, c, D[:, :, j])) < 1e-11
        assert X[:, :, j].tobytes() == fact.solve(D[:, :, j]).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_thomas_multi_rhs_preserves_dtype(dtype):
    m, n, r = 4, 48, 3
    a, b, c, _ = make_batch(m, n, dtype=dtype, seed=30)
    D = np.random.default_rng(5).standard_normal((m, n, r)).astype(dtype)
    fact = _thomas(a, b, c)
    X = fact.solve(D)
    assert X.dtype == dtype
    tol = 1e-4 if dtype == np.float32 else 1e-11
    for j in range(r):
        assert max_err(X[:, :, j], reference_solve(a, b, c, D[:, :, j])) < tol


def test_thomas_solve_accepts_f_ordered_and_strided_d():
    m, n = 6, 80
    a, b, c, d = make_batch(m, n, seed=31)
    fact = _thomas(a, b, c)
    ref = fact.solve(d)
    assert np.array_equal(fact.solve(np.asfortranarray(d)), ref)
    wide = np.zeros((m, 2 * n))
    wide[:, ::2] = d
    strided = wide[:, ::2]
    assert strided.strides != d.strides  # genuinely non-contiguous
    assert np.array_equal(fact.solve(strided), ref)


def test_thomas_solve_scratch_and_out_reuse_is_clean():
    # caller-owned buffers reused across different right-hand sides
    # must not leak state between solves
    m, n = 5, 64
    a, b, c, d = make_batch(m, n, seed=32)
    d2 = np.random.default_rng(6).standard_normal((m, n))
    fact = _thomas(a, b, c)
    scratch: dict = {}
    out = np.empty_like(d)
    x1 = fact.solve(d, out=out, scratch=scratch).copy()
    x2 = fact.solve(d2, out=out, scratch=scratch)
    assert x2 is out
    assert np.array_equal(x1, fact.solve(d))
    assert np.array_equal(x2, fact.solve(d2))


def test_thomas_factor_shape_check():
    a, b, c, _ = make_batch(2, 16, seed=4)
    fact = _thomas(a, b, c)
    with pytest.raises(ValueError, match="leading shape"):
        fact.solve(np.zeros((2, 17)))


def test_thomas_factor_properties():
    a, b, c, _ = make_batch(5, 20, seed=5)
    fact = _thomas(a, b, c)
    assert fact.reduced.m == 5 and fact.reduced.n == 20
    assert fact.reduced.g == 1


def _adi_column(n, beta):
    return [v.T.copy() for v in adi_row_coefficients(1, n, beta)]


def _columns():
    """``(N, 1)`` coefficient columns: ADI runs, runs that change
    mid-column, a one-row bump, signed zeros and a column that never
    repeats."""
    cols = {
        f"adi-{n}-{beta}": _adi_column(n, beta)
        for n in (96, 1024)
        for beta in (0.05, 0.3, 1.0, 10.0)
    }
    low, high = _adi_column(1024, 0.3), _adi_column(1024, 10.0)
    cols["beta-switch"] = [np.concatenate([u[:400], v[400:]]) for u, v in zip(low, high)]
    bump = _adi_column(1024, 1.0)
    bump[1][700] += 0.5
    cols["bump"] = bump
    signed = _adi_column(256, 0.3)
    signed[0][100:] = -0.0 * signed[0][100:]  # a = -0.0 from row 100 on
    cols["signed-zero"] = signed
    a, b, c, _ = make_batch(1, 300, seed=6)
    cols["random"] = [v.T.copy() for v in (a, b, c)]
    return cols


@pytest.mark.parametrize("name", sorted(_columns()))
def test_one_column_fills_its_repeating_rows_with_the_row_loops_bytes(name):
    # a two-column copy walks every row (the full-width loop); the one
    # column fills each run once its rows repeat, with the same bytes
    col = _columns()[name]
    one = ThomasRhsFactorization.factor_t(*(v.copy() for v in col))
    two = ThomasRhsFactorization.factor_t(*(np.repeat(v, 2, axis=1) for v in col))
    for mine, loop in ((one.cp, two.cp), (one.denom, two.denom), (one.ta, two.ta)):
        assert mine.shape[1] == 1
        assert mine.tobytes() == np.ascontiguousarray(loop[:, :1]).tobytes()


# ---- hybrid factorization -----------------------------------------------------


@pytest.mark.parametrize("m,n,k", [(1, 128, 3), (4, 100, 2), (8, 257, 4), (2, 64, 0)])
def test_hybrid_factor_solve(m, n, k):
    a, b, c, d = make_batch(m, n, seed=m * n + k)
    fact = HybridFactorization.factor(a, b, c, k=k)
    x = fact.solve(d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


def test_hybrid_factor_default_k_heuristic():
    a, b, c, d = make_batch(64, 4096, seed=6)
    fact = HybridFactorization.factor(a, b, c)
    assert fact.k == 6  # Table III for M = 64
    x = fact.solve(d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


def test_hybrid_factor_matches_hybrid_solver():
    from repro.core.hybrid import HybridSolver

    a, b, c, d = make_batch(4, 200, seed=7)
    fact = HybridFactorization.factor(a, b, c, k=3)
    x1 = fact.solve(d)
    x2 = HybridSolver(k=3).solve_batch(a, b, c, d)
    assert x1.tobytes() == x2.tobytes()


def test_hybrid_factor_reuse_many_rhs():
    """Time-stepping pattern: one factorization, many solves."""
    m, n = 8, 256
    a, b, c, _ = make_batch(m, n, seed=8)
    fact = HybridFactorization.factor(a, b, c, k=4)
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = rng.standard_normal((m, n))
        x = fact.solve(d)
        assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


def test_hybrid_factor_multi_rhs():
    m, n, r, k = 2, 96, 4, 3
    a, b, c, _ = make_batch(m, n, seed=9)
    rng = np.random.default_rng(2)
    D = rng.standard_normal((m, n, r))
    fact = HybridFactorization.factor(a, b, c, k=k)
    X = fact.solve(D)
    for j in range(r):
        assert max_err(X[:, :, j], reference_solve(a, b, c, D[:, :, j])) < 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hybrid_multi_rhs_preserves_dtype(dtype):
    m, n, r, k = 3, 96, 4, 3
    a, b, c, _ = make_batch(m, n, dtype=dtype, seed=33)
    D = np.random.default_rng(7).standard_normal((m, n, r)).astype(dtype)
    fact = HybridFactorization.factor(a, b, c, k=k)
    X = fact.solve(D)
    assert X.shape == (m, n, r) and X.dtype == dtype
    tol = 1e-3 if dtype == np.float32 else 1e-10
    for j in range(r):
        assert max_err(X[:, :, j], reference_solve(a, b, c, D[:, :, j])) < tol


def test_hybrid_solve_scratch_dict_reuse_is_clean():
    # the same scratch dict over many steps (the prepared-path pattern)
    # must give the same bits as fresh allocations — including a short
    # last level slab when n does not divide by 2^k
    m, n, k = 4, 100, 3  # 100 not divisible by 8 -> short last level
    a, b, c, d = make_batch(m, n, seed=34)
    d2 = np.random.default_rng(8).standard_normal((m, n))
    fact = HybridFactorization.factor(a, b, c, k=k)
    scratch: dict = {}
    x1 = fact.solve(d, scratch=scratch)
    x2 = fact.solve(d2, scratch=scratch)
    x3 = fact.solve(d, scratch=scratch)
    assert np.array_equal(x1, fact.solve(d))
    assert np.array_equal(x2, fact.solve(d2))
    assert np.array_equal(x1, x3)


def test_hybrid_solve_accepts_f_ordered_d():
    a, b, c, d = make_batch(4, 128, seed=35)
    fact = HybridFactorization.factor(a, b, c, k=3)
    assert np.array_equal(fact.solve(np.asfortranarray(d)), fact.solve(d))


def test_hybrid_solve_does_not_mutate_input():
    a, b, c, d = make_batch(4, 128, seed=36)
    fact = HybridFactorization.factor(a, b, c, k=3)
    d0 = d.copy()
    fact.solve(d)
    assert np.array_equal(d, d0)


def test_hybrid_factor_stores_k_levels():
    a, b, c, _ = make_batch(1, 128, seed=10)
    fact = HybridFactorization.factor(a, b, c, k=4)
    assert len(fact.level_factors) == 4
    for k1, k2 in fact.level_factors:
        assert k1.shape == k2.shape == (128, 1)  # the transposed (N, M) layout
    assert fact.reduced.g == 16 and fact.reduced.ta.shape == (128, 1)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_stored_factor_arrays_own_their_bytes(k):
    # the levels are eliminated over identity-padded scratch; what the
    # factorization keeps is never a view into it, so nbytes is true
    m, n = 3, 100
    a, b, c, _ = make_batch(m, n, seed=k)
    fact = HybridFactorization.factor(a, b, c, k=k)
    stored = [arr for name, arr in fact.arrays().items() if name != "k"]
    assert len(stored) == 2 * k + 3
    for arr in stored:
        assert arr.shape == (n, m) and arr.flags.owndata and arr.flags.c_contiguous
    assert fact.nbytes == sum(arr.nbytes for arr in stored) == (2 * k + 3) * n * m * 8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_rows_no_sweep_reads_change_no_bit(k, dtype):
    # Every level's k1[:s] and k2[N - s:] and the reduced ta[:2^k] and
    # cp[N - 2^k:] couple to rows outside the system.  The reduced rows'
    # zero signs depend on how the levels were eliminated, so no sweep
    # may read any of them: NaN there must not reach a solve, stored or
    # rebuilt from spill arrays.
    m, n = 5, 1003  # ragged: 2^k never divides N
    a, b, c, d = make_batch(m, n, dtype=dtype, seed=k)
    fact = HybridFactorization.factor(a, b, c, k=k)
    assert fact.k == k
    clean = fact.solve(d)

    def poison(f):
        s = 1
        for k1, k2 in f.level_factors:
            k1[:s] = np.nan
            k2[n - s:] = np.nan
            s *= 2
        g = f.reduced.g
        f.reduced.ta[:g] = np.nan
        f.reduced.cp[n - g:] = np.nan
        return f

    rebuilt = HybridFactorization.from_arrays(
        {name: arr.copy() for name, arr in fact.arrays().items()}
    )
    for f in (poison(rebuilt), poison(fact)):
        assert f.solve(d).tobytes() == clean.tobytes()


def test_hybrid_factor_uninitialized():
    fact = HybridFactorization(k=2)
    with pytest.raises(RuntimeError, match="factor"):
        fact.solve(np.zeros((1, 8)))


def test_cn_time_stepping_with_factorization():
    """Integration: Crank–Nicolson reuses one factorization per run."""
    from repro.workloads.pde import crank_nicolson_system

    m, n = 16, 128
    alpha, dt = 0.1, 1e-3
    dx = 1.0 / (n - 1)
    xg = np.linspace(0, 1, n)
    u = np.sin(np.pi * xg)[None, :] * np.ones((m, 1))
    a, b, c, d = crank_nicolson_system(u, alpha, dt, dx)
    fact = HybridFactorization.factor(a, b, c, k=3)
    for _ in range(20):
        _, _, _, d = crank_nicolson_system(u, alpha, dt, dx)
        u = fact.solve(d)
    decay = np.exp(-alpha * np.pi**2 * dt * 20)
    measured = u[0, n // 2] / np.sin(np.pi * 0.5)
    assert measured == pytest.approx(decay, rel=1e-3)
