"""Batched pentadiagonal LU (cuPentBatch-style interleaved layout)."""

import numpy as np
import pytest

from repro.core.pentadiag import (
    penta_factor,
    penta_to_dense,
    pentadiag_solve_batch,
)
from repro.workloads.generators import random_penta_batch


@pytest.mark.parametrize("n", [5, 8, 33, 128])
def test_matches_dense(n):
    m = 4
    e, a, b, c, f, d = random_penta_batch(m, n, seed=n)
    x = pentadiag_solve_batch(e, a, b, c, f, d)
    dense = penta_to_dense(e, a, b, c, f)
    ref = np.linalg.solve(dense, d[..., None])[..., 0]
    assert np.allclose(x, ref, atol=1e-9)


def test_prepared_bitwise_matches_cold():
    e, a, b, c, f, d = random_penta_batch(8, 64, seed=7)
    cold = pentadiag_solve_batch(e, a, b, c, f, d)
    fact = penta_factor(e, a, b, c, f)
    assert np.array_equal(fact.solve(d), cold)
    # a second RHS through the same factorization
    rng = np.random.default_rng(11)
    d2 = rng.standard_normal(d.shape)
    assert np.array_equal(
        fact.solve(d2), pentadiag_solve_batch(e, a, b, c, f, d2)
    )


def test_zero_outer_diagonals_bitwise_equals_thomas():
    """With e = f = 0 the LU recurrences collapse to exactly the scalar
    Thomas op sequence — the degenerate penta solve is *bitwise* the
    tridiagonal solve."""
    from repro.core.thomas import thomas_solve_batch
    from repro.workloads.generators import random_batch

    m, n = 6, 96
    a, b, c, d = random_batch(m, n, seed=3)
    z = np.zeros_like(b)
    x_penta = pentadiag_solve_batch(z, a, b, c, z, d)
    x_tri = thomas_solve_batch(a, b, c, d)
    assert np.array_equal(x_penta, x_tri)


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_n_edges(n):
    """N = 1 (pure diagonal) and N = 2 (no second diagonals at all)."""
    m = 3
    rng = np.random.default_rng(n)
    b = 4.0 + rng.random((m, n))
    z = np.zeros((m, n))
    a = z.copy()
    c = z.copy()
    if n == 2:
        a[:, 1] = rng.standard_normal(m)
        c[:, 0] = rng.standard_normal(m)
    d = rng.standard_normal((m, n))
    x = pentadiag_solve_batch(z, a, b, c, z, d)
    dense = penta_to_dense(z, a, b, c, z)
    ref = np.linalg.solve(dense, d[..., None])[..., 0]
    assert np.allclose(x, ref, atol=1e-12)


def test_float32_preserved():
    e, a, b, c, f, d = (
        v.astype(np.float32)
        for v in random_penta_batch(4, 32, seed=9, dominance=4.0)
    )
    x = pentadiag_solve_batch(e, a, b, c, f, d)
    assert x.dtype == np.float32
    fact = penta_factor(e, a, b, c, f)
    assert fact.dtype == np.float32
    assert np.array_equal(fact.solve(d), x)


def test_factorization_reports_size():
    e, a, b, c, f, _ = random_penta_batch(4, 16, seed=1)
    fact = penta_factor(e, a, b, c, f)
    assert fact.m == 4 and fact.n == 16
    assert fact.nbytes == 5 * 4 * 16 * 8


def test_validation():
    e, a, b, c, f, d = random_penta_batch(2, 8, seed=0)
    with pytest.raises(ValueError, match="shape"):
        pentadiag_solve_batch(e, a, b, c, f, d[:, :4])
    # out-of-matrix pads are zeroed by validation, not an error
    # (same contract as the tridiagonal batch checks)
    bad_e = e.copy()
    bad_e[:, 0] = 1.0
    assert np.array_equal(
        pentadiag_solve_batch(bad_e, a, b, c, f, d),
        pentadiag_solve_batch(e, a, b, c, f, d),
    )
    with pytest.raises(ValueError, match="non-finite"):
        pentadiag_solve_batch(e, a, b, c, f, np.full_like(d, np.nan))


def test_solve_shard_bitwise_independent_of_layout():
    # the session sweep reads and writes any memory layout: Fortran
    # order in and out gives the C-order solve's bits
    e, a, b, c, f, d = random_penta_batch(9, 40, seed=13)
    fact = penta_factor(e, a, b, c, f)
    whole = fact.solve(d)
    out = np.empty(d.shape[::-1]).T
    fact.solve_shard(None, np.asfortranarray(d), out)
    assert np.array_equal(out, whole)
