"""PCR: step semantics, decoupling property, sweep, solve."""

import numpy as np
import pytest

from repro.core.pcr import (
    pcr_solve,
    pcr_solve_batch,
    pcr_step,
    pcr_sweep,
    pcr_then_thomas_batch,
)
from repro.util.tridiag import BatchTridiagonal, dense_from_diagonals

from .conftest import make_batch, make_system, max_err, reference_solve


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 64, 100, 513])
def test_solve_matches_reference(n):
    a, b, c, d = make_system(n, seed=n)
    x = pcr_solve(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)[0]) < 1e-10


@pytest.mark.parametrize("m,n", [(1, 64), (7, 100), (32, 17)])
def test_solve_batch_matches_reference(m, n):
    a, b, c, d = make_batch(m, n, seed=m + n)
    x = pcr_solve_batch(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


def test_step_preserves_solution():
    """A PCR step transforms the system but not its solution."""
    a, b, c, d = make_batch(1, 32, seed=2)
    x_ref = reference_solve(a, b, c, d)[0]
    a2, b2, c2, d2 = pcr_step(a, b, c, d, 1)
    # the reduced rows with stride-2 coupling, checked via dense algebra
    # on the interleaved subsystems
    for j in range(2):
        aa, bb, cc, dd = (v[0, j::2] for v in (a2, b2, c2, d2))
        dense = dense_from_diagonals(
            np.r_[0.0, aa[1:]], bb, np.r_[cc[:-1], 0.0]
        )
        x_sub = np.linalg.solve(dense, dd)
        assert np.allclose(x_sub, x_ref[j::2], atol=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sweep_decouples_rows(k):
    """After k steps, row i only couples to rows i ± 2^k."""
    n = 64
    a, b, c, d = make_batch(1, n, seed=k)
    a2, b2, c2, d2 = pcr_sweep(a, b, c, d, k)
    g = 1 << k
    # boundary rows must have lost their off-diagonals entirely
    assert np.allclose(a2[0, :g], 0.0)
    assert np.allclose(c2[0, n - g :], 0.0)
    # and each interleaved subsystem solves to the right answer
    x_ref = reference_solve(a, b, c, d)[0]
    for j in range(g):
        aa, bb, cc, dd = (v[0, j::g] for v in (a2, b2, c2, d2))
        dense = dense_from_diagonals(np.r_[0.0, aa[1:]], bb, np.r_[cc[:-1], 0.0])
        assert np.allclose(np.linalg.solve(dense, dd), x_ref[j::g], atol=1e-9)


def test_sweep_zero_steps_is_identity():
    a, b, c, d = make_batch(2, 16, seed=4)
    out = pcr_sweep(a, b, c, d, 0)
    for orig, new in zip((a, b, c, d), out):
        assert np.array_equal(orig, new)


def test_sweep_rejects_negative_steps():
    a, b, c, d = make_batch(1, 8)
    with pytest.raises(ValueError, match="steps"):
        pcr_sweep(a, b, c, d, -1)


def test_step_stride_beyond_n_gives_diagonal_system():
    a, b, c, d = make_batch(1, 8, seed=6)
    a2, b2, c2, d2 = pcr_step(a, b, c, d, 8)
    assert np.allclose(a2, 0.0)
    assert np.allclose(c2, 0.0)
    # b, d unchanged when no neighbours are in range
    assert np.allclose(b2, b)
    assert np.allclose(d2, d)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [16, 33, 100])
def test_pcr_then_thomas_matches_reference(k, n):
    a, b, c, d = make_batch(3, n, seed=n + k)
    x = pcr_then_thomas_batch(a, b, c, d, k)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


def test_float32_roundtrip():
    a, b, c, d = make_batch(2, 48, dtype=np.float32, seed=8)
    x = pcr_solve_batch(a, b, c, d)
    assert x.dtype == np.float32
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-3


def test_residual_small_on_poisson():
    """Weakly dominant Poisson stencil — the tough well-posed case."""
    n = 256
    a = np.full(n, -1.0)
    b = np.full(n, 2.0)
    c = np.full(n, -1.0)
    a[0] = 0.0
    c[-1] = 0.0
    d = np.sin(np.linspace(0, 3, n))
    x = pcr_solve(a, b, c, d)
    batch = BatchTridiagonal(a[None], b[None], c[None], d[None])
    r = batch.residual(x[None])
    assert np.abs(r).max() < 1e-8
