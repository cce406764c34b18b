"""Property-based tests (hypothesis) on the core invariants.

Strategies generate strictly diagonally dominant systems — the regime
where every pivot-free algorithm here is provably stable — with varied
shapes, scales and dtypes; the properties are the load-bearing claims:

* every solver agrees with LAPACK on every valid input;
* tiled PCR is exactly the monolithic sweep, for every (n, k, c, W)
  and every input memory layout, and p-Thomas does not depend on it;
* a PCR step never changes the solution;
* the cost formulas match their closed forms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import f_redundant_loads, g_redundant_elims
from repro.core.cr import cr_solve_batch
from repro.core.hybrid import HybridSolver
from repro.core.pcr import pcr_solve_batch, pcr_sweep
from repro.core.pthomas import pthomas_solve_interleaved
from repro.core.rd import rd_solve_batch
from repro.core.thomas import thomas_solve_batch
from repro.core.tiled_pcr import tiled_pcr_sweep

from .conftest import max_err, reference_solve


@st.composite
def dominant_batch(draw, max_m=4, max_n=96, min_n=1):
    """A strictly diagonally dominant (M, N) batch with varied scales."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    dominance = draw(st.floats(0.5, 8.0))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = dominance + np.abs(a) + np.abs(c)
    sign = draw(st.sampled_from([1.0, -1.0]))
    d = rng.standard_normal((m, n))
    return a * scale, sign * b * scale, c * scale, d * scale


def relayout(x, order):
    """``x`` in row-major, column-major or strided-column-slice memory."""
    if order == "C":
        return np.ascontiguousarray(x)
    if order == "F":
        return np.asfortranarray(x)
    wide = np.zeros((x.shape[0], 2 * x.shape[1] + 1), dtype=x.dtype)
    wide[:, 1::2] = x
    return wide[:, 1::2]


layouts = st.sampled_from(["C", "F", "strided"])


@settings(max_examples=60, deadline=None)
@given(batch=dominant_batch())
def test_all_solvers_agree_with_lapack(batch):
    a, b, c, d = batch
    ref = reference_solve(a, b, c, d)
    for solver in (thomas_solve_batch, cr_solve_batch, pcr_solve_batch, rd_solve_batch):
        assert max_err(solver(a, b, c, d), ref) < 1e-7


@settings(max_examples=40, deadline=None)
@given(
    batch=dominant_batch(max_m=5, max_n=200, min_n=8),
    k=st.integers(1, 4),
    n_windows=st.integers(1, 4),
    c_scale=st.integers(1, 3),
    order=layouts,
)
def test_tiled_pcr_equals_monolithic(batch, k, n_windows, c_scale, order):
    a, b, c, d = batch
    n = b.shape[1]
    if (1 << k) > max(1, n // 2):
        k = 1
    if (1 << k) > max(1, n // 2):
        return
    ref = pcr_sweep(a, b, c, d, k)
    # check=False: validation would hand the sweep a row-major copy
    out = tiled_pcr_sweep(
        *(relayout(x, order) for x in batch),
        k,
        n_windows=n_windows,
        subtile_scale=c_scale,
        check=False,
    )
    for x, y in zip(out, ref):
        assert np.array_equal(x, y)


@settings(max_examples=40, deadline=None)
@given(
    batch=dominant_batch(max_m=5, max_n=200, min_n=2),
    k=st.integers(0, 5),
    order=layouts,
)
def test_pthomas_is_independent_of_input_layout(batch, k, order):
    reduced = pcr_sweep(*batch, k)
    ref = pthomas_solve_interleaved(*reduced, k)
    got = pthomas_solve_interleaved(
        *(relayout(x, order) for x in reduced), k
    )
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref)


@settings(max_examples=40, deadline=None)
@given(batch=dominant_batch(max_m=2, max_n=64, min_n=2), k=st.integers(1, 5))
def test_pcr_sweep_preserves_solution(batch, k):
    """After k doubling-schedule steps, every transformed row — now
    coupling rows i ± 2^k — is still satisfied by the original solution.
    (Steps only make sense along the doubling schedule: ``pcr_step`` with
    stride s assumes the input couples at distance s.)"""
    a, b, c, d = batch
    ref = reference_solve(a, b, c, d)
    a2, b2, c2, d2 = pcr_sweep(a, b, c, d, k)
    n = b.shape[1]
    g = 1 << k
    for m in range(b.shape[0]):
        for i in range(n):
            v = b2[m, i] * ref[m, i]
            if i - g >= 0:
                v += a2[m, i] * ref[m, i - g]
            if i + g < n:
                v += c2[m, i] * ref[m, i + g]
            tol = 1e-6 * max(1.0, abs(d2[m, i]), np.abs(b2[m]).max())
            assert abs(v - d2[m, i]) < tol


@settings(max_examples=50, deadline=None)
@given(batch=dominant_batch(max_m=3, max_n=120), k=st.integers(0, 4))
def test_hybrid_matches_lapack_for_every_k(batch, k):
    a, b, c, d = batch
    x = HybridSolver(k=k).solve_batch(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-7


@settings(max_examples=50, deadline=None)
@given(batch=dominant_batch(max_m=2, max_n=150, min_n=4), k=st.integers(1, 4))
def test_fusion_never_changes_answer(batch, k):
    a, b, c, d = batch
    x1 = HybridSolver(k=k, fuse=False).solve_batch(a, b, c, d)
    x2 = HybridSolver(k=k, fuse=True).solve_batch(a, b, c, d)
    assert np.array_equal(x1, x2)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, 20))
def test_cost_closed_forms(k):
    assert f_redundant_loads(k) == 2**k - 1
    # Eq. 9 simplified: g(k) = (k - 2) 2^k + k + 2 - k... verify against
    # direct expansion
    direct = k * (2**k - 1) - (2 ** (k + 1) - k - 2)
    assert g_redundant_elims(k) == direct


@settings(max_examples=30, deadline=None)
@given(batch=dominant_batch(max_m=2, max_n=100, min_n=1))
def test_solution_residual_bounded(batch):
    """Residuals stay small relative to the data for dominant systems."""
    a, b, c, d = batch
    x = HybridSolver().solve_batch(a, b, c, d)
    r = b * x - d
    r[:, 1:] += a[:, 1:] * x[:, :-1]
    r[:, :-1] += c[:, :-1] * x[:, 1:]
    scale = np.abs(d).max() + np.abs(b).max() * np.abs(x).max()
    assert np.abs(r).max() <= 1e-10 * max(scale, 1e-30)


@settings(max_examples=30, deadline=None)
@given(batch=dominant_batch(max_m=2, max_n=100, min_n=3))
def test_periodic_solver_residual(batch):
    """Cyclic solves satisfy the cyclic system, for any corner values."""
    from repro.core.periodic import solve_periodic_batch

    a, b, c, d = batch
    x = solve_periodic_batch(a, b, c, d)
    n = b.shape[1]
    r = b * x - d
    r[:, 1:] += a[:, 1:] * x[:, :-1]
    r[:, :-1] += c[:, :-1] * x[:, 1:]
    r[:, 0] += a[:, 0] * x[:, -1]   # the cyclic corners
    r[:, -1] += c[:, -1] * x[:, 0]
    scale = np.abs(d).max() + np.abs(b).max() * max(np.abs(x).max(), 1.0)
    assert np.abs(r).max() <= 1e-8 * max(scale, 1e-30)


@settings(max_examples=30, deadline=None)
@given(
    batch=dominant_batch(max_m=2, max_n=80, min_n=2),
    k=st.integers(0, 4),
    scale=st.floats(0.1, 10.0),
)
def test_factorization_reuse_linearity(batch, k, scale):
    """fact.solve is linear in d and has the direct hybrid's bits."""
    from repro.core.factorize import HybridFactorization
    from repro.core.hybrid import HybridSolver

    a, b, c, d = batch
    fact = HybridFactorization.factor(a, b, c, k=k)
    x1 = fact.solve(d)
    direct = HybridSolver(k=k).solve_batch(a, b, c, d)
    assert x1.tobytes() == direct.tobytes()
    ref = reference_solve(a, b, c, d)
    assert max_err(x1, ref) < 1e-6
    assert max_err(direct, ref) < 1e-6
    x2 = fact.solve(scale * d)
    assert np.allclose(x2, scale * x1, rtol=1e-9, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(8, 200),
    k=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
def test_exec_window_equals_sweep_property(n, k, seed):
    """The executable SIMT window kernel == the monolithic sweep, for
    arbitrary sizes and depths (clamped to sensible k)."""
    from repro.kernels.exec_kernels import run_tiled_pcr

    if (1 << k) > max(1, n // 2):
        k = 1
    if (1 << k) > max(1, n // 2):
        return
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, n))
    c = rng.standard_normal((1, n))
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = 3.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((1, n))
    (ra, rb, rc, rd_), _ = run_tiled_pcr(a[0], b[0], c[0], d[0], k)
    ref = pcr_sweep(a, b, c, d, k)
    for got, exp in zip((ra, rb, rc, rd_), ref):
        assert np.allclose(got, exp[0], rtol=1e-10, atol=1e-12)
