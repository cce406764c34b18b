"""HybridSolver: correctness across plans, fusion equivalence, reporting."""

import numpy as np
import pytest

from repro.core.hybrid import HybridReport, HybridSolver
from repro.core.pthomas import _FusedPThomas
from repro.core.transition import TransitionHeuristic

from .conftest import make_batch, max_err, reference_solve


@pytest.mark.parametrize("m,n", [(1, 1024), (4, 511), (17, 128), (1025, 33), (2, 4)])
@pytest.mark.parametrize("k", [None, 0, 1, 2, 4])
def test_matches_reference(m, n, k):
    a, b, c, d = make_batch(m, n, seed=(m * 7 + n) % 1000)
    x = HybridSolver(k=k).solve_batch(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-9


@pytest.mark.parametrize("m,n,k", [(1, 512, 3), (3, 200, 4), (8, 77, 2)])
def test_fused_equals_unfused_exactly(m, n, k):
    a, b, c, d = make_batch(m, n, seed=k)
    x1 = HybridSolver(k=k, fuse=False).solve_batch(a, b, c, d)
    x2 = HybridSolver(k=k, fuse=True).solve_batch(a, b, c, d)
    assert np.array_equal(x1, x2)


@pytest.mark.parametrize("n_windows", [1, 2, 4])
def test_windows_do_not_change_answer(n_windows):
    a, b, c, d = make_batch(2, 300, seed=n_windows)
    x1 = HybridSolver(k=3, n_windows=1).solve_batch(a, b, c, d)
    xw = HybridSolver(k=3, n_windows=n_windows).solve_batch(a, b, c, d)
    assert np.array_equal(x1, xw)


def test_fused_with_windows():
    a, b, c, d = make_batch(1, 400, seed=5)
    x1 = HybridSolver(k=3).solve_batch(a, b, c, d)
    x2 = HybridSolver(k=3, fuse=True, n_windows=3).solve_batch(a, b, c, d)
    assert max_err(x2, x1) < 1e-13


def test_report_contents():
    a, b, c, d = make_batch(64, 512, seed=1)
    solver = HybridSolver()
    solver.solve_batch(a, b, c, d)
    rep = solver.last_report
    assert isinstance(rep, HybridReport)
    assert rep.m == 64 and rep.n == 512
    assert rep.k == 6  # Table III for M = 64
    assert rep.k_source == "heuristic"
    assert rep.subsystems == 64 * 64
    assert rep.tiling.rows_loaded == 64 * 512
    assert rep.tiling.rows_loaded_redundant == 0
    assert rep.pcr_eliminations >= rep.k * rep.n * rep.m


def test_report_thomas_eliminations_k0():
    a, b, c, d = make_batch(2048, 64, seed=2)
    solver = HybridSolver()
    solver.solve_batch(a, b, c, d)
    rep = solver.last_report
    assert rep.k == 0
    assert rep.thomas_eliminations == 2048 * (2 * 64 - 1)


def test_report_thomas_eliminations_k_positive():
    a, b, c, d = make_batch(4, 40, seed=3)
    solver = HybridSolver(k=2)
    solver.solve_batch(a, b, c, d)
    rep = solver.last_report
    # 4 subsystems of length 10: each costs 2*10 - 1 = 19
    assert rep.thomas_eliminations == 4 * 4 * 19


def test_choose_k_sources():
    s = HybridSolver(k=5)
    assert s.choose_k(100, 1 << 14) == (5, "fixed")
    s = HybridSolver(parallelism=23040)
    k, src = s.choose_k(1, 1 << 14)
    assert src == "analytic"
    assert k > 0
    s = HybridSolver()
    assert s.choose_k(2000, 1 << 14) == (0, "heuristic")


def test_fixed_k_clamped_to_n():
    a, b, c, d = make_batch(1, 8, seed=4)
    solver = HybridSolver(k=8)  # absurd for n = 8
    x = solver.solve_batch(a, b, c, d)
    assert solver.last_report.k <= 2
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-10


def test_custom_heuristic_used():
    h = TransitionHeuristic(thresholds=(), ks=(3,), name="always3")
    a, b, c, d = make_batch(5000, 64, seed=5)
    solver = HybridSolver(heuristic=h)
    solver.solve_batch(a, b, c, d)
    assert solver.last_report.k == 3


def test_solve_single_system():
    a, b, c, d = make_batch(1, 256, seed=6)
    x = HybridSolver().solve(a[0], b[0], c[0], d[0])
    assert x.shape == (256,)
    assert max_err(x[None], reference_solve(a, b, c, d)) < 1e-10


def test_float32_end_to_end():
    a, b, c, d = make_batch(8, 128, dtype=np.float32, seed=7)
    x = HybridSolver(k=3).solve_batch(a, b, c, d)
    assert x.dtype == np.float32
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-3


# ---- the fused consumer in isolation -------------------------------------


def test_fused_consumer_rejects_out_of_order():
    f = _FusedPThomas(1, 16, 2, np.float64)
    quad = tuple(np.ones((1, 4)) for _ in range(4))
    f.consume(0, 4, quad)
    with pytest.raises(RuntimeError, match="out of order"):
        f.consume(8, 12, quad)


def test_fused_consumer_rejects_incomplete_backward():
    f = _FusedPThomas(1, 16, 2, np.float64)
    quad = tuple(np.ones((1, 4)) for _ in range(4))
    f.consume(0, 4, quad)
    with pytest.raises(RuntimeError, match="incomplete"):
        f.backward()
