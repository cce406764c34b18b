"""Input validation helpers and numeric utilities."""

import numpy as np
import pytest

import repro
from repro.core.validation import (
    check_batch_arrays,
    check_batch_content,
    check_system_arrays,
    coerce_batch_arrays,
    is_power_of_two,
    require_power_of_two,
)
from repro.util.numerics import (
    diagonal_dominance_margin,
    is_diagonally_dominant,
    max_relative_error,
    residual_norm,
)
from repro.util.tridiag import BatchTridiagonal, TridiagonalSystem

from .conftest import make_batch, make_system, reference_solve


# ---- validation -------------------------------------------------------


def test_check_system_normalizes_dtype():
    a, b, c, d = check_system_arrays([0, 1, 1], [3, 3, 3], [1, 1, 0], [1, 2, 3])
    assert b.dtype == np.float64


def test_check_system_zeroes_pads():
    a, b, c, d = check_system_arrays(
        np.array([5.0, 1.0]), np.array([3.0, 3.0]),
        np.array([1.0, 9.0]), np.array([1.0, 1.0]),
    )
    assert a[0] == 0.0
    assert c[-1] == 0.0


def test_check_system_rejects_zero_pivot():
    with pytest.raises(ValueError, match="main diagonal"):
        check_system_arrays(
            np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), np.ones(2)
        )


def test_check_batch_rejects_1d():
    with pytest.raises(ValueError, match="2-D"):
        check_batch_arrays(np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))


def test_check_system_rejects_2d():
    a, b, c, d = make_batch(2, 3)
    with pytest.raises(ValueError, match="1-D"):
        check_system_arrays(a, b, c, d)


def test_check_batch_rejects_inf():
    a, b, c, d = make_batch(2, 4)
    b = b.copy()
    b[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        check_batch_arrays(a, b, c, d)


def test_check_false_runs_the_shape_half():
    # check=False skips finiteness, pads and pivots, not the shapes
    a, b, c, d = make_batch(2, 4)
    for bad in ((a, b, c[:, :-1], d), (a[0], b, c, d)):
        with pytest.raises(ValueError, match="shape|2-D"):
            coerce_batch_arrays(*bad)
        with pytest.raises(ValueError, match="shape|2-D"):
            repro.solve_batch(*bad, check=False)


def test_the_content_half_zeroes_pads_in_a_copy():
    a, b, c, d = (v.copy() for v in make_batch(3, 6))
    a[:, 0], c[:, -1] = 2.0, -1.0
    sent = a.copy(), c.copy()
    ca, _, cc, _ = check_batch_content(a, b, c, d)
    assert (ca[:, 0] == 0.0).all() and (cc[:, -1] == 0.0).all()
    assert np.array_equal(a, sent[0]) and np.array_equal(c, sent[1])
    full = check_batch_arrays(sent[0], b, sent[1], d)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(full, (ca, b, cc, d)))


@pytest.mark.parametrize("x,expect", [(1, True), (2, True), (64, True),
                                      (0, False), (-4, False), (3, False), (48, False)])
def test_is_power_of_two(x, expect):
    assert is_power_of_two(x) is expect


def test_require_power_of_two():
    assert require_power_of_two(8, "tile") == 8
    with pytest.raises(ValueError, match="tile"):
        require_power_of_two(6, "tile")


# ---- numerics utilities -------------------------------------------------


def test_residual_norm_zero_for_exact():
    a, b, c, d = make_batch(2, 10, seed=1)
    batch = BatchTridiagonal(a, b, c, d)
    x = reference_solve(a, b, c, d)
    assert residual_norm(batch, x) < 1e-12


def test_residual_norm_large_for_garbage():
    a, b, c, d = make_system(10, seed=2)
    s = TridiagonalSystem(a, b, c, d)
    assert residual_norm(s, np.full(10, 1e6)) > 1.0


def test_max_relative_error():
    assert max_relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert max_relative_error([1.1, 2.0], [1.0, 2.0]) == pytest.approx(0.1)
    # guards against tiny references
    assert max_relative_error([1e-12], [0.0]) == pytest.approx(1e-12)


def test_dominance_margin_and_flag():
    a, b, c, d = make_batch(2, 6, dominance=2.0)
    assert diagonal_dominance_margin(a, b, c) == pytest.approx(2.0)
    assert is_diagonally_dominant(a, b, c)
    assert is_diagonally_dominant(a, b, c, strict=False)


def test_non_dominant_detected():
    a = np.array([0.0, 1.0])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 0.0])
    assert not is_diagonally_dominant(a, b, c)
    assert is_diagonally_dominant(a, b, c, strict=False)
