"""Vendor-style API adapters (LAPACK gtsv / cuSPARSE gtsv2StridedBatch)."""

import numpy as np
import pytest

from repro.api import gtsv, gtsv_cyclic, gtsv_nopivot, gtsv_strided_batch

from .conftest import make_system, max_err, reference_solve


def _lapack_form(n, seed=0):
    a, b, c, d = make_system(n, seed=seed)
    return a[1:], b, c[:-1], d, (a, b, c)


def test_gtsv_single_rhs():
    dl, dd, du, rhs, (a, b, c) = _lapack_form(64, seed=1)
    x = gtsv(dl, dd, du, rhs)
    assert x.shape == (64,)
    assert max_err(x[None], reference_solve(a, b, c, rhs)) < 1e-10


def test_gtsv_multiple_rhs():
    n, nrhs = 48, 3
    dl, dd, du, _, (a, b, c) = _lapack_form(n, seed=2)
    rng = np.random.default_rng(0)
    B = rng.standard_normal((n, nrhs))
    X = gtsv(dl, dd, du, B)
    assert X.shape == (n, nrhs)
    for j in range(nrhs):
        assert max_err(X[:, j][None], reference_solve(a, b, c, B[:, j])) < 1e-10


def test_gtsv_matches_scipy_lapack():
    from scipy.linalg import solve_banded

    n = 100
    dl, dd, du, rhs, _ = _lapack_form(n, seed=3)
    ab = np.zeros((3, n))
    ab[0, 1:] = du
    ab[1, :] = dd
    ab[2, :-1] = dl
    ref = solve_banded((1, 1), ab, rhs)
    assert np.allclose(gtsv(dl, dd, du, rhs), ref, atol=1e-10)


def test_gtsv_shape_validation():
    dl, dd, du, rhs, _ = _lapack_form(16, seed=4)
    with pytest.raises(ValueError, match="n-1"):
        gtsv(dl[:-1], dd, du, rhs)
    with pytest.raises(ValueError, match="B must be"):
        gtsv(dl, dd, du, np.zeros((17, 2)))


def test_gtsv_nopivot_alias():
    dl, dd, du, rhs, _ = _lapack_form(32, seed=5)
    assert np.array_equal(gtsv(dl, dd, du, rhs), gtsv_nopivot(dl, dd, du, rhs))


def test_strided_batch():
    m, n = 8, 64
    rng = np.random.default_rng(1)
    a2 = rng.standard_normal((m, n))
    c2 = rng.standard_normal((m, n))
    b2 = 4.0 + np.abs(a2) + np.abs(c2)
    d2 = rng.standard_normal((m, n))
    dl = a2.reshape(-1).copy()
    dd = b2.reshape(-1).copy()
    du = c2.reshape(-1).copy()
    x = d2.reshape(-1).copy()
    out = gtsv_strided_batch(dl, dd, du, x, batch_count=m, batch_stride=n)
    assert out is x  # overwritten in place, cuSPARSE-style
    a2p = a2.copy()
    a2p[:, 0] = 0.0
    c2p = c2.copy()
    c2p[:, -1] = 0.0
    ref = reference_solve(a2p, b2, c2p, d2)
    assert max_err(x.reshape(m, n), ref) < 1e-10


def test_strided_batch_ignores_pad_entries():
    """dl[i*stride] and du[i*stride+n-1] must be ignored (cuSPARSE rule)."""
    m, n = 4, 32
    rng = np.random.default_rng(2)
    a2 = rng.standard_normal((m, n))
    c2 = rng.standard_normal((m, n))
    b2 = 4.0 + np.abs(a2) + np.abs(c2)
    d2 = rng.standard_normal((m, n))
    dl = a2.reshape(-1).copy()
    du = c2.reshape(-1).copy()
    x1 = d2.reshape(-1).copy()
    gtsv_strided_batch(dl, b2.reshape(-1), du, x1, m, n)
    # poison the pad entries: result must not change
    dl2 = dl.copy()
    du2 = du.copy()
    dl2[::n] = 1e9
    du2[n - 1 :: n] = -1e9
    x2 = d2.reshape(-1).copy()
    gtsv_strided_batch(dl2, b2.reshape(-1), du2, x2, m, n)
    assert np.array_equal(x1, x2)


def test_strided_batch_validation():
    with pytest.raises(ValueError, match=">= 1"):
        gtsv_strided_batch(np.zeros(4), np.ones(4), np.zeros(4), np.zeros(4), 0, 4)
    with pytest.raises(ValueError, match="elements"):
        gtsv_strided_batch(np.zeros(4), np.ones(8), np.zeros(8), np.zeros(8), 2, 4)


def test_gtsv_n1_scalar_system():
    x = gtsv(np.array([]), np.array([2.0]), np.array([]), np.array([6.0]))
    assert x.shape == (1,)
    assert np.allclose(x, 3.0)


def test_gtsv_n1_multiple_rhs():
    X = gtsv([], [4.0], [], np.array([[4.0, 8.0, 12.0]]))
    assert X.shape == (1, 3)
    assert np.allclose(X, [[1.0, 2.0, 3.0]])


def test_gtsv_n1_zero_diagonal_raises():
    with pytest.raises(ValueError, match="main diagonal"):
        gtsv([], [0.0], [], [1.0])


def test_gtsv_n1_rejects_nonempty_offdiagonals():
    with pytest.raises(ValueError, match="n-1 = 0"):
        gtsv([1.0], [2.0], [], [1.0])


def test_gtsv_empty_diagonal_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        gtsv([], [], [], [])


def test_gtsv_fortran_ordered_B():
    n, nrhs = 40, 3
    dl, dd, du, _, _ = _lapack_form(n, seed=6)
    rng = np.random.default_rng(3)
    B = rng.standard_normal((n, nrhs))
    XC = gtsv(dl, dd, du, B)
    XF = gtsv(dl, dd, du, np.asfortranarray(B))
    assert np.array_equal(XF, XC)
    assert XF.flags.c_contiguous


def test_gtsv_strided_and_transposed_B():
    n, nrhs = 40, 3
    dl, dd, du, _, _ = _lapack_form(n, seed=7)
    rng = np.random.default_rng(4)
    wide = rng.standard_normal((n, 2 * nrhs))
    strided = wide[:, ::2]                      # non-contiguous columns
    assert not strided.flags.c_contiguous
    ref = gtsv(dl, dd, du, np.ascontiguousarray(strided))
    assert np.array_equal(gtsv(dl, dd, du, strided), ref)
    transposed = np.ascontiguousarray(strided.T).T  # T-view of C-array
    assert np.array_equal(gtsv(dl, dd, du, transposed), ref)


def test_gtsv_backend_selection():
    import repro

    dl, dd, du, rhs, _ = _lapack_form(64, seed=8)
    x_auto = gtsv(dl, dd, du, rhs)
    x_ref = gtsv(dl, dd, du, rhs, backend="numpy")
    assert repro.last_trace().backend == "numpy"
    assert np.array_equal(x_auto, x_ref)


def test_strided_batch_rejects_list_x():
    with pytest.raises(TypeError, match="overwritten in place"):
        gtsv_strided_batch(
            np.zeros(4), np.ones(4), np.zeros(4), [1.0, 1.0, 1.0, 1.0], 1, 4
        )


def test_strided_batch_rejects_integer_x():
    with pytest.raises(TypeError, match="float32/float64"):
        gtsv_strided_batch(
            np.zeros(4), np.ones(4), np.zeros(4), np.ones(4, dtype=np.int64), 1, 4
        )


def test_strided_batch_rejects_readonly_x():
    x = np.ones(4)
    x.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        gtsv_strided_batch(np.zeros(4), np.ones(4), np.zeros(4), x, 1, 4)


def test_strided_batch_stride_one():
    x = np.array([2.0, 6.0, -3.0])
    out = gtsv_strided_batch(
        np.zeros(3), np.array([2.0, 3.0, 3.0]), np.zeros(3), x, 3, 1
    )
    assert out is x
    assert np.allclose(x, [1.0, 2.0, -1.0])


def test_strided_batch_writes_through_noncontiguous_view():
    m, n = 4, 32
    rng = np.random.default_rng(9)
    a2 = rng.standard_normal((m, n))
    c2 = rng.standard_normal((m, n))
    b2 = 4.0 + np.abs(a2) + np.abs(c2)
    d2 = rng.standard_normal((m, n))
    ref = d2.reshape(-1).copy()
    gtsv_strided_batch(
        a2.reshape(-1).copy(), b2.reshape(-1).copy(), c2.reshape(-1).copy(),
        ref, m, n,
    )
    backing = np.zeros(2 * m * n)
    view = backing[::2]
    view[:] = d2.reshape(-1)
    got = gtsv_strided_batch(
        a2.reshape(-1).copy(), b2.reshape(-1).copy(), c2.reshape(-1).copy(),
        view, m, n,
    )
    assert got is view
    assert np.array_equal(backing[::2], ref)  # wrote through the view


# ---- cyclic adapter --------------------------------------------------------


def _cyclic_dense_1d(a, b, c):
    n = b.shape[0]
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = b
    A[np.arange(1, n), np.arange(n - 1)] = a[1:]
    A[np.arange(n - 1), np.arange(1, n)] = c[:-1]
    A[0, n - 1] = a[0]
    A[n - 1, 0] = c[-1]
    return A


def _cyclic_system(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    c = rng.standard_normal(n)
    b = 4.0 + np.abs(a) + np.abs(c)
    return a, b, c


def test_gtsv_cyclic_single_rhs():
    n = 48
    a, b, c = _cyclic_system(n, seed=10)
    rhs = np.random.default_rng(1).standard_normal(n)
    # vendor layout: corners ride in dl[0] / du[-1]
    x = gtsv_cyclic(a, b, c, rhs)
    assert x.shape == (n,)
    ref = np.linalg.solve(_cyclic_dense_1d(a, b, c), rhs)
    assert np.allclose(x, ref, atol=1e-10)


def test_gtsv_cyclic_multi_rhs_matches_columnwise():
    n, nrhs = 40, 5
    a, b, c = _cyclic_system(n, seed=11)
    B = np.random.default_rng(2).standard_normal((n, nrhs))
    X = gtsv_cyclic(a, b, c, B)
    assert X.shape == (n, nrhs)
    A = _cyclic_dense_1d(a, b, c)
    for j in range(nrhs):
        assert np.allclose(X[:, j], np.linalg.solve(A, B[:, j]), atol=1e-10)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n, nrhs", [(2048, 512), (512, 1024)])
def test_gtsv_broadcasts_one_matrix_with_the_tiled_bits(
    n, nrhs, periodic, monkeypatch
):
    # (2048, 512) routes at k > 0, (512, 1024) at k = 0
    import repro
    from repro.backends.request import SolveRequest
    from repro.core.periodic import solve_periodic_batch

    if periodic:
        dl, dd, du = _cyclic_system(n, seed=13)
        a, c, solver, adapter = dl, du, solve_periodic_batch, gtsv_cyclic
    else:
        dl, dd, du, _, (a, _, c) = _lapack_form(n, seed=13)
        solver, adapter = repro.solve_batch, gtsv
    B = np.random.default_rng(3).standard_normal((n, nrhs))
    tiled = solver(
        *(np.tile(v, (nrhs, 1)) for v in (a, dd, c)), np.ascontiguousarray(B.T)
    )
    seen = []
    build = SolveRequest.build.__func__

    def spy(cls, a, b, c, d, **kw):
        seen.append((a, b, c))
        return build(cls, a, b, c, d, **kw)

    monkeypatch.setattr(SolveRequest, "build", classmethod(spy))
    X = adapter(dl, dd, du, B)
    assert X.tobytes() == np.ascontiguousarray(tiled.T).tobytes()
    assert seen and all(v.strides[0] == 0 for v in seen[0])


def test_gtsv_cyclic_validation():
    a, b, c = _cyclic_system(16, seed=12)
    with pytest.raises(ValueError, match="full length"):
        gtsv_cyclic(a[:-1], b, c, np.zeros(16))
    with pytest.raises(ValueError, match="n >= 3"):
        gtsv_cyclic(np.ones(2), np.full(2, 3.0), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        gtsv_cyclic(a, b, c, np.zeros((17,)))


def test_gtsv_cyclic_singular_guard():
    from repro.core.periodic import CyclicSingularError

    n = 16
    a = np.full(n, -1.0)
    b = np.full(n, 2.0)
    c = np.full(n, -1.0)
    with pytest.raises(CyclicSingularError):
        gtsv_cyclic(a, b, c, np.zeros(n))
    with pytest.warns(RuntimeWarning):
        x = gtsv_cyclic(a, b, c, np.zeros(n), check=False)
    assert np.isnan(x).all()


def test_gpsv_batch_matches_dense():
    from repro.api import gpsv_batch
    from repro.core.pentadiag import penta_to_dense
    from repro.workloads.generators import random_penta_batch

    e, a, b, c, f, d = random_penta_batch(3, 32, seed=5)
    x = gpsv_batch(e, a, b, c, f, d)
    assert x.shape == (3, 32)
    ref = np.linalg.solve(penta_to_dense(e, a, b, c, f), d[..., None])[..., 0]
    assert np.allclose(x, ref, atol=1e-9)


def test_gpsv_batch_fingerprint_bitwise():
    from repro.api import gpsv_batch
    from repro.workloads.generators import random_penta_batch

    e, a, b, c, f, d = random_penta_batch(4, 48, seed=8)
    cold = gpsv_batch(e, a, b, c, f, d, backend="engine", fingerprint=False)
    gpsv_batch(e, a, b, c, f, d, backend="engine", fingerprint=True)
    warm = gpsv_batch(e, a, b, c, f, d, backend="engine", fingerprint=True)
    assert np.array_equal(cold, warm)


def test_gtsv_block_batch_matches_dense():
    from repro.api import gtsv_block_batch
    from repro.core.blocktridiag import block_to_dense
    from repro.workloads.generators import random_block_batch

    A, Bd, C, d = random_block_batch(2, 12, block_size=3, seed=6)
    x = gtsv_block_batch(A, Bd, C, d)
    assert x.shape == (2, 12, 3)
    dense = block_to_dense(A, Bd, C)
    ref = np.linalg.solve(dense, d.reshape(2, -1)[..., None])[..., 0]
    assert np.allclose(x, ref.reshape(2, 12, 3), atol=1e-9)
