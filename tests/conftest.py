"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import inspect
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import solve_banded


#: backend rows of the cross-backend tests -> (backend, extra solve
#: options); ``threaded`` is the engine called from a caller-owned
#: worker thread, the way a caller spreads work now that the engine
#: starts no threads of its own (see :func:`pytest_pyfunc_call`)
BACKEND_ROWS = {
    "engine": ("engine", {}),
    "threaded": ("engine", {}),
    "numpy": ("numpy", {}),
    "gpusim": ("gpusim", {}),
}


def pytest_pyfunc_call(pyfuncitem):
    """Run a test parametrized with ``row="threaded"`` on a fresh thread.

    The whole body moves, so the thread-local ``last_trace`` and the
    default engine shared with the main thread are read and written
    off the main thread; an assertion or error re-raises here.
    """
    callspec = getattr(pyfuncitem, "callspec", None)
    if callspec is None or callspec.params.get("row") != "threaded":
        return None
    test = pyfuncitem.obj
    args = {
        name: pyfuncitem.funcargs[name]
        for name in inspect.signature(test).parameters
    }
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(test, **args).result()
    return True


def make_batch(m, n, dtype=np.float64, seed=0, dominance=3.0):
    """Random strictly diagonally dominant (M, N) batch."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = (dominance + np.abs(a) + np.abs(c)).astype(dtype)
    d = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c, d


def make_system(n, dtype=np.float64, seed=0, dominance=3.0):
    """Random strictly diagonally dominant single system."""
    a, b, c, d = make_batch(1, n, dtype=dtype, seed=seed, dominance=dominance)
    return a[0], b[0], c[0], d[0]


def reference_solve(a, b, c, d):
    """LAPACK banded reference for an (M, N) batch."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    c = np.atleast_2d(c)
    d = np.atleast_2d(d)
    m, n = b.shape
    out = np.empty((m, n), dtype=np.float64)
    ab = np.zeros((3, n))
    for i in range(m):
        ab[0, 1:] = c[i, :-1]
        ab[1, :] = b[i]
        ab[2, :-1] = a[i, 1:]
        out[i] = solve_banded((1, 1), ab, d[i])
    return out


def max_err(x, x_ref):
    """Worst scaled componentwise error."""
    x = np.asarray(x, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    return float(np.max(np.abs(x - x_ref) / np.maximum(np.abs(x_ref), 1.0)))


@pytest.fixture
def rng():
    """Deterministic RNG for ad-hoc randomness in tests."""
    return np.random.default_rng(1234)
