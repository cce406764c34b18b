"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_banded


#: backend rows of the cross-backend tests -> (backend, extra solve
#: options); ``threaded`` is the engine sharding the batch over three
#: threads
BACKEND_ROWS = {
    "engine": ("engine", {}),
    "threaded": ("engine", {"workers": 3}),
    "numpy": ("numpy", {}),
    "gpusim": ("gpusim", {}),
}


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
