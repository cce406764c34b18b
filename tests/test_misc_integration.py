"""Small integration seams: __main__, fp32 API paths, cross-module glue."""

import subprocess
import sys

import numpy as np

from .conftest import make_batch, make_system, max_err, reference_solve


def test_python_dash_m_repro():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "tables", "--table", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "256" in proc.stdout  # the k=8 tile size


def test_gtsv_float32():
    from repro.api import gtsv

    a, b, c, d = make_system(32, dtype=np.float32, seed=1)
    x = gtsv(a[1:], b, c[:-1], d)
    assert x.dtype == np.float32
    assert max_err(x[None], reference_solve(a, b, c, d)) < 1e-3


def test_periodic_float32():
    from repro.core.periodic import solve_periodic

    rng = np.random.default_rng(2)
    n = 24
    a = rng.standard_normal(n).astype(np.float32)
    c = rng.standard_normal(n).astype(np.float32)
    b = (4 + np.abs(a) + np.abs(c)).astype(np.float32)
    d = rng.standard_normal(n).astype(np.float32)
    x = solve_periodic(a, b, c, d)
    A = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    A[0, -1] = a[0]
    A[-1, 0] = c[-1]
    assert np.allclose(A @ x, d, atol=1e-3)


def test_factorization_float32():
    from repro.core.factorize import HybridFactorization

    a, b, c, d = make_batch(2, 40, dtype=np.float32, seed=3)
    fact = HybridFactorization.factor(a, b, c, k=0)
    x = fact.solve(d)
    assert x.dtype == np.float32
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-3


def test_streaming_pipeline_float32():
    from repro.core.streaming import StreamingPipeline, pcr_levels
    from repro.core.pcr import pcr_sweep

    a, b, c, d = make_batch(1, 64, dtype=np.float32, seed=4)
    levels, fill = pcr_levels(2)
    got = StreamingPipeline(levels, fill, chunk=8).run((a, b, c, d))
    ref = pcr_sweep(a, b, c, d, 2)
    for g, r in zip(got, ref):
        assert g.dtype == np.float32
        assert np.allclose(g, r, atol=1e-5)


def test_fluid_with_gpu_solver_backend():
    """The fluid workload accepts the simulated-GPU solver as backend."""
    from repro.kernels.hybrid_gpu import GpuHybridSolver
    from repro.workloads.fluid import diffuse_adi

    gpu = GpuHybridSolver()
    rng = np.random.default_rng(5)
    q = rng.random((32, 32))
    q1 = diffuse_adi(q, 0.3, solver=gpu.solve_batch)
    q2 = diffuse_adi(q, 0.3)
    assert np.allclose(q1, q2, atol=1e-10)
    assert gpu.last_report is not None


def test_hybrid_accepts_fortran_order_inputs():
    a, b, c, d = make_batch(4, 64, seed=6)
    af, bf, cf, df = (np.asfortranarray(v) for v in (a, b, c, d))
    import repro

    x1 = repro.solve_batch(a, b, c, d)
    x2 = repro.solve_batch(af, bf, cf, df)
    assert np.array_equal(x1, x2)


def test_hybrid_accepts_views():
    a, b, c, d = make_batch(8, 128, seed=7)
    sl = (slice(2, 6), slice(16, 112))
    import repro

    x = repro.solve_batch(a[sl], b[sl], c[sl], d[sl])
    # views include nonzero pads; the API zeroes them defensively
    aa = a[sl].copy()
    aa[:, 0] = 0.0
    cc = c[sl].copy()
    cc[:, -1] = 0.0
    assert max_err(x, reference_solve(aa, b[sl], cc, d[sl])) < 1e-10


def test_version_consistent():
    import tomllib
    from pathlib import Path

    import repro

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        meta = tomllib.load(fh)
    assert repro.__version__ == meta["project"]["version"]
