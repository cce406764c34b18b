"""Baselines: numerics, the Zhang size wall, Davidson's cost structure."""

import numpy as np
import pytest

from repro.baselines.davidson import DavidsonSolver
from repro.baselines.global_pcr import GlobalMemoryPCRSolver
from repro.baselines.mkl_proxy import mkl_multithreaded_proxy, mkl_sequential_proxy
from repro.baselines.zhang import SharedMemoryCapacityError, ZhangSolver

from .conftest import make_batch, max_err, reference_solve


@pytest.mark.parametrize("m,n", [(2, 64), (5, 333), (1, 1000)])
def test_mkl_proxies_match_reference(m, n):
    a, b, c, d = make_batch(m, n, seed=m * n)
    ref = reference_solve(a, b, c, d)
    assert max_err(mkl_sequential_proxy(a, b, c, d), ref) < 1e-12
    assert max_err(mkl_multithreaded_proxy(a, b, c, d), ref) < 1e-10


def test_mkl_mt_single_system_uses_sequential_path():
    a, b, c, d = make_batch(1, 128, seed=3)
    x1 = mkl_sequential_proxy(a, b, c, d)
    x2 = mkl_multithreaded_proxy(a, b, c, d)
    assert np.array_equal(x1, x2)


# ---- Zhang ------------------------------------------------------------------


def test_zhang_solves_within_capacity():
    a, b, c, d = make_batch(4, 1024, seed=4)
    x = ZhangSolver().solve_batch(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-9


def test_zhang_capacity_is_1536_double():
    assert ZhangSolver().capacity(8) == 1536
    assert ZhangSolver().capacity(4) == 3072


def test_zhang_raises_beyond_capacity():
    a, b, c, d = make_batch(1, 1537, seed=5)
    with pytest.raises(SharedMemoryCapacityError, match="size limitation"):
        ZhangSolver().solve_batch(a, b, c, d)


def test_zhang_float32_capacity_larger():
    a, b, c, d = make_batch(1, 2048, dtype=np.float32, seed=6)
    x = ZhangSolver().solve_batch(a, b, c, d)  # fits fp32, not fp64
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-3


def test_zhang_counters_raise_beyond_capacity():
    with pytest.raises(SharedMemoryCapacityError):
        ZhangSolver().counters(1, 4096, 8)


def test_zhang_single_system_wrapper():
    a, b, c, d = make_batch(1, 256, seed=7)
    x = ZhangSolver().solve(a[0], b[0], c[0], d[0])
    assert max_err(x[None], reference_solve(a, b, c, d)) < 1e-10


# ---- Davidson -----------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 8192), (3, 4000), (2, 1000)])
def test_davidson_matches_reference(m, n):
    a, b, c, d = make_batch(m, n, seed=m + n)
    x = DavidsonSolver().solve_batch(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-9


def test_davidson_global_steps():
    dav = DavidsonSolver()
    assert dav.global_steps(1024, 8) == 0       # fits shared memory
    assert dav.global_steps(2048, 8) == 1
    assert dav.global_steps(2 * 1024 * 1024, 8) == 11
    assert dav.global_steps(2048, 4) == 0       # fp32 capacity is 3072


def test_davidson_counters_one_launch_per_global_step():
    dav = DavidsonSolver()
    counters = dav.counters(1, 1 << 14, 8)
    k_g = dav.global_steps(1 << 14, 8)
    assert len(counters) == k_g + 1  # + final in-smem kernel
    assert sum(c.launches for c in counters) == k_g + 1


def test_davidson_final_stage_strided_when_interleaved():
    dav = DavidsonSolver()
    counters = dav.counters(1, 1 << 14, 8)
    final = counters[-1]
    # gathering at stride 2^k_g >= 16 is uncoalesced: efficiency far below 1
    assert final.traffic.coalescing_efficiency < 0.2


def test_davidson_loses_to_hybrid_on_model():
    """Fig. 14's claim, as a model assertion: 2-10x slower everywhere."""
    from repro.kernels.hybrid_gpu import GpuHybridSolver

    gpu = GpuHybridSolver()
    dav = DavidsonSolver()
    for m, n in [(1024, 1024), (2048, 2048), (4096, 4096), (1, 2 * 1024 * 1024)]:
        ours = gpu.predict(m, n, 8).total_s
        theirs = dav.predict_seconds(m, n, 8)
        assert 1.3 < theirs / ours < 12.0, (m, n, theirs / ours)


def test_davidson_single_system_wrapper():
    a, b, c, d = make_batch(1, 5000, seed=8)
    x = DavidsonSolver().solve(a[0], b[0], c[0], d[0])
    assert max_err(x[None], reference_solve(a, b, c, d)) < 1e-9


# ---- global-memory PCR ------------------------------------------------------------


def test_global_pcr_matches_reference():
    a, b, c, d = make_batch(3, 777, seed=9)
    x = GlobalMemoryPCRSolver().solve_batch(a, b, c, d)
    assert max_err(x, reference_solve(a, b, c, d)) < 1e-9


def test_global_pcr_launch_per_step():
    counters = GlobalMemoryPCRSolver().counters(1, 1024, 8)
    assert len(counters) == 10  # log2(1024)


def test_global_pcr_slower_than_hybrid_at_scale():
    from repro.kernels.hybrid_gpu import GpuHybridSolver

    gpu = GpuHybridSolver()
    gp = GlobalMemoryPCRSolver()
    m, n = 2048, 2048
    assert gp.predict_seconds(m, n, 8) > gpu.predict(m, n, 8).total_s
