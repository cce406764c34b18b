"""Extension — mixed precision with iterative refinement (ref [10]).

The Fig. 12 fp32 numbers are ~2× faster than fp64 but carry fp32
accuracy.  Göddeke & Strzodka's technique (the paper's ref [10]) gets
both: solve in fp32, refine the residual in fp64.  This benchmark
measures the refinement pipeline, verifies it reaches fp64-level
residuals, and prices the tradeoff on the GPU model: an fp32 solve plus
two fp32 corrections costs less than one fp64 solve whenever the fp64
path is more than ~3× the fp32 path — which the GeForce's 1/8-rate
fp64 makes common.
"""

import numpy as np

from repro.backends import reference_solver
from repro.core.refine import solve_mixed_precision
from repro.kernels.hybrid_gpu import GpuHybridSolver

from .conftest import make_batch


def test_mixed_precision_measured(benchmark):
    a, b, c, d = make_batch(32, 2048, seed=1)
    res = benchmark(solve_mixed_precision, a, b, c, d)
    assert res.converged
    assert res.residuals[-1] < 1e-12
    benchmark.extra_info.update(
        {"suite": "mixed-precision", "iterations": res.iterations,
         "final_residual": f"{res.residuals[-1]:.2e}"}
    )


def test_fp64_direct_measured(benchmark):
    a, b, c, d = make_batch(32, 2048, seed=1)
    solver = reference_solver()
    benchmark(solver.solve_batch, a, b, c, d)
    benchmark.extra_info.update({"suite": "mixed-precision", "variant": "fp64 direct"})


def test_refinement_reaches_fp64_accuracy(benchmark):
    from scipy.linalg import solve_banded

    a, b, c, d = make_batch(8, 1024, seed=2)

    res = benchmark.pedantic(
        solve_mixed_precision, args=(a, b, c, d), rounds=1, iterations=1
    )
    ab = np.zeros((3, 1024))
    ab[0, 1:] = c[0, :-1]
    ab[1] = b[0]
    ab[2, :-1] = a[0, 1:]
    ref = solve_banded((1, 1), ab, d[0])
    err = np.abs(res.x[0] - ref).max() / np.abs(ref).max()
    assert err < 1e-11
    benchmark.extra_info.update(
        {"suite": "mixed-precision", "fp64_relative_error": f"{err:.2e}"}
    )


def test_model_tradeoff(benchmark):
    """An honest model finding: on the GTX480, refinement (3 fp32 solves
    + 2 fp64 residual passes) does NOT beat one fp64 solve — the fp64
    path is bandwidth-bound, so it runs at only ~2.3× the fp32 time,
    not the 8× ALU ratio.  Refinement pays exactly when fp64 is
    ALU-bound, which a bandwidth-rich what-if device exposes."""

    def price(device):
        gpu = GpuHybridSolver(device=device)
        # a PCR-heavy, latency-hidden shape: M = 256 keeps thousands of
        # threads busy while k = 6 makes the fp64 PCR stage ALU-bound
        m, n = 256, 16384
        t64 = gpu.predict(m, n, 8).total_s
        t32 = gpu.predict(m, n, 4).total_s
        residual_pass = (9 * m * n * 8) / (
            device.effective_bandwidth_gbs() * 1e9
        )
        return t64, 3 * t32 + 2 * residual_pass

    from repro.gpusim.device import GTX480

    def both():
        fat_bus = GTX480.with_overrides(
            name="10x-bandwidth GTX480", mem_bandwidth_gbs=1774.0
        )
        return price(GTX480), price(fat_bus)

    (t64, mixed), (t64_fat, mixed_fat) = benchmark(both)
    # GTX480: bandwidth-bound fp64 -> direct wins, refinement ~2x worse
    assert 1.0 < mixed / t64 < 3.0
    # compute-bound regime: the 8x fp64 penalty bites and refinement wins
    assert mixed_fat < t64_fat
    benchmark.extra_info.update(
        {
            "suite": "mixed-precision",
            "gtx480_ms": {"fp64": round(t64 * 1e3, 3),
                          "mixed": round(mixed * 1e3, 3)},
            "fat_bus_ms": {"fp64": round(t64_fat * 1e3, 3),
                           "mixed": round(mixed_fat * 1e3, 3)},
        }
    )
