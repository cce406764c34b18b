"""Ablation — kernel fusion (Section III-C).

Fusing p-Thomas forward reduction into the tiled-PCR sweep saves the
reduced system's global round trip but pins the launch shape to the PCR
stage's narrow, shared-memory-heavy blocks.  The paper: "kernel fusion
does not always improve performance".  This benchmark measures both
numeric paths (identical answers), and queries the model for the two
regimes: fusion wins at small M (traffic-bound, occupancy irrelevant),
loses or ties at large M (the p-Thomas stage wants its own wide launch).
"""

import numpy as np
import pytest

from repro.gpusim.device import GTX480
from repro.gpusim.occupancy import occupancy
from repro.gpusim.timing import GpuTimingModel
from repro.backends import reference_solver
from repro.kernels.fused_kernel import fused_hybrid_counters
from repro.kernels.pthomas_kernel import pthomas_counters
from repro.kernels.tiled_pcr_kernel import tiled_pcr_counters

from .conftest import make_batch, verify


@pytest.mark.parametrize("fuse", [False, True])
def test_fusion_measured(benchmark, fuse):
    m, n, k = 16, 8192, 5
    a, b, c, d = make_batch(m, n, seed=1)
    solver = reference_solver(k=k, fuse=fuse)
    x = benchmark(solver.solve_batch, a, b, c, d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update({"ablation": "fusion", "fused": fuse})


def test_fusion_identical_answers(benchmark):
    m, n, k = 8, 4096, 4
    a, b, c, d = make_batch(m, n, seed=2)

    def both():
        x1 = reference_solver(k=k, fuse=False).solve_batch(a, b, c, d)
        x2 = reference_solver(k=k, fuse=True).solve_batch(a, b, c, d)
        return x1, x2

    x1, x2 = benchmark.pedantic(both, rounds=1, iterations=1)
    assert np.array_equal(x1, x2)
    benchmark.extra_info["ablation"] = "fusion"


def _model_pair(m, n, k, dtype_bytes=8):
    model = GpuTimingModel(GTX480)
    fused = model.time(fused_hybrid_counters(m, n, k, dtype_bytes), dtype_bytes)
    g = 1 << k
    pcr = model.time(tiled_pcr_counters(m, n, k, dtype_bytes), dtype_bytes)
    thom = model.time(
        pthomas_counters(m * g, -(-n // g), dtype_bytes), dtype_bytes
    )
    return fused.total_s, pcr.total_s + thom.total_s


def test_fusion_saves_traffic_small_m(benchmark):
    """Few systems: the saved round trip dominates; fusion wins."""

    def ratio():
        fused, unfused = _model_pair(4, 1 << 18, 8)
        return unfused / fused

    r = benchmark(ratio)
    assert r > 1.0
    benchmark.extra_info.update({"ablation": "fusion", "unfused_over_fused": round(r, 3)})


def test_fusion_not_always_better(benchmark):
    """The paper's warning, reproduced: there exist configurations where
    the fused kernel's occupancy penalty outweighs the traffic saving."""

    def worst_case():
        out = {}
        for m, n, k in ((8192, 512, 3), (4096, 1024, 2), (16384, 256, 2)):
            fused, unfused = _model_pair(m, n, k)
            out[f"{m}x{n}k{k}"] = unfused / fused
        return out

    ratios = benchmark(worst_case)
    assert min(ratios.values()) < 1.0, ratios
    benchmark.extra_info.update(
        {"ablation": "fusion",
         "unfused_over_fused": {k: round(v, 3) for k, v in ratios.items()}}
    )


def test_fusion_occupancy_gap(benchmark):
    """Quantify the occupancy loss fusion accepts."""

    def gap():
        m, n, k = 4096, 2048, 5
        fused = fused_hybrid_counters(m, n, k, 8)
        thom = pthomas_counters(m * (1 << k), -(-n // (1 << k)), 8)
        of = occupancy(GTX480, fused.threads_per_block, fused.smem_per_block)
        ot = occupancy(GTX480, thom.threads_per_block, thom.smem_per_block)
        return of.occupancy, ot.occupancy

    fo, to = benchmark(gap)
    assert fo < to
    benchmark.extra_info.update(
        {"ablation": "fusion", "fused_occupancy": round(fo, 3),
         "pthomas_occupancy": round(to, 3)}
    )
