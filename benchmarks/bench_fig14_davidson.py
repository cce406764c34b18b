"""Figure 14 — ours vs Davidson et al. [19] on the paper's four configs.

Paper: (a) double precision, ours vs their implementation of Davidson's
auto-tuned PCR-Thomas; (b) single precision, additionally vs Davidson's
own reported numbers.  Configurations: 1K×1K, 2K×2K, 4K×4K, 1×2M;
claim: "2x to 10x speedup for most of the cases".

Measured benchmarks run both solvers' real numerics (the 1×2M config at
a scaled N for the streaming path); model benchmarks regenerate the
exact bar chart values next to the paper's.
"""

import pytest

from repro.analysis.figures import (
    PAPER_FIG14_DOUBLE,
    PAPER_FIG14_SINGLE,
    figure14_bars,
)
from repro.baselines.davidson import DavidsonSolver
from repro.backends import reference_solver
from repro.kernels.hybrid_gpu import GpuHybridSolver

from .conftest import make_batch, verify

# measured at tractable sizes: same aspect, scaled down where needed
MEASURED = {
    "1Kx1K": (1024, 1024),
    "2Kx2K": (2048, 2048),
    "1x128K": (1, 131072),  # stands in for 1x2M on the streaming path
}


@pytest.mark.parametrize("label", list(MEASURED))
def test_fig14_ours_measured(benchmark, label):
    m, n = MEASURED[label]
    a, b, c, d = make_batch(m, n, seed=m)
    gpu = GpuHybridSolver()
    k, w = gpu.plan(m, n)
    solver = reference_solver(k=k, n_windows=w, subtile_scale=8 if m == 1 else 1)
    x = benchmark.pedantic(solver.solve_batch, args=(a, b, c, d), rounds=2, iterations=1)
    verify(a, b, c, d, x)
    benchmark.extra_info.update({"paper_figure": "14", "config": label, "solver": "ours"})


@pytest.mark.parametrize("label", list(MEASURED))
def test_fig14_davidson_measured(benchmark, label):
    m, n = MEASURED[label]
    a, b, c, d = make_batch(m, n, seed=m)
    solver = DavidsonSolver()
    x = benchmark.pedantic(solver.solve_batch, args=(a, b, c, d), rounds=2, iterations=1)
    verify(a, b, c, d, x)
    benchmark.extra_info.update(
        {"paper_figure": "14", "config": label, "solver": "davidson"}
    )


def test_fig14a_model_double(benchmark):
    """Fig. 14(a): regenerate the double-precision bars."""
    rows = benchmark(figure14_bars, 8)
    for r in rows:
        # ours always wins; ratio within 2x of the paper's measured ratio
        assert r["ratio"] > 1.2, r["config"]
        assert 0.5 < r["ratio"] / r["paper_ratio"] < 2.0, r["config"]
    benchmark.extra_info.update(
        {
            "paper_figure": "14a",
            "bars": {
                r["config"]: {
                    "ours_ms": round(r["ours_ms"], 2),
                    "paper_ours_ms": r["paper_ours_ms"],
                    "davidson_ms": round(r["davidson_ms"], 2),
                    "paper_davidson_ms": r["paper_davidson_ms"],
                }
                for r in rows
            },
        }
    )


def test_fig14b_model_single(benchmark):
    """Fig. 14(b): single-precision bars, incl. Davidson's reported values."""
    rows = benchmark(figure14_bars, 4)
    for r in rows:
        assert r["ratio"] > 1.0, r["config"]
        assert "davidson_reported_ms" in r
    benchmark.extra_info.update(
        {
            "paper_figure": "14b",
            "bars": {
                r["config"]: {
                    "ours_ms": round(r["ours_ms"], 2),
                    "paper_ours_ms": PAPER_FIG14_SINGLE[r["config"]][0],
                    "davidson_ms": round(r["davidson_ms"], 2),
                    "davidson_reported_ms": r["davidson_reported_ms"],
                }
                for r in rows
            },
        }
    )


def test_fig14_band_claim(benchmark):
    """'2x to 10x speedup for most of the cases' — at least 3 of 4
    double-precision configs land in [2, 12]."""

    def ratios():
        return [r["ratio"] for r in figure14_bars(8)]

    got = benchmark(ratios)
    in_band = sum(1 for r in got if 2.0 <= r <= 12.0)
    assert in_band >= 3, got
    benchmark.extra_info["model_ratios"] = [round(r, 2) for r in got]
    benchmark.extra_info["paper_ratios"] = [
        round(v[1] / v[0], 2) for v in PAPER_FIG14_DOUBLE.values()
    ]
