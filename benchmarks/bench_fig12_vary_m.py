"""Figure 12 — execution time vs number of systems M at fixed N.

Paper: Fig. 12(a) N=512 (M = 64 … 16384), (b) N=2048 (M ≤ 4096),
(c) N=16384 (M ≤ 1024), double precision, three curves: sequential MKL,
multithreaded MKL, ours on a GTX480; plus the Section IV text's
single-precision headline (82.5× / 12.9×).

Each benchmark point times the *real* solver numerics (hybrid with the
Table III plan vs the two CPU proxies) and attaches the calibrated
model's GTX480/i7 prediction plus the shape bookkeeping to
``extra_info``.  The *_shape benchmarks assert the paper's qualitative
claims while generating the full model series.
"""

import pytest

from repro.analysis.figures import FIG12_SWEEPS, figure12_series
from repro.analysis.shapes import is_linear_in, loglog_slope, max_speedup, relative_span
from repro.baselines.mkl_proxy import mkl_multithreaded_proxy, mkl_sequential_proxy
from repro.backends import reference_solver

from .conftest import make_batch, verify

# measured points per panel: a spread over each sweep (full CPU reference
# solves at every paper M would dominate benchmark wall-time)
MEASURED = {
    512: (64, 512, 2048, 16384),
    2048: (64, 512, 4096),
    16384: (64, 1024),
}


def _model_info(n, m, dtype_bytes=8):
    row = [r for r in figure12_series(n, (m,), dtype_bytes)][0]
    return {
        "paper_figure": "12",
        "N": n,
        "M": m,
        "model_gpu_us": round(row["ours_us"], 1),
        "model_mkl_seq_us": round(row["mkl_seq_us"], 1),
        "model_mkl_mt_us": round(row["mkl_mt_us"], 1),
        "model_speedup_seq": round(row["speedup_seq"], 2),
        "model_speedup_mt": round(row["speedup_mt"], 2),
        "k": row["k"],
    }


@pytest.mark.parametrize("n", list(MEASURED))
@pytest.mark.parametrize("m_sel", [0, -1])
def test_fig12_hybrid_measured(benchmark, n, m_sel):
    m = MEASURED[n][m_sel]
    a, b, c, d = make_batch(m, n, seed=n + m)
    solver = reference_solver()
    x = benchmark(solver.solve_batch, a, b, c, d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update(_model_info(n, m))
    benchmark.extra_info["curve"] = "ours"


@pytest.mark.parametrize("n", [512])
@pytest.mark.parametrize("m", [64, 2048])
def test_fig12_mkl_sequential_measured(benchmark, n, m):
    a, b, c, d = make_batch(m, n, seed=m)
    x = benchmark(mkl_sequential_proxy, a, b, c, d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update(_model_info(n, m))
    benchmark.extra_info["curve"] = "mkl_seq"


@pytest.mark.parametrize("n", [512])
@pytest.mark.parametrize("m", [64, 2048, 16384])
def test_fig12_mkl_multithreaded_measured(benchmark, n, m):
    a, b, c, d = make_batch(m, n, seed=m)
    x = benchmark(mkl_multithreaded_proxy, a, b, c, d)
    verify(a, b, c, d, x)
    benchmark.extra_info.update(_model_info(n, m))
    benchmark.extra_info["curve"] = "mkl_mt"


@pytest.mark.parametrize("n", list(FIG12_SWEEPS))
def test_fig12_model_series_shape(benchmark, n):
    """Regenerate the full panel from the model and assert its shape."""

    def series():
        return figure12_series(n)

    rows = benchmark(series)
    ms = [r["M"] for r in rows]
    # CPU curves perfectly linear in M
    assert is_linear_in(ms, [r["mkl_seq_us"] for r in rows], tol=0.05)
    # ours sub-linear below saturation; the flat latency-bound region is
    # pronounced at N = 512 (paper Fig. 12a), milder at larger N where
    # the PCR stage is already throughput-bound
    low = [r for r in rows if r["M"] <= 1024]
    slope_cap = 0.8 if n == 512 else 0.95
    assert loglog_slope([r["M"] for r in low], [r["ours_us"] for r in low]) < slope_cap
    # ours beats sequential MKL at every point
    assert all(r["speedup_seq"] > 1 for r in rows)
    benchmark.extra_info.update(
        {
            "paper_figure": "12",
            "N": n,
            "max_speedup_seq": round(max_speedup(rows, "mkl_seq_us", "ours_us"), 1),
            "max_speedup_mt": round(max_speedup(rows, "mkl_mt_us", "ours_us"), 1),
            "paper_headline": "8.3x mt / 49x seq (double, N=512)",
        }
    )


def test_fig12_headline_double(benchmark):
    """The abstract's double-precision claim: up to 8.3× / 49×."""
    rows = benchmark(figure12_series, 512)
    smax = max_speedup(rows, "mkl_seq_us", "ours_us")
    tmax = max_speedup(rows, "mkl_mt_us", "ours_us")
    assert 24 < smax < 74, smax     # 49x ± 50%
    assert 4 < tmax < 13, tmax      # 8.3x ± 50%
    # flat region between 512 and 2048 (paper: 512 - 4096)
    flat = [r["ours_us"] for r in rows if 512 <= r["M"] <= 2048]
    assert relative_span(flat) < 2.0
    benchmark.extra_info.update(
        {"model_max_seq": round(smax, 1), "model_max_mt": round(tmax, 1),
         "paper_max_seq": 49.0, "paper_max_mt": 8.3}
    )


def test_fig12_headline_single(benchmark):
    """Section IV: 12.9× / 82.5× in single precision."""
    rows = benchmark(figure12_series, 512, FIG12_SWEEPS[512], 4)
    smax = max_speedup(rows, "mkl_seq_us", "ours_us")
    tmax = max_speedup(rows, "mkl_mt_us", "ours_us")
    assert 41 < smax < 124, smax    # 82.5x ± 50%
    assert 6 < tmax < 20, tmax      # 12.9x ± 50%
    benchmark.extra_info.update(
        {"model_max_seq": round(smax, 1), "model_max_mt": round(tmax, 1),
         "paper_max_seq": 82.5, "paper_max_mt": 12.9}
    )
