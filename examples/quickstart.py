#!/usr/bin/env python
"""Quickstart: solve tridiagonal systems with every algorithm in the library.

Builds a batch of diagonally dominant systems, solves it with the
paper's hybrid (tiled PCR + p-Thomas) and with every classic algorithm,
verifies the solutions against each other, and shows the backend
dispatch layer at work: the per-solve trace, the cross-backend
agreement, and the simulated-GTX480 timing prediction — all through
``repro.solve_batch(..., backend=...)``.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.util.numerics import residual_norm
from repro.util.tridiag import BatchTridiagonal
from repro.workloads.generators import random_batch


def main() -> None:
    m, n = 64, 4096
    a, b, c, d = random_batch(m, n, seed=42)
    batch = BatchTridiagonal(a, b, c, d)
    print(f"Batch: M={m} systems, N={n} unknowns each, dtype={batch.dtype}")

    # --- one call does it: the hybrid with the paper's Table III plan ----
    x = repro.solve_batch(a, b, c, d)
    print(f"\nhybrid (auto):     residual = {residual_norm(batch, x):.2e}")

    # --- every solve leaves a trace: who ran, and what it decided ---------
    trace = repro.last_trace()
    print(
        f"trace: backend={trace.backend}, k={trace.k} ({trace.k_source}), "
        f"plan cache {trace.plan_cache}, "
        f"stages {[s.name for s in trace.stages]}"
    )

    # --- the classic algorithms agree ------------------------------------
    for name in ("thomas", "cr", "pcr", "rd"):
        xi = repro.solve_batch(a, b, c, d, algorithm=name)
        print(f"{name:<18} max diff vs hybrid = {np.abs(xi - x).max():.2e}")

    # --- the NumPy reference backend returns the same bits --------------
    xb = repro.solve_batch(a, b, c, d, backend="numpy")
    same = "bitwise equal" if np.array_equal(xb, x) else "MISMATCH"
    print(f"backend=numpy     {same}")

    # --- what did the hybrid actually do? ---------------------------------
    rep = repro.default_engine().last_report
    print(
        f"\nplan: k={rep.k} ({rep.k_source}) -> {rep.subsystems} independent "
        f"subsystems for p-Thomas"
    )
    print(
        f"tiled PCR: {rep.tiling.rows_loaded} rows loaded "
        f"({rep.tiling.rows_loaded_redundant} redundant), "
        f"{rep.tiling.eliminations} eliminations, "
        f"{rep.tiling.subtiles} sliding-window rounds"
    )

    # --- and what would it cost on the paper's GTX480? --------------------
    xg = repro.solve_batch(a, b, c, d, backend="gpusim")
    g = repro.last_trace()
    print(f"\nsimulated GTX480: {g.predicted_total_us:.0f} µs predicted "
          f"(max diff vs hybrid = {np.abs(xg - x).max():.2e})")
    for s in g.stages:
        if s.predicted_us is not None:
            print(f"  {s.name:<24} {s.predicted_us:8.1f} µs predicted "
                  f"({s.seconds * 1e3:7.3f} ms measured here)")


if __name__ == "__main__":
    main()
