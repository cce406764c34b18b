#!/usr/bin/env python
"""Application-tier throughput: bound sessions vs per-call prepared loops.

The session tier exists for time-stepping applications: the implicit
matrices are fixed for the whole simulation while a fresh right-hand
side arrives every step.  This benchmark measures the paper's
motivating workloads written both ways:

* **prepared** — the pre-session idiom: one :func:`repro.prepare`
  handle per sweep direction, a naturally-written (allocating) loop
  calling ``PreparedPlan.solve`` per step;
* **sessions** — the workload simulators of
  :mod:`repro.workloads.timestepping`: one bound session per sweep
  direction, in-place right-hand-side construction, and the
  transposed-layout ``step_t`` fast path that hands each Thomas sweep
  its native ``(N, M)`` orientation (no staging transposes).

Both loops run the identical discrete scheme — the Peaceman–Rachford
identity ``(I + βx·Lx)·u* = 2·u* − d1`` included — so on the ``k = 0``
Thomas routes the final fields are **bitwise identical** and the
speedup is pure orchestration: no per-step validation, plan lookup,
trace construction, output allocation, or redundant transposes.

Cases: 2-D ADI diffusion (the headline, 1024x1024), 3-D LOD diffusion,
and IMEX Crank–Nicolson with a cubic source.  Every case also reports
accuracy against a dense ``reference_step`` on a small grid.  The
headline acceptance — sessions >= 1.3x steps/sec over the per-call
prepared loop on 2-D ADI at 1024x1024 — lands in
``BENCH_applications.json``.

Run:   python benchmarks/bench_applications.py
Smoke: python benchmarks/bench_applications.py --smoke   (2-D ADI at
       the headline shape and 3-D LOD at 48^3, few steps; asserts
       bitwise, dense-reference agreement and the session speedups;
       no JSON)
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

import repro
from repro.workloads import (
    ADIDiffusion2D,
    ADIDiffusion3D,
    CrankNicolsonCubic,
    mirror_laplacian,
)
from repro.workloads.pde import adi_row_coefficients, crank_nicolson_rhs


def time_loop(fn, steps: int) -> float:
    """Seconds per step over ``steps`` calls of ``fn`` (one warmup)."""
    fn()
    t0 = time.perf_counter()
    for _ in range(steps):
        fn()
    return (time.perf_counter() - t0) / steps


def reference_error(sim_cls, shape, steps: int = 5, **kwargs) -> float:
    """Max |session − dense reference| after ``steps`` on a small grid."""
    rng = np.random.default_rng(11)
    sim = sim_cls(rng.random(shape), **kwargs)
    ref = sim.u.copy()
    for _ in range(steps):
        ref = sim.reference_step(ref)
    sim.run(steps)
    err = float(np.abs(sim.u - ref).max())
    sim.close()
    return err


def report(result: dict) -> dict:
    agree = "bitwise" if result["bitwise_identical"] else (
        "allclose" if result["allclose"] else "FAIL"
    )
    print(
        f"{result['case']:16s} {result['grid']:>14s}  "
        f"prepared {result['prepared_steps_per_sec']:7.2f} steps/s  "
        f"sessions {result['session_steps_per_sec']:7.2f} steps/s  "
        f"{result['speedup_sessions_vs_prepared']:5.2f}x  "
        f"ref {result['reference_error']:.1e}  [{agree}]"
    )
    return result


def bench_adi2d(ny: int, nx: int, steps: int, alpha=0.2, dt=0.8) -> dict:
    rng = np.random.default_rng(3)
    u0 = rng.random((ny, nx))
    beta = alpha * dt / 2.0

    # prepared baseline: handles once, per-call PreparedPlan.solve loop
    ax, bx, cx = adi_row_coefficients(ny, nx, beta)
    ay, by, cy = adi_row_coefficients(nx, ny, beta)
    row = repro.prepare(ax, bx, cx)
    col = repro.prepare(ay, by, cy)

    def prepared_step(u):
        d1 = u + beta * mirror_laplacian(u, axis=0)
        ustar = row.solve(d1)
        d2 = 2.0 * ustar - d1
        return col.solve(np.ascontiguousarray(d2.T)).T.copy()

    sim = ADIDiffusion2D(u0, alpha, dt)

    # correctness first: both loops from the same state
    u_pre = u0.copy()
    for _ in range(3):
        u_pre = prepared_step(u_pre)
    sim.run(3)
    bitwise = bool(np.array_equal(sim.u, u_pre))
    close = bitwise or bool(np.allclose(sim.u, u_pre, rtol=1e-9, atol=1e-12))

    state = {"u": u0.copy()}

    def run_prepared():
        state["u"] = prepared_step(state["u"])

    t_pre = time_loop(run_prepared, steps)
    t_ses = time_loop(sim.step, steps)
    k_row = sim._row.describe().get("k")
    sim.close()

    return report({
        "case": "adi-2d",
        "grid": f"{ny}x{nx}",
        "steps": steps,
        "k": k_row,
        "prepared_s_per_step": t_pre,
        "session_s_per_step": t_ses,
        "prepared_steps_per_sec": 1.0 / t_pre,
        "session_steps_per_sec": 1.0 / t_ses,
        "speedup_sessions_vs_prepared": t_pre / t_ses,
        "bitwise_identical": bitwise,
        "allclose": close,
        "reference_error": reference_error(
            ADIDiffusion2D, (48, 40), alpha=alpha, dt=dt
        ),
    })


def bench_adi3d(nz: int, ny: int, nx: int, steps: int, alpha=0.2, dt=0.5) -> dict:
    rng = np.random.default_rng(5)
    u0 = rng.random((nz, ny, nx))
    beta = alpha * dt / 2.0

    handles = [
        repro.prepare(*adi_row_coefficients(nz * ny, nx, beta)),
        repro.prepare(*adi_row_coefficients(nz * nx, ny, beta)),
        repro.prepare(*adi_row_coefficients(ny * nx, nz, beta)),
    ]

    def sweep(handle, v):
        d = v + beta * mirror_laplacian(v)
        shape = v.shape
        return handle.solve(
            d.reshape(shape[0] * shape[1], shape[2])
        ).reshape(shape)

    def prepared_step(u):
        u = sweep(handles[0], u)
        ut = np.ascontiguousarray(u.transpose(0, 2, 1))
        ut = sweep(handles[1], ut)
        u = ut.transpose(0, 2, 1)
        ut = np.ascontiguousarray(u.transpose(1, 2, 0))
        ut = sweep(handles[2], ut)
        return np.ascontiguousarray(ut.transpose(2, 0, 1))

    sim = ADIDiffusion3D(u0, alpha, dt)
    u_pre = u0.copy()
    for _ in range(2):
        u_pre = prepared_step(u_pre)
    sim.run(2)
    bitwise = bool(np.array_equal(sim.u, u_pre))
    close = bitwise or bool(np.allclose(sim.u, u_pre, rtol=1e-9, atol=1e-12))

    state = {"u": u0.copy()}

    def run_prepared():
        state["u"] = prepared_step(state["u"])

    t_pre = time_loop(run_prepared, steps)
    t_ses = time_loop(sim.step, steps)
    sim.close()

    return report({
        "case": "adi-3d",
        "grid": f"{nz}x{ny}x{nx}",
        "steps": steps,
        "prepared_s_per_step": t_pre,
        "session_s_per_step": t_ses,
        "prepared_steps_per_sec": 1.0 / t_pre,
        "session_steps_per_sec": 1.0 / t_ses,
        "speedup_sessions_vs_prepared": t_pre / t_ses,
        "bitwise_identical": bitwise,
        "allclose": close,
        "reference_error": reference_error(
            ADIDiffusion3D, (7, 9, 11), alpha=alpha, dt=dt
        ),
    })


def bench_cn_cubic(m: int, n: int, steps: int, alpha=0.1, dt=0.02) -> dict:
    rng = np.random.default_rng(7)
    u0 = 0.4 * rng.standard_normal((m, n))
    eps = gamma = 1.0

    from repro.workloads.pde import crank_nicolson_coefficients

    a, b, c = crank_nicolson_coefficients(m, n, alpha, dt, 1.0)
    handle = repro.prepare(a, b, c)

    def prepared_step(u):
        d = crank_nicolson_rhs(u, alpha, dt, 1.0)
        react = u * u * u
        react *= -gamma
        react += eps * u
        react *= dt
        d[:, 1:-1] += react[:, 1:-1]
        return handle.solve(d)

    sim = CrankNicolsonCubic(u0, alpha, dt, eps=eps, gamma=gamma)
    u_pre = u0.copy()
    for _ in range(3):
        u_pre = prepared_step(u_pre)
    sim.run(3)
    bitwise = bool(np.array_equal(sim.u, u_pre))
    close = bitwise or bool(np.allclose(sim.u, u_pre, rtol=1e-9, atol=1e-12))

    state = {"u": u0.copy()}

    def run_prepared():
        state["u"] = prepared_step(state["u"])

    t_pre = time_loop(run_prepared, steps)
    t_ses = time_loop(sim.step, steps)
    sim.close()

    return report({
        "case": "cn-cubic",
        "grid": f"{m}x{n}",
        "steps": steps,
        "prepared_s_per_step": t_pre,
        "session_s_per_step": t_ses,
        "prepared_steps_per_sec": 1.0 / t_pre,
        "session_steps_per_sec": 1.0 / t_ses,
        "speedup_sessions_vs_prepared": t_pre / t_ses,
        "bitwise_identical": bitwise,
        "allclose": close,
        "reference_error": reference_error(
            CrankNicolsonCubic, (6, 64), alpha=alpha, dt=dt
        ),
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="headline shape, few steps, assert correctness + speed, no JSON",
    )
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_applications.json"
        ),
        help="output JSON path (ignored with --smoke)",
    )
    args = parser.parse_args()

    if args.smoke:
        # (case, grid, floor on the session speedup over the per-call loop)
        for bench, grid, floor in (
            (bench_adi2d, (1024, 1024), 1.05),
            (bench_adi3d, (48, 48, 48), 1.3),
        ):
            res = bench(*grid, steps=3)
            assert res["bitwise_identical"], (
                f"sessions must be bitwise identical to the prepared loop: {res}"
            )
            assert res["reference_error"] < 1e-10, (
                f"sessions diverged from the dense reference: {res}"
            )
            assert res["speedup_sessions_vs_prepared"] >= floor, (
                f"sessions under {floor}x the per-call prepared loop: {res}"
            )
        print("smoke OK: sessions faster than prepared, bitwise, reference agrees")
        return

    results = [
        # the acceptance case: the paper's ADI workload at 1024x1024 —
        # k = 0 Thomas sweeps, transposed-layout sessions, bitwise
        bench_adi2d(1024, 1024, steps=12),
        bench_adi3d(96, 96, 96, steps=6),
        bench_cn_cubic(4096, 512, steps=20),
    ]

    headline = results[0]
    payload = {
        "benchmark": "bench_applications",
        "description": (
            "time-stepping applications written as per-call "
            "PreparedPlan.solve loops vs bound-session simulators "
            "(in-place RHS construction, transposed-layout step_t); "
            "steps per second and accuracy vs dense references"
        ),
        "acceptance": {
            "target": (
                "sessions >= 1.3x steps/sec over the per-call prepared "
                "loop on 2-D ADI at 1024x1024, bitwise identical"
            ),
            "speedup_sessions_vs_prepared": headline[
                "speedup_sessions_vs_prepared"
            ],
            "bitwise_identical": headline["bitwise_identical"],
            "met": (
                headline["speedup_sessions_vs_prepared"] >= 1.3
                and headline["bitwise_identical"]
            ),
        },
        "results": results,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    if not payload["acceptance"]["met"]:
        raise SystemExit(
            "acceptance target missed: sessions < 1.3x over the per-call "
            "prepared loop or not bitwise"
        )
    print(
        f"acceptance met: session-driven ADI is "
        f"{headline['speedup_sessions_vs_prepared']:.2f}x over the "
        f"per-call prepared loop"
    )


if __name__ == "__main__":
    main()
