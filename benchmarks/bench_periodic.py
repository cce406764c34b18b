#!/usr/bin/env python
"""Prepared cyclic (Sherman–Morrison) vs re-elimination benchmark.

Periodic-Poisson workloads (ADI / spectral, the paper's ref [6] family)
solve a *fixed* cyclic matrix against a fresh right-hand side every
time step.  This benchmark measures the three ways the library can run
that loop:

* **unprepared** — ``engine.solve_batch(..., periodic=True)`` with fingerprinting
  disabled: every call corner-reduces and runs *two* inner solves
  (``A'y = d`` and ``A'q = u``) plus the correction;
* **auto** — fingerprinting on: the engine recognises the repeated
  cyclic coefficients and serves the stored
  :class:`~repro.engine.prepared.CyclicRhsFactorization` (hash cost
  included in every timed call);
* **prepared** — an explicit ``repro.prepare(..., periodic=True)``
  handle: one RHS-only core sweep plus a rank-one update per step.

The prepared path skips the coefficient elimination *and* the entire
q-solve, so its advantage over re-elimination is larger than the plain
prepared path's.  At ``k = 0`` (the large-M Thomas regime) prepared
results are **bitwise identical** to unprepared; ``k > 0`` agrees to
floating-point tolerance.  The headline case (M = 1024, N = 1024,
50 steps) must show ``prepared`` at least ``HEADLINE_TARGET``x faster
than ``unprepared``; results land in ``BENCH_periodic.json``.

Run:   python benchmarks/bench_periodic.py
Smoke: python benchmarks/bench_periodic.py --smoke   (small, asserts
       correctness + prepared not slower than unprepared; no JSON)
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.engine import ExecutionEngine

#: Headline acceptance floor for prepared-vs-unprepared at M=N=1024.
#: Recalibrated 2026-08: recent measurement sessions spread
#: 5.14x-5.88x (~13% run-to-run and machine-to-machine variation), so
#: the floor sits ~10% under the low end of that spread rather than at
#: the freshest reading — far enough to absorb noisy CI runners, close
#: enough that losing the RHS-only fast path (which would drop the
#: ratio toward 1x) still fails loudly.
HEADLINE_TARGET = 4.7


def make_cyclic_coefficients(m: int, n: int, seed: int = 0):
    """Random dominant cyclic diagonals (corners in a[:,0] / c[:,-1])."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 4.0 + np.abs(a) + np.abs(c)
    return a, b, c


def time_loop(fn, rhs_list) -> float:
    """Seconds per step over one pass of ``rhs_list``."""
    t0 = time.perf_counter()
    for d in rhs_list:
        fn(d)
    return (time.perf_counter() - t0) / len(rhs_list)


def bench_case(name: str, m: int, n: int, steps: int, **solver_kwargs):
    a, b, c = make_cyclic_coefficients(m, n, seed=m + n)
    rng = np.random.default_rng(m ^ n)
    rhs = [rng.standard_normal((m, n)) for _ in range(steps)]
    engine = ExecutionEngine()

    handle = engine.prepare(a, b, c, periodic=True, **solver_kwargs)
    k = handle.k

    # correctness first: every step's prepared solution against the
    # unprepared path (bitwise at k = 0, allclose for the hybrid)
    x_un = [
        engine.solve_batch(
            a, b, c, d, periodic=True, fingerprint=False, **solver_kwargs
        )
        for d in rhs
    ]
    x_pre = [handle.solve(d) for d in rhs]
    bitwise = all(np.array_equal(u, p) for u, p in zip(x_un, x_pre))
    close = bitwise or all(
        np.allclose(u, p, rtol=1e-9, atol=1e-12) for u, p in zip(x_un, x_pre)
    )

    def run_unprepared(d):
        engine.solve_batch(
            a, b, c, d, periodic=True, fingerprint=False, **solver_kwargs
        )

    def run_auto(d):
        engine.solve_batch(
            a, b, c, d, periodic=True, fingerprint=True, **solver_kwargs
        )

    def run_prepared(d):
        handle.solve(d)

    run_auto(rhs[0])  # prime the fingerprint ledger before timing
    t_un = time_loop(run_unprepared, rhs)
    t_auto = time_loop(run_auto, rhs)
    t_pre = time_loop(run_prepared, rhs)

    result = {
        "case": name,
        "m": m,
        "n": n,
        "k": k,
        "steps": steps,
        "solver_kwargs": {k_: str(v) for k_, v in solver_kwargs.items()},
        "factorization_bytes": handle.nbytes,
        "unprepared_s_per_step": t_un,
        "auto_fingerprint_s_per_step": t_auto,
        "prepared_s_per_step": t_pre,
        "speedup_prepared_vs_unprepared": t_un / t_pre,
        "speedup_auto_vs_unprepared": t_un / t_auto,
        "bitwise_identical": bitwise,
        "allclose": close,
    }
    agree = "bitwise" if bitwise else ("allclose" if close else "FAIL")
    print(
        f"{name:24s} M={m:5d} N={n:5d} k={k}  "
        f"unprep {t_un * 1e3:8.3f} ms  auto {t_auto * 1e3:8.3f} ms  "
        f"prep {t_pre * 1e3:8.3f} ms  "
        f"prep/unprep {result['speedup_prepared_vs_unprepared']:5.2f}x  "
        f"[{agree}]"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small problems, few steps, assert correctness, no JSON",
    )
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_periodic.json"
        ),
        help="output JSON path (ignored with --smoke)",
    )
    args = parser.parse_args()

    if args.smoke:
        res = bench_case("smoke-thomas", 1024, 64, steps=5)
        res2 = bench_case("smoke-hybrid", 8, 512, steps=5, k=4)
        assert res["k"] == 0 and res["bitwise_identical"], (
            f"k=0 prepared cyclic path must be bitwise identical: {res}"
        )
        assert res2["allclose"], f"hybrid prepared cyclic path diverged: {res2}"
        for r in (res, res2):
            assert (
                r["prepared_s_per_step"]
                <= r["unprepared_s_per_step"] * 1.10
            ), f"prepared slower than unprepared: {r}"
        print("smoke OK: prepared <= unprepared, numerics agree")
        return

    results = [
        # the acceptance case: the large-M regime (k = 0 -> RHS-only
        # Thomas sweep + rank-one correction, bitwise)
        bench_case("large-M thomas", 1024, 1024, steps=50),
        # mid-M: Table III picks the hybrid core
        bench_case("mid-M hybrid", 128, 1024, steps=20),
        # small-M deep hybrid
        bench_case("small-M hybrid", 16, 2048, steps=10),
    ]

    headline = results[0]
    payload = {
        "benchmark": "bench_periodic",
        "description": (
            "unprepared (corner-reduce + two inner solves every step) vs "
            "auto (cyclic coefficient fingerprint -> stored "
            "CyclicRhsFactorization) vs prepared (explicit "
            "repro.prepare(..., periodic=True) handle, one RHS-only "
            "sweep + rank-one correction); seconds per time step"
        ),
        "acceptance": {
            "target": (
                f"prepared >= {HEADLINE_TARGET}x over unprepared at "
                "M=1024 N=1024 x50, bitwise identical (k = 0)"
            ),
            "speedup_prepared_vs_unprepared": headline[
                "speedup_prepared_vs_unprepared"
            ],
            "bitwise_identical": headline["bitwise_identical"],
            "met": (
                headline["speedup_prepared_vs_unprepared"] >= HEADLINE_TARGET
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
            f"acceptance target missed: prepared < {HEADLINE_TARGET}x "
            "over unprepared "
            "or not bitwise"
        )
    print(
        f"acceptance met: prepared cyclic RHS-only path is "
        f"{headline['speedup_prepared_vs_unprepared']:.2f}x over "
        f"re-eliminating every step"
    )


if __name__ == "__main__":
    main()
