#!/usr/bin/env python
"""Prepared (RHS-only) vs unprepared solve benchmark.

A time-stepping loop solves the same tridiagonal matrix against a fresh
right-hand side every step.  This benchmark measures the three ways the
library can run that loop:

* **unprepared** — ``engine.solve_batch`` with fingerprinting disabled:
  warm plan and pooled workspaces, but every call re-eliminates the
  (unchanged) coefficients;
* **auto** — ``engine.solve_batch`` with the default
  ``fingerprint=None``: the engine hashes the coefficients, recognises
  the repeat, and serves the stored factorization's RHS-only sweep
  (hash cost included in every timed call);
* **prepared** — an explicit :func:`repro.prepare` handle: the
  factorization is built once outside the loop and each step pays only
  the RHS-only sweep.

At every ``k`` the RHS-only sweep divides by the *stored denominators*
in the same order as the unprepared elimination (Thomas at ``k = 0``,
p-Thomas over the stored reduced system above), so prepared results are
**bitwise identical**; ``allclose`` is still recorded beside it.  The headline case (M = 1024, N = 1024, 50 steps) is
expected to show ``prepared`` at least 2x faster than ``unprepared``;
results land in ``BENCH_prepared.json``.

Run:   python benchmarks/bench_prepared.py
Smoke: python benchmarks/bench_prepared.py --smoke   (small, asserts
       correctness + prepared not slower than unprepared; no JSON)
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.engine import ExecutionEngine


def make_coefficients(m: int, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = 4.0 + np.abs(a) + np.abs(c)
    return a, b, c


def time_loop(fn, rhs_list) -> float:
    """Seconds per step over one pass of ``rhs_list``."""
    t0 = time.perf_counter()
    for d in rhs_list:
        fn(d)
    return (time.perf_counter() - t0) / len(rhs_list)


def bench_case(name: str, m: int, n: int, steps: int, **solver_kwargs):
    a, b, c = make_coefficients(m, n, seed=m + n)
    rng = np.random.default_rng(m ^ n)
    rhs = [rng.standard_normal((m, n)) for _ in range(steps)]
    engine = ExecutionEngine()

    handle = engine.prepare(a, b, c, **solver_kwargs)
    k = handle.k

    # correctness first: every step's prepared solution against the
    # unprepared path (bitwise at every k)
    x_un = [
        engine.solve_batch(a, b, c, d, fingerprint=False, **solver_kwargs)
        for d in rhs
    ]
    x_pre = [handle.solve(d) for d in rhs]
    bitwise = all(np.array_equal(u, p) for u, p in zip(x_un, x_pre))
    close = bitwise or all(
        np.allclose(u, p, rtol=1e-9, atol=1e-12) for u, p in zip(x_un, x_pre)
    )

    def run_unprepared(d):
        engine.solve_batch(a, b, c, d, fingerprint=False, **solver_kwargs)

    def run_auto(d):
        engine.solve_batch(a, b, c, d, fingerprint=True, **solver_kwargs)

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
            Path(__file__).resolve().parent.parent / "BENCH_prepared.json"
        ),
        help="output JSON path (ignored with --smoke)",
    )
    args = parser.parse_args()

    if args.smoke:
        res = bench_case("smoke-thomas", 1024, 64, steps=5)
        res2 = bench_case("smoke-hybrid", 8, 512, steps=5, k=4)
        assert res["k"] == 0 and res["bitwise_identical"], (
            f"k=0 prepared path must be bitwise identical: {res}"
        )
        assert res2["k"] > 0 and res2["bitwise_identical"], (
            f"hybrid prepared path must be bitwise identical: {res2}"
        )
        for r in (res, res2):
            assert (
                r["prepared_s_per_step"]
                <= r["unprepared_s_per_step"] * 1.10
            ), f"prepared slower than unprepared: {r}"
        print("smoke OK: prepared <= unprepared, numerics agree")
        return

    results = [
        # the acceptance case: paper's large-M regime (k = 0 -> the
        # RHS-only Thomas sweep with stored denominators, bitwise)
        bench_case("large-M thomas", 1024, 1024, steps=50),
        # mid-M: Table III picks the hybrid (stored PCR level factors
        # + reduced RHS-only Thomas)
        bench_case("mid-M hybrid", 128, 1024, steps=20),
        # small-M deep hybrid
        bench_case("small-M hybrid", 16, 2048, steps=10),
    ]

    headline = results[0]
    payload = {
        "benchmark": "bench_prepared",
        "description": (
            "unprepared (fingerprint off, coefficients re-eliminated "
            "every step) vs auto (coefficient fingerprint -> stored "
            "factorization) vs prepared (explicit repro.prepare handle, "
            "RHS-only sweep); seconds per time step"
        ),
        "acceptance": {
            "target": (
                "prepared >= 2x over unprepared at M=1024 N=1024 x50, "
                "bitwise identical (k = 0)"
            ),
            "speedup_prepared_vs_unprepared": headline[
                "speedup_prepared_vs_unprepared"
            ],
            "bitwise_identical": headline["bitwise_identical"],
            "met": (
                headline["speedup_prepared_vs_unprepared"] >= 2.0
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
            "acceptance target missed: prepared < 2x over unprepared "
            "or not bitwise"
        )
    print(
        f"acceptance met: prepared RHS-only path is "
        f"{headline['speedup_prepared_vs_unprepared']:.2f}x over "
        f"re-eliminating every step"
    )


if __name__ == "__main__":
    main()
