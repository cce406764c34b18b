"""Host counterpart of Table I: fit the sliding window's sub-tile budget.

The engine sizes Table I's sub-tile ``c·2^k`` for the host
(:func:`repro.engine.plan.host_subtile_scale`): ``c`` grows while an
``(M, c·2^k)`` ufunc block stays within a budget of elements.  This
script times the default plan of a fixed shape grid at each candidate
budget's ``c`` (powers of two from 2^13 to 2^15) and at Table I's
``c = 1`` — each a variant of the plan with its ``subtile_scale``
replaced, executed by :func:`repro.engine.executor.execute_plan` on a
workspace of its own — and picks the budget with the lowest
geometric-mean solve time: the fit behind
:data:`repro.engine.plan.HOST_BLOCK_ELEMENTS`.  Every column returns
the same bits; only the schedule moves.

    PYTHONPATH=src python benchmarks/bench_host_subtile.py [--repeats 11]
"""

import argparse
import dataclasses
import statistics
import time

import numpy as np

from repro.engine.executor import execute_plan
from repro.engine.plan import HOST_BLOCK_ELEMENTS, build_plan, host_subtile_scale
from repro.engine.workspace import PlanWorkspace
from repro.workloads.generators import random_batch

#: (M, N) shapes at the default transition k; the paper's large-N regime
GRID = ((1, 65536), (4, 32768), (16, 8192), (64, 2048), (256, 512))
BUDGETS = (1 << 13, 1 << 14, 1 << 15)


def _medians_ms(batch, plan, scales, repeats):
    """Median solve time per sub-tile scale, each a variant of ``plan``,
    timed round-robin so host drift hits every column alike; asserts
    every scale's bits equal Table I's ``c = 1``."""
    variants = {}
    for c in scales:
        variant = dataclasses.replace(plan, subtile_scale=c)
        variants[c] = (variant, PlanWorkspace(variant))

    def solve(c):
        variant, ws = variants[c]
        return execute_plan(variant, ws, *batch)

    ref = solve(1)
    for c in scales:
        if solve(c).tobytes() != ref.tobytes():
            raise AssertionError(f"c = {c} changed the bits")
    times = {c: [] for c in scales}
    for _ in range(repeats):
        for c in scales:
            t0 = time.perf_counter()
            solve(c)
            times[c].append(time.perf_counter() - t0)
    return {c: 1e3 * statistics.median(ts) for c, ts in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args(argv)
    head = " | ".join(f"2^{b.bit_length() - 1}" for b in BUDGETS)
    print(f"| (M, N), k | c = 1 | {head} |")
    print("|---" * (2 + len(BUDGETS)) + "|")
    logs = {b: [] for b in (1, *BUDGETS)}
    for m, n in GRID:
        plan = build_plan(m, n, np.float64)
        k = plan.k
        scales = {b: host_subtile_scale(m, n, k, budget=b) for b in BUDGETS}
        ms = _medians_ms(
            random_batch(m, n, seed=m), plan, sorted({1, *scales.values()}), args.repeats
        )
        logs[1].append(np.log(ms[1]))
        cells = [f"{ms[1]:.1f} ms"]
        for b, c in scales.items():
            logs[b].append(np.log(ms[c]))
            cells.append(f"{ms[c]:.1f} ms (c = {c})")
        print(f"| ({m}, {n}), k = {k} | " + " | ".join(cells) + " |")
    geo = {b: float(np.exp(np.mean(v))) for b, v in logs.items()}
    print("| geometric mean | " + " | ".join(f"{geo[b]:.1f} ms" for b in (1, *BUDGETS)) + " |")
    best = min(BUDGETS, key=geo.get)
    print(f"best budget: 2^{best.bit_length() - 1} "
          f"(HOST_BLOCK_ELEMENTS = 2^{HOST_BLOCK_ELEMENTS.bit_length() - 1})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
