#!/usr/bin/env python
"""Adaptive router vs static Table-III heuristic benchmark.

The experiment the autotune subsystem exists for: does measured
calibration actually route better than the shipped static table on
*this* host?

Protocol, per swept ``(M, N)`` cell:

1. **calibrate** — :func:`repro.autotune.calibrate` measures every
   candidate route (backend x candidate k x licensed fingerprint
   tier) with interleaved rounds, filling a
   :class:`~repro.autotune.PerformanceModel`;
2. **measure** — the *same* public dispatch (``solve_via``) runs under
   the static :class:`~repro.backends.registry.Router` and under an
   :class:`~repro.autotune.AdaptiveRouter` (``epsilon=0``, pure
   exploitation) in paired-warmup interleaved rotation: per iteration
   each variant runs once untimed then once timed; the headline ratio
   is best-vs-best (min over iterations — each variant's
   least-interrupted run), with the median paired ratio recorded too;
3. **score** — a cell is *matched* when adaptive is within
   ``MATCH_TOLERANCE`` of static; a *strict win* additionally needs
   the adaptive route to differ from the static one (same route would
   just be timer noise agreeing with itself).

Acceptance (full mode): adaptive matches-or-beats static on >= 90% of
cells AND strictly wins >= 1 cell with a differing route.  The model
save -> load -> save round-trip must be bitwise.  Results land in
``BENCH_autotune.json``.

Run:   python benchmarks/bench_autotune.py
Smoke: python benchmarks/bench_autotune.py --smoke   (two small cells,
       fewer rounds; still writes JSON and checks the round-trip, but
       perf acceptance is reported without failing the run)
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.autotune import (
    AdaptiveRouter,
    PerformanceModel,
    calibrate,
    cell_key,
)
from repro.autotune.calibrate import calibration_batch
from repro.backends.registry import Router, default_registry, solve_via

#: adaptive may lose this much to static and still count as "matched"
MATCH_TOLERANCE = 1.10
#: a strict win must clear this margin (and use a different route)
WIN_MARGIN = 0.95

#: full sweep: both Table-III regimes plus the boundary region where a
#: mistuned static table costs the most
FULL_SHAPES = (
    (8, 1024),
    (32, 1024),
    (128, 1024),
    (512, 512),
    (1024, 1024),
)
SMOKE_SHAPES = ((8, 256), (64, 256))

#: accuracy contract carried by every request: licenses factorization
#: reuse on hybrid plans for both routers alike (the comparison is
#: about *choice*, so both sides get the same contracts)
RTOL = 1e-9


def _route_of(trace) -> dict:
    """The comparable route a dispatch actually ran."""
    decision = trace.decision
    applied = dict(decision.route) if decision is not None else {}
    return {
        "backend": trace.backend,
        "k": int(trace.k),
        "fingerprint": applied.get("fingerprint", "auto"),
    }


def bench_cell(m, n, model, registry, iters, dtype="float64"):
    """Static vs adaptive on one cell; returns the result record."""
    a, b, c, d = calibration_batch(m, n, dtype)
    static_router = Router()
    adaptive_router = AdaptiveRouter(model, epsilon=0.0)

    def run(router):
        registry.router = router
        return solve_via(a, b, c, d, rtol=RTOL, registry=registry)

    # identify each policy's chosen route (and warm caches/plans)
    _, trace_static = run(static_router)
    _, trace_adaptive = run(adaptive_router)
    route_static = _route_of(trace_static)
    route_adaptive = _route_of(trace_adaptive)

    ratios = []
    times = {"static": [], "adaptive": []}
    try:
        for _ in range(iters):
            pair = {}
            for name, router in (("static", static_router),
                                 ("adaptive", adaptive_router)):
                run(router)  # untimed pair-warmup
                t0 = time.perf_counter()
                run(router)
                pair[name] = time.perf_counter() - t0
                times[name].append(pair[name])
            ratios.append(pair["static"] / pair["adaptive"])
    finally:
        registry.router = Router()

    static_min = float(np.min(times["static"]))
    adaptive_min = float(np.min(times["adaptive"]))
    # best-vs-best: each variant's least-interrupted run.  The median
    # paired ratio is recorded too, but at sub-millisecond solves it
    # absorbs scheduler interference that min shrugs off.
    speedup = static_min / adaptive_min
    differs = route_static != route_adaptive
    matched = speedup >= 1.0 / MATCH_TOLERANCE
    strict_win = differs and speedup > 1.0 / WIN_MARGIN
    result = {
        "cell": cell_key(m, n, dtype, False),
        "m": m,
        "n": n,
        "dtype": dtype,
        "iters": iters,
        "static_s_min": static_min,
        "adaptive_s_min": adaptive_min,
        "speedup_adaptive_vs_static": speedup,
        "median_paired_ratio": float(np.median(ratios)),
        "route_static": route_static,
        "route_adaptive": route_adaptive,
        "route_differs": differs,
        "matched": matched,
        "strict_win": strict_win,
    }
    print(
        f"M={m:5d} N={n:5d}  static {result['static_s_min'] * 1e3:8.3f} ms  "
        f"adaptive {result['adaptive_s_min'] * 1e3:8.3f} ms  "
        f"x{speedup:5.2f}  "
        f"route {'differs' if differs else 'same   '}  "
        f"{'WIN' if strict_win else ('ok' if matched else 'MISS')}"
    )
    return result


def roundtrip_bitwise(model, directory: Path) -> bool:
    """save -> load -> save must reproduce the bytes exactly."""
    p1 = directory / "model_a.json"
    p2 = directory / "model_b.json"
    try:
        model.save(p1)
        PerformanceModel.load(p1).save(p2)
        return p1.read_bytes() == p2.read_bytes()
    finally:
        for p in (p1, p2):
            p.unlink(missing_ok=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="two small cells, fewer rounds; reports acceptance "
        "without failing on perf",
    )
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_autotune.json"
        ),
        help="output JSON path",
    )
    args = parser.parse_args()

    shapes = SMOKE_SHAPES if args.smoke else FULL_SHAPES
    repeats = 3 if args.smoke else 4
    iters = 5 if args.smoke else 15

    registry = default_registry()
    model = PerformanceModel()
    print("== calibration ==")
    # warmup_rounds must stay >= 2: the auto fingerprint tier needs two
    # sightings plus one factorization before its steady state, and
    # steady-state cost is what routing decides on
    calibrate(
        shapes, model=model, repeats=repeats, warmup_rounds=2,
        rtol=RTOL, registry=registry, progress=print,
    )

    print("== measurement (paired-warmup interleaved) ==")
    results = [
        bench_cell(m, n, model, registry, iters) for m, n in shapes
    ]

    out = Path(args.out)
    bitwise = roundtrip_bitwise(model, out.parent)
    matched = sum(r["matched"] for r in results)
    wins = sum(r["strict_win"] for r in results)
    matched_fraction = matched / len(results)
    acceptance = {
        "target": (
            "adaptive matches-or-beats static (within "
            f"{MATCH_TOLERANCE:.2f}x) on >= 90% of cells, strictly "
            "wins >= 1 cell with a differing route, model round-trips "
            "bitwise"
        ),
        "matched_cells": matched,
        "total_cells": len(results),
        "matched_fraction": matched_fraction,
        "strict_wins": wins,
        "model_roundtrip_bitwise": bitwise,
        "met": bool(
            matched_fraction >= 0.9 and wins >= 1 and bitwise
        ),
    }
    payload = {
        "benchmark": "bench_autotune",
        "description": (
            "static Table-III router vs trace-calibrated AdaptiveRouter "
            "(epsilon=0) through the same registry dispatch; "
            "paired-warmup interleaved timing, best-vs-best ratio "
            "(median paired ratio also recorded)"
        ),
        "mode": "smoke" if args.smoke else "full",
        "rtol": RTOL,
        "acceptance": acceptance,
        "results": results,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    print(
        f"matched {matched}/{len(results)} cells, {wins} strict win(s), "
        f"round-trip bitwise: {bitwise}"
    )

    # structural invariants hold in every mode
    assert bitwise, "model persistence round-trip is not bitwise"
    if args.smoke:
        print("smoke OK")
        return
    if not acceptance["met"]:
        raise SystemExit(
            "acceptance target missed: "
            f"{matched}/{len(results)} matched, {wins} strict wins"
        )
    print("acceptance met")


if __name__ == "__main__":
    main()
