"""Command line of the benchmark suite.

    python -m benchmarks.suite [--seed S] [--workload W ...] [--seconds T]
                               [--trace [0|1]] [--check] [--out DIR]
    python -m benchmarks.suite compare --parent A.json ... --change B.json ...

With one ``--workload`` the workload runs in this process; otherwise
each selected workload runs in its own fresh subprocess, so caches and
peak RSS are per workload.  ``--trace 0`` (the default) prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` prints every
per-layer metric instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Any
failed correctness check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

import repro
from repro.service import ServiceConfig

from benchmarks.suite.harness import (
    ROOT,
    Series,
    peak_rss_mb,
    summarize,
    write_result,
)
from benchmarks.suite.tracing import LAYERS, WRAPPED, Tracer, span_label
from benchmarks.suite.workloads import WORKLOADS

__all__ = ["main"]

#: cold starts per run; ``setup_s`` is their median
COLD_STARTS = 9

#: seconds per workload in ``--check`` mode
CHECK_SECONDS = 0.3

#: setup-breakdown metric -> the layers whose cold-start self time it sums
SETUP_GROUPS = {
    "setup.plan_pct": ("engine.prepare",),
    "setup.factorize_pct": ("engine.fingerprint", "engine.factorize"),
    "setup.bind_pct": ("engine.bind",),
    "setup.spawn_pct": ("distributed.spawn", "distributed.comms"),
    "setup.solve_pct": (
        "core.tiled_pcr",
        "core.pthomas",
        "core.thomas",
        "distributed.local_eliminate",
        "distributed.reduced_solve",
        "distributed.backsub",
    ),
}

#: layers whose time is kernel work (the denominator of kernels.gbps_computed)
KERNEL_LAYERS = SETUP_GROUPS["setup.solve_pct"]

GPUSIM_KINDS = ("tiled_pcr", "pthomas", "thomas", "slab")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


# ---- one workload, in this process ----------------------------------------
def end_to_end(workload, seconds: float, cold_starts: int):
    """Cold starts, then one untraced window.

    Peak RSS is read right after the cold starts, which run only the
    main path: the baseline ops and the references the checks compute
    come later and cannot hide a change in the main path's memory.
    Returns ``(values, timings, attempted, failed)``; ``timings`` holds
    the summaries behind each median.
    """
    starts, evidence = Series(), []
    for _ in range(cold_starts):
        wall, slowdown, record = workload.cold_start()
        starts.add(wall, slowdown)
        evidence.append(record)
    workload.teardown()
    rss = peak_rss_mb(children=workload.children)
    oks = [workload.started_ok(record) for record in evidence]

    win = workload.window(seconds)
    # with one client, every op already runs on an otherwise idle system
    idle = win.extra.get("idle", win.main)
    series = {
        "setup_s": (starts, 1.0),
        "op_ms.p50": (win.main, 1e3),
        "baseline_op_ms.p50": (win.baseline, 1e3),
        "idle_op_ms.p50": (idle, 1e3),
    }
    timings = {}
    for name, (ops, scale) in series.items():
        timings[name] = summarize([scale * x for x in ops.seconds()])
        timings[name]["wall_median"] = scale * statistics.median(ops.wall)
        timings[name]["slowdown_median"] = statistics.median(ops.slowdown)
    values = {name: t["median"] for name, t in timings.items()}
    if workload.clients > 1:
        values["ops_per_s"] = len(win.main.wall) / win.extra["nominal_s"]
    else:
        # the window interleaves baseline ops: count main-op seconds only
        values["ops_per_s"] = len(win.main.wall) / sum(win.main.seconds())
    values["peak_rss_mb"] = rss
    attempted = cold_starts + win.attempted
    failed = oks.count(False) + win.failed
    return values, timings, attempted, failed


def per_layer(workload, seconds: float):
    """A traced cold start, then half a window untraced and half traced."""
    engine = repro.default_engine()
    tracer = Tracer()
    with tracer:
        setup_s, _, evidence = workload.cold_start()
    setup = tracer.layer_seconds()
    tracer.reset()
    setup_ok = workload.started_ok(evidence)

    before = dataclasses.asdict(engine.stats)
    plain = workload.window(seconds / 2)
    traced = workload.window(seconds / 2, tracer)
    after = dataclasses.asdict(engine.stats)
    delta = {key: after[key] - before[key] for key in after}
    ratios = workload.probes()

    busy = tracer.layer_seconds()
    roots = tracer.roots
    if workload.clients > 1:
        # concurrent clients keep ops in flight for the whole phase
        basis = traced.wall_s
    else:
        basis = sum(s for (kind, _), s in roots.items() if kind in ("main", "baseline"))
    values = {f"{layer}_pct": _pct(busy.get(layer, 0.0), basis) for layer in LAYERS}
    for name, layers in SETUP_GROUPS.items():
        values[name] = _pct(sum(setup.get(layer, 0.0) for layer in layers), setup_s)

    stats = traced.extra.get("stats")
    latency = statistics.fmean(traced.main.wall)
    if stats is not None:
        dispatch_s = sum(s for (_, layer), s in roots.items() if layer == "service.dispatch")
        per_dispatch = _ratio(dispatch_s, stats["dispatches"])
        tenants = stats["tenants"]
        shed = sum(t["shed"] for t in tenants)
        submitted = sum(t["submitted"] for t in tenants)
        flushes = stats["flushes"]
        values.update({
            "service.wait_pct": _pct(max(0.0, latency - per_dispatch), latency),
            "service.loop_lag_pct": _pct(traced.extra["loop_lag_s"], traced.wall_s),
            "service.dispatches": stats["dispatches"],
            "service.rows_per_dispatch": stats["mean_batch_rows"],
            "service.fill_ratio": stats["mean_batch_rows"] / ServiceConfig().max_batch_rows,
            "service.flush.timer": flushes["timer"],
            "service.flush.size": flushes["size"],
            "service.flush.solo": flushes["solo"],
            "service.shared_factorizations": stats["shared_factorizations"],
            "service.shed_ratio": _ratio(shed, submitted + shed),
        })
    else:
        values.update({
            name: 0 for name in (
                "service.wait_pct", "service.loop_lag_pct", "service.dispatches",
                "service.rows_per_dispatch", "service.fill_ratio", "service.flush.timer",
                "service.flush.size", "service.flush.solo",
                "service.shared_factorizations", "service.shed_ratio",
            )
        })

    kernel = tracer.layer_seconds(kinds=("main", "background"))
    kernel_s = sum(kernel.get(layer, 0.0) for layer in KERNEL_LAYERS) / traced.main_ops
    kernel_bytes = workload.kernel_bytes()
    values.update({
        "engine.plan_hit_ratio": _ratio(delta["plan_hits"], delta["plan_requests"]),
        "engine.fact_hit_ratio": _ratio(
            delta["fingerprint_hits"],
            delta["fingerprint_hits"] + delta["fingerprint_misses"],
        ),
        "kernels.bytes_computed": kernel_bytes,
        "kernels.gbps_computed": _ratio(kernel_bytes, kernel_s) / 1e9,
        "distributed.bytes_per_step_computed": workload.comm_bytes(),
        "trace.op_ms": 1e3 * statistics.median(traced.main.seconds()),
        "trace.overhead": (
            statistics.median(traced.main.seconds()) / statistics.median(plain.main.seconds())
            - 1.0
        ),
    })
    for kind in GPUSIM_KINDS:
        values[f"gpusim.measured_over_predicted.{kind}"] = ratios.get(kind, 0.0)

    attempted = 1 + plain.attempted + traced.attempted
    failed = (not setup_ok) + plain.failed + traced.failed
    return values, attempted, failed, tracer.calls


def _fmt_timing(t: dict) -> str:
    tail = f", p{t['tail_p']:g} {t['tail']:.6g}" if t["tail_p"] is not None else ""
    return (f"[q1 {t['q1']:.6g}, q3 {t['q3']:.6g}, n={t['n']}{tail}; "
            f"raw wall median {t['wall_median']:.6g}, slowdown {t['slowdown_median']:.3f}]")


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker, if running, and reap it.

    The rank pool starts it for its shared-memory arenas.  Left alone it
    exits only after this process has, and nobody waits for it.  Call
    once every pool is shut down, so no arena is still registered.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run_one(name: str, seed: int, seconds: float, trace: bool, check: bool, spec: dict) -> dict:
    workload = WORKLOADS[name](seed, tiny=check)
    print(f"== {name}  seed={seed}  seconds={seconds:g}  loop={workload.loop} "
          f"clients={workload.clients}  inputs={workload.inputs_digest}", flush=True)
    values: dict = {}
    timings: dict = {}
    attempted = failed = 0
    declared = []
    try:
        if check or not trace:
            v, timings, a, f = end_to_end(workload, seconds, 1 if check else COLD_STARTS)
            values.update(v)
            attempted, failed = attempted + a, failed + f
            declared += spec["end_to_end"]
        if check or trace:
            v, a, f, calls = per_layer(workload, seconds)
            values.update(v)
            attempted, failed = attempted + a, failed + f
            declared += spec["per_layer"]
            for module, attr, _ in WRAPPED:
                label = span_label(module, attr)
                print(f"spans {label} {calls.get(label, 0)}")
    finally:
        try:
            workload.close()
        finally:
            stop_resource_tracker()

    metrics = {}
    for metric in declared:
        metric_name = metric["name"]
        if metric_name not in values:
            raise RuntimeError(f"{name} did not produce metric {metric_name!r}")
        metrics[metric_name] = {"value": values[metric_name], "unit": metric["unit"]}
        extra = f"  {_fmt_timing(timings[metric_name])}" if metric_name in timings else ""
        print(f"metric {metric_name} {values[metric_name]!r} {metric['unit']}{extra}")
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"checks {name}: attempted={attempted} failed={failed} -> {verdict}", flush=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "timings": timings,
    }


# ---- several workloads, one subprocess each ---------------------------------
def run_children(names, args) -> dict:
    results = {}
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), "--child",
        ]
        if args.check:
            cmd.append("--check")
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if not line.startswith("{"):
                    print(line, end="", flush=True)
            proc.wait()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: child exited with code {proc.returncode} and no result",
                  file=sys.stderr)
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return results


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.suite.compare import main as compare_main

        return compare_main(argv[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: print the per-layer metrics of a traced run")
    parser.add_argument("--check", action="store_true",
                        help="tiny shapes, every check and both metric sets, nothing saved")
    parser.add_argument("--out", default="results/bench",
                        help="directory for the result JSON (default: results/bench)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = CHECK_SECONDS if args.check else float(spec["run_seconds"])
    names = args.workload or [w["name"] for w in spec["workloads"]]

    if len(names) == 1:
        result = run_one(names[0], args.seed, args.seconds, bool(args.trace), args.check, spec)
        results = {names[0]: result}
        line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        results = run_children(names, args)
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    if not (args.check or args.child):
        path = write_result(args.out, {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads_run": names,
            "workloads": results,
        })
        print(f"wrote {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1
