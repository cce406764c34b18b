"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``plan``      show the hybrid's execution plan for a problem shape
``solve``     solve a random batch and report residual + predicted time
``backends``  list the registered execution backends + capabilities
``figures``   print one figure panel's model series (12/13/14)
``tables``    print Table I / II / III
``anchors``   verify the calibration anchors against the paper
``report``    emit the full EXPERIMENTS.md body
``trace``     run one solve and print its instrumentation trace
``tune``        calibrate the adaptive router's performance model
``router``      inspect (or reset) a persisted performance model
``serve-stats``  run a traffic burst through the solve service and
                 report coalescing + per-tenant latency statistics

Examples
--------
.. code-block:: bash

    python -m repro.cli plan -M 64 -N 4096
    python -m repro.cli solve -M 256 -N 2048 --fuse
    python -m repro.cli solve -M 64 -N 1024 --backend gpusim --trace
    python -m repro.cli solve -M 1024 -N 1024 --prepare 50 --trace
    python -m repro.cli backends
    python -m repro.cli figures --figure 12 --panel 512
    python -m repro.cli tables --table 3
    python -m repro.cli anchors
    python -m repro.cli trace -M 64 -N 1024 --json
    python -m repro.cli tune --model router_model.json --repeats 3
    python -m repro.cli router --model router_model.json
    python -m repro.cli serve-stats --requests 128 -M 8 -N 1024 --tenants 4
"""

from __future__ import annotations

import argparse
import sys
import time


__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Scalable tridiagonal solver (ICPP 2011 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="show the hybrid execution plan")
    plan.add_argument("-M", type=int, required=True, help="number of systems")
    plan.add_argument("-N", type=int, required=True, help="system size")
    plan.add_argument("--device", choices=("gtx480", "c2050"), default="gtx480")
    plan.add_argument("--fp32", action="store_true", help="single precision")

    solve = sub.add_parser("solve", help="solve a random batch")
    solve.add_argument("-M", type=int, default=64)
    solve.add_argument("-N", type=int, default=2048)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--fuse", action="store_true")
    solve.add_argument(
        "--algorithm",
        choices=("auto", "hybrid", "thomas", "cr", "pcr", "rd"),
        default="auto",
    )
    solve.add_argument(
        "--backend",
        default="auto",
        help="execution backend for the hybrid/auto algorithms "
        "(auto, or a name from `repro backends`)",
    )
    solve.add_argument(
        "--ranks", type=int, default=None, metavar="P",
        help="partition each system's N rows across P ranks "
        "(the distributed backend's reduced-interface pipeline)",
    )
    solve.add_argument(
        "--trace", action="store_true",
        help="print the per-solve instrumentation trace",
    )
    solve.add_argument(
        "--prepare", type=int, default=None, metavar="STEPS",
        help="time-stepping demo: factor the coefficients once, then "
        "solve STEPS fresh right-hand sides through the prepared "
        "RHS-only path (and the same loop unprepared, for comparison)",
    )
    solve.add_argument(
        "--periodic", action="store_true",
        help="solve cyclic (periodic-boundary) systems via "
        "Sherman-Morrison; combines with --prepare and --trace",
    )
    solve.add_argument(
        "--system", choices=("tri", "penta", "block"), default="tri",
        help="system stencil: tridiagonal (default), pentadiagonal, "
        "or block-tridiagonal (see --block-size)",
    )
    solve.add_argument(
        "--block-size", type=int, default=2, metavar="B",
        help="dense block size for --system block (default: 2)",
    )

    sub.add_parser(
        "backends", help="list registered execution backends"
    )

    figures = sub.add_parser("figures", help="print a figure panel's series")
    figures.add_argument("--figure", type=int, choices=(12, 13, 14), required=True)
    figures.add_argument(
        "--panel", help="N for fig 12, M for fig 13, ignored for fig 14"
    )
    figures.add_argument("--fp32", action="store_true")

    tables = sub.add_parser("tables", help="print a paper table")
    tables.add_argument("--table", type=int, choices=(1, 2, 3), required=True)

    sub.add_parser("anchors", help="verify calibration anchors")
    sub.add_parser("report", help="emit the EXPERIMENTS.md body")

    roof = sub.add_parser("roofline", help="roofline survey of the kernels")
    roof.add_argument("-M", type=int, default=256)
    roof.add_argument("-N", type=int, default=16384)
    roof.add_argument("-k", type=int, default=6)
    roof.add_argument("--fp32", action="store_true")

    acc = sub.add_parser("accuracy", help="accuracy study across algorithms")
    acc.add_argument(
        "--sweep", choices=("poisson", "dominance"), default="poisson"
    )

    exp = sub.add_parser(
        "export", help="write every reproduction artifact as JSON"
    )
    exp.add_argument("--out", default="results", help="output directory")
    exp.add_argument(
        "--no-accuracy", action="store_true",
        help="skip the (slower) accuracy sweeps",
    )

    tr = sub.add_parser(
        "trace", help="run one solve and print its instrumentation trace"
    )
    tr.add_argument("-M", type=int, default=64)
    tr.add_argument("-N", type=int, default=1024)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--backend", default=None,
                    help="pin the backend (default: let the router choose)")
    tr.add_argument("--periodic", action="store_true")
    tr.add_argument("--fp32", action="store_true")
    tr.add_argument(
        "--rtol", type=float, default=None,
        help="accuracy contract: licenses factorization reuse on "
        "hybrid plans (see SolveRequest.rtol)",
    )
    tr.add_argument(
        "--adaptive", metavar="MODEL", default=None,
        help="route through an AdaptiveRouter loaded from MODEL",
    )
    tr.add_argument(
        "--json", action="store_true",
        help="dump the full trace.describe() payload as JSON",
    )

    tune = sub.add_parser(
        "tune", help="calibrate the adaptive router's performance model"
    )
    tune.add_argument(
        "--model", default="router_model.json",
        help="model file to create or extend (default: %(default)s)",
    )
    tune.add_argument(
        "--shapes", default=None,
        help="comma-separated MxN shapes, e.g. '8x1024,512x512' "
        "(default: the built-in Table-III sweep)",
    )
    tune.add_argument("--repeats", type=int, default=3,
                      help="observed rounds per route")
    tune.add_argument("--warmup", type=int, default=2,
                      help="unobserved warm-up rounds")
    tune.add_argument("--fp32", action="store_true")
    tune.add_argument("--periodic", action="store_true")
    tune.add_argument("--rtol", type=float, default=None,
                      help="also calibrate rtol-licensed reuse routes")
    tune.add_argument(
        "--fresh", action="store_true",
        help="start from an empty model instead of extending the file",
    )

    router = sub.add_parser(
        "router", help="inspect (or reset) a persisted performance model"
    )
    router.add_argument(
        "--model", default="router_model.json",
        help="model file to inspect (default: %(default)s)",
    )
    router.add_argument(
        "--reset", action="store_true", help="delete the model file"
    )

    serve = sub.add_parser(
        "serve-stats",
        help="run a traffic burst through the solve service and report "
        "coalescing + per-tenant statistics",
    )
    serve.add_argument("--requests", type=int, default=128,
                       help="concurrent requests in the burst")
    serve.add_argument("-M", type=int, default=8,
                       help="rows per request fragment")
    serve.add_argument("-N", type=int, default=1024, help="system size")
    serve.add_argument("--tenants", type=int, default=4,
                       help="round-robin tenant count")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--shared-matrix", action="store_true",
        help="every request solves the same matrix (exercises the "
        "shared-factorization digest path instead of plain coalescing)",
    )
    serve.add_argument(
        "--max-batch-rows", type=int, default=2048,
        help="coalescing window row cap (default: %(default)s)",
    )
    serve.add_argument(
        "--max-wait-us", type=float, default=2000.0,
        help="coalescing window timer in microseconds (default: %(default)s)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="dump the full service.describe() payload as JSON",
    )
    return p


def _device(name: str):
    from repro.gpusim.device import GTX480, TESLA_C2050

    return GTX480 if name == "gtx480" else TESLA_C2050


def _cmd_plan(args) -> int:
    from repro.kernels.hybrid_gpu import GpuHybridSolver

    gpu = GpuHybridSolver(device=_device(args.device))
    rep = gpu.predict(args.M, args.N, 4 if args.fp32 else 8)
    print(f"device     : {gpu.device.name}")
    print(f"problem    : M={args.M} systems x N={args.N} rows, "
          f"{'fp32' if args.fp32 else 'fp64'}")
    print(f"plan       : k={rep.k} (tile 2^k = {1 << rep.k}), "
          f"windows/system = {rep.n_windows}")
    print(f"subsystems : {args.M * (1 << rep.k)} for p-Thomas")
    print(f"predicted  : {rep.total_us:,.0f} us on the device model")
    for name, counters, t in rep.stages:
        print(f"  {name:<18} {t.total_s * 1e6:10,.1f} us  ({t.bound}-bound, "
              f"{counters.traffic.useful_bytes / 1e6:,.1f} MB payload)")
    return 0


def _random_cyclic_batch(m: int, n: int, seed: int):
    """Random dominant *cyclic* batch (corners in ``a[:,0]``/``c[:,-1]``)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    c = rng.standard_normal((m, n))
    b = 2.0 + np.abs(a) + np.abs(c)
    d = rng.standard_normal((m, n))
    return a, b, c, d


def _cyclic_residual(a, b, c, d, x) -> float:
    """Max relative residual of a cyclic batch solve."""
    import numpy as np

    r = b * x
    r[:, 1:] += a[:, 1:] * x[:, :-1]
    r[:, :-1] += c[:, :-1] * x[:, 1:]
    r[:, 0] += a[:, 0] * x[:, -1]
    r[:, -1] += c[:, -1] * x[:, 0]
    denom = max(float(np.abs(d).max()), 1e-30)
    return float(np.abs(r - d).max()) / denom


def _cmd_solve(args) -> int:
    import repro
    from repro.util.numerics import residual_norm
    from repro.util.tridiag import BatchTridiagonal
    from repro.workloads.generators import random_batch

    hybrid = args.algorithm in ("auto", "hybrid")
    if not hybrid and (
        args.backend != "auto"
        or args.ranks is not None
        or args.prepare is not None
    ):
        print(
            f"--backend/--ranks/--prepare apply to the "
            f"hybrid/auto algorithms only, not {args.algorithm!r}",
            file=sys.stderr,
        )
        return 2
    if args.system != "tri":
        if args.periodic or args.prepare is not None or not hybrid:
            print(
                "--system penta/block rides the registry spine only: "
                "it does not combine with --periodic, --prepare, or a "
                "direct --algorithm",
                file=sys.stderr,
            )
            return 2
        return _solve_banded(args)
    if args.prepare is not None:
        return _solve_prepared(args)
    kwargs = {}
    if hybrid:
        kwargs["fuse"] = args.fuse
        kwargs["backend"] = args.backend
        if args.ranks is not None:
            kwargs["ranks"] = args.ranks
    if args.periodic:
        a, b, c, d = _random_cyclic_batch(args.M, args.N, args.seed)
        t0 = time.perf_counter()
        x = repro.solve_periodic_batch(
            a, b, c, d, algorithm=args.algorithm, **kwargs
        )
        dt = time.perf_counter() - t0
        res = _cyclic_residual(a, b, c, d, x)
        what = f"periodic {args.algorithm}"
    else:
        a, b, c, d = random_batch(args.M, args.N, seed=args.seed)
        t0 = time.perf_counter()
        x = repro.solve_batch(a, b, c, d, algorithm=args.algorithm, **kwargs)
        dt = time.perf_counter() - t0
        res = residual_norm(BatchTridiagonal(a, b, c, d), x)
        what = args.algorithm
    print(f"solved M={args.M} x N={args.N} with {what} "
          f"in {dt * 1e3:.2f} ms (this machine, NumPy)")
    print(f"relative residual: {res:.3e}")
    if args.trace:
        from repro.analysis.report import trace_markdown

        trace = repro.last_trace()
        print()
        print(trace_markdown(trace) if trace is not None
              else "no trace recorded")
    return 0 if res < 1e-6 else 1


def _solve_banded(args) -> int:
    import numpy as np

    import repro
    from repro.backends import solve_via
    from repro.workloads.generators import (
        random_block_batch,
        random_penta_batch,
    )

    kwargs = {"backend": args.backend}
    if args.system == "penta":
        e, a, b, c, f, d = random_penta_batch(args.M, args.N, seed=args.seed)
        t0 = time.perf_counter()
        x, _ = solve_via(a, b, c, d, e=e, f=f, **kwargs)
        dt = time.perf_counter() - t0
        r = b * x - d
        r[:, 1:] += a[:, 1:] * x[:, :-1]
        r[:, :-1] += c[:, :-1] * x[:, 1:]
        r[:, 2:] += e[:, 2:] * x[:, :-2]
        r[:, :-2] += f[:, :-2] * x[:, 2:]
        what = "pentadiagonal"
    else:
        from repro.core.blocktridiag import block_residual

        A, B, C, d = random_block_batch(
            args.M, args.N, block_size=args.block_size, seed=args.seed
        )
        t0 = time.perf_counter()
        x, _ = solve_via(A, B, C, d, **kwargs)
        dt = time.perf_counter() - t0
        r = block_residual(A, B, C, d, x)
        what = f"block-tridiagonal (B={args.block_size})"
    res = float(np.linalg.norm(r) / np.linalg.norm(d))
    print(f"solved M={args.M} x N={args.N} {what} "
          f"in {dt * 1e3:.2f} ms (this machine, NumPy)")
    print(f"relative residual: {res:.3e}")
    if args.trace:
        from repro.analysis.report import trace_markdown

        trace = repro.last_trace()
        print()
        print(trace_markdown(trace) if trace is not None
              else "no trace recorded")
    return 0 if res < 1e-6 else 1


def _solve_prepared(args) -> int:
    import numpy as np

    import repro
    from repro.util.numerics import residual_norm
    from repro.util.tridiag import BatchTridiagonal
    from repro.workloads.generators import random_batch

    if args.prepare < 1:
        print("--prepare needs at least one step", file=sys.stderr)
        return 2
    if args.periodic:
        a, b, c, d0 = _random_cyclic_batch(args.M, args.N, args.seed)
    else:
        a, b, c, d0 = random_batch(args.M, args.N, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    rhs = [d0] + [
        rng.standard_normal((args.M, args.N)) for _ in range(args.prepare - 1)
    ]
    handle = repro.prepare(a, b, c, fuse=args.fuse, periodic=args.periodic)
    t0 = time.perf_counter()
    xs = [handle.solve(di) for di in rhs]
    prepared_ms = (time.perf_counter() - t0) * 1e3

    kwargs = {"fuse": args.fuse, "backend": args.backend,
              "fingerprint": False}
    t0 = time.perf_counter()
    if args.periodic:
        ref = [repro.solve_periodic_batch(a, b, c, di, **kwargs)
               for di in rhs]
    else:
        ref = [repro.solve_batch(a, b, c, di, **kwargs) for di in rhs]
    unprepared_ms = (time.perf_counter() - t0) * 1e3

    agree = all(np.allclose(x, r) for x, r in zip(xs, ref))
    if args.periodic:
        res = max(
            _cyclic_residual(a, b, c, di, xi)
            for di, xi in zip(rhs, xs)
        )
    else:
        res = max(
            residual_norm(BatchTridiagonal(a, b, c, di), xi)
            for di, xi in zip(rhs, xs)
        )
    steps = args.prepare
    print(f"prepared handle: {handle.describe()}")
    print(f"{steps} time steps, M={args.M} x N={args.N}:")
    print(f"  prepared (RHS-only) : {prepared_ms:8.2f} ms "
          f"({prepared_ms / steps:.3f} ms/step)")
    print(f"  unprepared          : {unprepared_ms:8.2f} ms "
          f"({unprepared_ms / steps:.3f} ms/step)  "
          f"-> {unprepared_ms / prepared_ms:.2f}x")
    print(f"  worst relative residual: {res:.3e}  "
          f"(matches unprepared: {'yes' if agree else 'NO'})")
    if args.trace:
        from repro.analysis.report import trace_markdown

        # one more solve through the public API with the same
        # coefficients: shows the fingerprint cache auto-hitting
        if args.periodic:
            repro.solve_periodic_batch(a, b, c, rhs[-1],
                                       backend=args.backend)
        else:
            repro.solve_batch(a, b, c, rhs[-1], fuse=args.fuse,
                              backend=args.backend)
        trace = repro.last_trace()
        print()
        print(trace_markdown(trace) if trace is not None
              else "no trace recorded")
    return 0 if agree and res < 1e-6 else 1


def _cmd_backends(_args) -> int:
    from repro.backends import default_registry

    registry = default_registry()
    resolved = registry.backends()
    width = max(len(b.name) for b in resolved)
    print(f"{'name':<{width}}  prio  dtypes           periodic  "
          f"kind       description")
    for b in resolved:
        caps = b.capabilities()
        print(
            f"{b.name:<{width}}  {b.priority:>4}  "
            f"{'/'.join(caps.dtypes):<15}  "
            f"{'yes' if caps.periodic else 'no ':<8}  "
            f"{'simulated' if caps.simulated else 'measured ':<9}  "
            f"{caps.description}"
        )
    return 0


def _cmd_figures(args) -> int:
    from repro.analysis.figures import (
        FIG12_SWEEPS,
        FIG13_SWEEPS,
        figure12_series,
        figure13_series,
        figure14_bars,
    )
    from repro.analysis.report import markdown_table

    dtype_bytes = 4 if args.fp32 else 8
    if args.figure == 12:
        n = int(args.panel or 512)
        if n not in FIG12_SWEEPS:
            print(f"panel must be one of {sorted(FIG12_SWEEPS)}", file=sys.stderr)
            return 2
        rows = figure12_series(n, dtype_bytes=dtype_bytes)
        cols = [("M", "M"), ("mkl_seq_us", "MKL seq (us)"),
                ("mkl_mt_us", "MKL mt (us)"), ("ours_us", "ours (us)"),
                ("k", "k"), ("speedup_seq", "xseq"), ("speedup_mt", "xmt")]
    elif args.figure == 13:
        m = int(args.panel or 2048)
        if m not in FIG13_SWEEPS:
            print(f"panel must be one of {sorted(FIG13_SWEEPS)}", file=sys.stderr)
            return 2
        rows = figure13_series(m, dtype_bytes=dtype_bytes)
        cols = [("N", "N"), ("mkl_seq_ms", "MKL seq (ms)"),
                ("ours_ms", "ours (ms)"), ("k", "k"),
                ("pcr_fraction", "PCR share"), ("speedup_seq", "xseq")]
    else:
        rows = figure14_bars(dtype_bytes)
        cols = [("config", "config"), ("ours_ms", "ours (ms)"),
                ("paper_ours_ms", "paper ours"), ("davidson_ms", "Davidson"),
                ("paper_davidson_ms", "paper Davidson"), ("ratio", "ratio")]
    print(markdown_table(rows, cols))
    return 0


def _cmd_tables(args) -> int:
    from repro.analysis.report import markdown_table
    from repro.analysis.tables import table1_rows, table2_rows, table3_rows
    from repro.gpusim.device import GTX480

    if args.table == 1:
        print(markdown_table(
            table1_rows(),
            [("k", "k"), ("subtile", "sub-tile"), ("cache_capacity", "cache"),
             ("threads_per_block", "threads"), ("elim_per_subtile", "elims")],
        ))
    elif args.table == 2:
        print(markdown_table(
            table2_rows(12, 256, GTX480.max_resident_threads),
            [("algorithm", "algorithm"), ("regime", "regime"), ("cost", "cost")],
        ))
    else:
        print(markdown_table(
            table3_rows(),
            [("m_low", "M >="), ("m_high", "M <"), ("k", "k"), ("tile", "tile")],
        ))
    return 0


def _cmd_anchors(_args) -> int:
    from repro.analysis.calibration import verify_anchors

    result = verify_anchors()
    width = max(len(a.name) for a in result.anchors)
    for a in result.anchors:
        mark = "ok " if a.ok else "FAIL"
        print(f"[{mark}] {a.name:<{width}}  paper={a.paper:<10g} "
              f"model={a.model:<12.4g} ratio={a.ratio:.2f}")
    print("all anchors within band" if result.all_ok
          else f"{len(result.failing())} anchors out of band")
    return 0 if result.all_ok else 1


def _cmd_report(_args) -> int:
    from repro.analysis.report import experiments_markdown

    sys.stdout.write(experiments_markdown())
    return 0


def _cmd_roofline(args) -> int:
    from repro.analysis.roofline import kernel_survey, ridge_intensity
    from repro.gpusim.device import GTX480

    dtype_bytes = 4 if args.fp32 else 8
    ridge = ridge_intensity(GTX480, dtype_bytes)
    print(f"{GTX480.name}, {'fp32' if args.fp32 else 'fp64'}: "
          f"ridge = {ridge:.2f} flops/byte")
    print(f"{'kernel':<26} {'AI':>8} {'attainable':>12} {'bound':>8}")
    for p in kernel_survey(args.M, args.N, args.k, dtype_bytes):
        print(f"{p.name:<26} {p.intensity:>8.3f} "
              f"{p.attainable_gflops:>9.1f} GF {p.bound:>8}")
    return 0


def _cmd_accuracy(args) -> int:
    from repro.analysis.accuracy import dominance_sweep, poisson_sweep
    from repro.analysis.report import markdown_table

    rows = poisson_sweep() if args.sweep == "poisson" else dominance_sweep()
    key = "n" if args.sweep == "poisson" else "margin"
    print(markdown_table(
        rows,
        [("algorithm", "algorithm"), (key, key),
         ("residual", "residual"), ("forward_error", "forward error")],
        fmt={"residual": ".2e", "forward_error": ".2e"},
    ))
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.export import export_all

    files = export_all(args.out, include_accuracy=not args.no_accuracy)
    print(f"wrote {len(files)} artifacts to {args.out}/:")
    for f in sorted(files):
        print(f"  {f}")
    return 0


def _cmd_trace(args) -> int:
    import json as _json

    import repro
    from repro.analysis.report import trace_markdown
    from repro.workloads.generators import random_batch

    if args.periodic:
        a, b, c, d = _random_cyclic_batch(args.M, args.N, args.seed)
    else:
        a, b, c, d = random_batch(args.M, args.N, seed=args.seed)
    if args.fp32:
        a, b, c, d = (v.astype("float32") for v in (a, b, c, d))
    kwargs = {}
    if args.backend is not None:
        kwargs["backend"] = args.backend
    if args.rtol is not None:
        kwargs["rtol"] = args.rtol

    adaptive = None
    if args.adaptive is not None:
        from repro.autotune import enable_adaptive_routing

        adaptive = enable_adaptive_routing(args.adaptive)
        if adaptive.load_note is not None:
            print(f"note: {adaptive.load_note} — starting cold",
                  file=sys.stderr)
    try:
        if args.periodic:
            repro.solve_periodic_batch(a, b, c, d, **kwargs)
        else:
            repro.solve_batch(a, b, c, d, **kwargs)
    finally:
        if adaptive is not None:
            from repro.autotune import disable_adaptive_routing

            disable_adaptive_routing()
    trace = repro.last_trace()
    if trace is None:
        print("no trace recorded", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(trace.describe(), indent=2, default=str))
    else:
        print(trace_markdown(trace))
    return 0


def _parse_shapes(text: str):
    shapes = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            m, n = part.split("x")
            shapes.append((int(m), int(n)))
        except ValueError:
            raise SystemExit(
                f"bad shape {part!r}: expected MxN, e.g. 64x1024"
            )
    if not shapes:
        raise SystemExit("--shapes named no shapes")
    return tuple(shapes)


def _print_model_summary(model) -> None:
    cells = model.cells()
    if not cells:
        print("model is empty")
        return
    print(f"{len(cells)} cell(s):")
    for cell in cells:
        routes = model.routes(cell)
        samples = model.observations(cell)
        best = model.best(cell)
        print(f"  {cell}: {len(routes)} route(s), {samples} sample(s)")
        if best is None:
            print("    best: (no route trusted yet)")
        else:
            route, stats = best
            knobs = ", ".join(
                f"{f}={route[f]}" for f in ("backend", "k", "fingerprint")
                if route.get(f) is not None
            )
            print(f"    best: {knobs}  "
                  f"({stats.mean_s * 1e3:.3f} ms mean, n={stats.count})")


def _cmd_tune(args) -> int:
    from repro.autotune import DEFAULT_SHAPES, PerformanceModel, calibrate

    shapes = (
        _parse_shapes(args.shapes) if args.shapes else DEFAULT_SHAPES
    )
    if args.fresh:
        model, note = PerformanceModel(), None
    else:
        model, note = PerformanceModel.load_or_new(args.model)
    if note is not None:
        print(f"note: {note} — starting fresh", file=sys.stderr)
    calibrate(
        shapes,
        model=model,
        repeats=args.repeats,
        warmup_rounds=args.warmup,
        dtype="float32" if args.fp32 else "float64",
        periodic=args.periodic,
        rtol=args.rtol,
        progress=print,
    )
    path = model.save(args.model)
    print(f"model saved to {path}")
    _print_model_summary(model)
    return 0


def _cmd_router(args) -> int:
    import os

    from repro.autotune import PerformanceModel

    if args.reset:
        try:
            os.unlink(args.model)
        except FileNotFoundError:
            print(f"no model at {args.model} (nothing to reset)")
            return 0
        print(f"removed {args.model}")
        return 0
    if not os.path.exists(args.model):
        print(f"no model at {args.model} — run `repro tune` first",
              file=sys.stderr)
        return 1
    model, note = PerformanceModel.load_or_new(args.model)
    if note is not None:
        print(f"unusable model at {args.model}: {note}", file=sys.stderr)
        print("(the adaptive router would start cold; "
              "`repro router --reset` clears it)", file=sys.stderr)
        return 1
    print(f"model: {args.model}")
    _print_model_summary(model)
    return 0


def _cmd_serve_stats(args) -> int:
    import asyncio
    import json as _json
    import time as _time

    from repro.service import ServiceConfig, SolveService
    from repro.workloads.traffic import (
        shared_matrix_traffic,
        small_request_traffic,
    )

    if args.requests < 1:
        print("--requests must be >= 1", file=sys.stderr)
        return 2
    config = ServiceConfig(
        max_batch_rows=args.max_batch_rows, max_wait_us=args.max_wait_us
    )

    async def burst():
        service = SolveService(config)
        async with service:
            if args.shared_matrix:
                (a, b, c), ds = shared_matrix_traffic(
                    args.requests, args.M, args.N,
                    tenants=args.tenants, seed=args.seed,
                )
                coros = [
                    service.submit(a, b, c, d, tenant=t, fingerprint=True)
                    for t, d in ds
                ]
            else:
                frags = small_request_traffic(
                    args.requests, args.M, args.N,
                    tenants=args.tenants, seed=args.seed,
                )
                coros = [
                    service.submit(a, b, c, d, tenant=t)
                    for t, (a, b, c, d) in frags
                ]
            t0 = _time.perf_counter()
            await asyncio.gather(*coros)
            elapsed = _time.perf_counter() - t0
            return elapsed, service.describe()

    elapsed, report = asyncio.run(burst())
    if args.json:
        report["burst"] = {
            "requests": args.requests,
            "elapsed_s": elapsed,
            "requests_per_s": args.requests / elapsed,
        }
        print(_json.dumps(report, indent=2, default=str))
        return 0

    shape = "shared-matrix" if args.shared_matrix else "independent"
    print(f"burst      : {args.requests} {shape} requests, "
          f"M={args.M} x N={args.N}, {args.tenants} tenant(s)")
    print(f"throughput : {args.requests / elapsed:,.1f} req/s "
          f"({elapsed * 1e3:.1f} ms wall)")
    flushes = report["flushes"]
    print(f"dispatches : {report['dispatches']} "
          f"(mean batch {report['mean_batch_rows']:.0f} rows, "
          f"max {report['max_batch_rows']}; "
          f"size={flushes['size']} timer={flushes['timer']} "
          f"solo={flushes['solo']} close={flushes['close']}; "
          f"held={report['held_windows']})")
    print(f"shared     : {report['shared_factorizations']} "
          f"shared-factorization dispatch(es), "
          f"{report['bound_sessions']} bound session(s) holding "
          f"{report['bound_session_bytes'] / 2**20:.1f} MiB")
    print()
    print(f"{'tenant':<12} {'req':>5} {'shed':>5} {'rows':>7} "
          f"{'p50 ms':>8} {'p99 ms':>8} {'max ms':>8}  backends")
    for t in report["tenants"]:
        lat = t["latency_ms"]
        backends = ",".join(
            f"{name}x{count}" for name, count in sorted(t["backends"].items())
        )
        print(f"{t['tenant']:<12} {t['delivered']:>5} {t['shed']:>5} "
              f"{t['rows']:>7} {lat['p50']:>8.2f} {lat['p99']:>8.2f} "
              f"{lat['max']:>8.2f}  {backends}")
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "solve": _cmd_solve,
    "backends": _cmd_backends,
    "figures": _cmd_figures,
    "tables": _cmd_tables,
    "anchors": _cmd_anchors,
    "report": _cmd_report,
    "roofline": _cmd_roofline,
    "accuracy": _cmd_accuracy,
    "export": _cmd_export,
    "trace": _cmd_trace,
    "tune": _cmd_tune,
    "router": _cmd_router,
    "serve-stats": _cmd_serve_stats,
}


def main(argv=None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
