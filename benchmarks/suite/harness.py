"""The suite's one timing routine, its statistics, and its host record.

* :func:`interleave` — warmup, then interleaved main/baseline pairs with
  alternating order, each op timed alone by the wall clock and checked
  outside the timed region, each pair followed by a yardstick reading,
  until the window has elapsed.
* :class:`Yardstick` — one fixed NumPy sweep whose CPU time tracks how
  fast this host runs right now.
* :func:`summarize` — median, quartiles, sample count, and the highest
  percentile that still has at least ten samples beyond it.
* :func:`host_block` — CPUs and affinity, CPU model, cache sizes,
  Python, numpy, BLAS, and the git commit with a dirty flag; stamped on
  every result file the suite writes.

Every time the suite gates is wall-clock time, what a caller waits
(including time blocked on worker threads and rank processes), divided
by the host's *slowdown*: the yardstick's CPU time read right around
the op over its CPU time on the uncontended development host.  On a
shared host, neighbours on the same physical cores slow every op by up
to 3x, shifting over minutes; the slowdown divides most of that out,
and a time reads as milliseconds on the development host.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "Op",
    "Series",
    "Window",
    "Yardstick",
    "host_block",
    "interleave",
    "peak_rss_mb",
    "relative_residual",
    "summarize",
    "write_result",
]

ROOT = Path(__file__).resolve().parents[2]

#: candidate tail percentiles, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(samples) -> dict:
    """Median, quartiles, count, and the tail percentile of ``samples``.

    The tail is the highest of p99.9/p99/p95/p90/p75/p50 with at least
    ten samples beyond it (``None`` below twenty samples).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0],) * 3
    tail_p = next((p for p in _TAILS if n * (1.0 - p / 100.0) >= 10), None)
    return {
        "median": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "n": n,
        "tail_p": tail_p,
        "tail": float(np.percentile(xs, tail_p)) if tail_p is not None else None,
    }


class Yardstick:
    """How many times slower than nominal this host runs right now.

    The same sweep for every workload: the recurrence ``x[j+1] = d[j] -
    l[j]·x[j]`` down the ``ROWS`` rows of a ``WIDTH``-wide array (the
    inner loop of a Thomas sweep over 256 systems, the middle of the
    suite's batch widths), then one elementwise product of two such
    arrays into a fresh one.  It is read by this thread's CPU clock, so
    time it spends descheduled while the measured program's own threads
    or processes run does not count towards the slowdown.
    The inputs never change, so the arithmetic stays on normal
    (non-denormal) numbers.
    """

    WIDTH, ROWS = 256, 1000
    #: the sweep's CPU time on the uncontended development host
    NOMINAL_S = 1.72e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        x = np.empty((self.ROWS + 1, self.WIDTH))
        x[0] = 1.0
        self.lower = 0.5 * rng.random((self.ROWS, self.WIDTH))
        self.rhs = rng.random((self.ROWS, self.WIDTH))
        self.steps = list(zip(x[:-1], x[1:], self.lower, self.rhs))
        self.last = self._reading()

    def _reading(self) -> float:
        t0 = time.thread_time()
        for prev, cur, lower, rhs in self.steps:
            np.multiply(prev, lower, out=cur)
            np.subtract(rhs, cur, out=cur)
        np.multiply(self.rhs, self.lower)
        return (time.thread_time() - t0) / self.NOMINAL_S

    def read(self, repeats: int = 1) -> float:
        """Read again (the mean of ``repeats`` readings); the slowdown
        averaged over this and the previous reading."""
        now = statistics.fmean(self._reading() for _ in range(repeats))
        mean, self.last = (self.last + now) / 2.0, now
        return mean


@dataclass
class Series:
    """Per-op wall seconds, each with the host slowdown read around it."""

    wall: list = field(default_factory=list)
    slowdown: list = field(default_factory=list)

    def add(self, wall: float, slowdown: float) -> None:
        self.wall.append(wall)
        self.slowdown.append(slowdown)

    def seconds(self) -> list:
        """Wall seconds at the nominal host speed."""
        return [w / s for w, s in zip(self.wall, self.slowdown)]


@dataclass
class Op:
    """One side of a pair: what to run, and where its untraced time goes.

    ``run(i)`` executes the op for pair ``i`` and returns its result.
    ``layer`` is charged with whatever part of the op no traced layer
    covers (see :meth:`~benchmarks.suite.tracing.Tracer.op`).
    ``series`` collects every measured op.
    """

    kind: str
    run: Callable[[int], object]
    layer: str
    series: Series = field(default_factory=Series)
    attempted: int = 0
    failed: int = 0

    def timed(self, i: int, tracer=None):
        """Run once: ``(wall seconds, result)``, or ``None`` if it raised."""
        self.attempted += 1
        try:
            with tracer.op(self.kind, self.layer) if tracer is not None else nullcontext():
                t0 = time.perf_counter()
                out = self.run(i)
                wall = time.perf_counter() - t0
        except Exception:
            # a failed op is counted, reported, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        return wall, out


@dataclass
class Window:
    """What one measured window produced."""

    main: Series
    baseline: Series
    attempted: int
    failed: int
    wall_s: float
    main_ops: int  #: main ops run, warmup included
    extra: dict = field(default_factory=dict)


def interleave(
    main: Op,
    baseline: Op,
    check: Callable[[int, object, object], tuple],
    seconds: float,
    yardstick: Yardstick,
    *,
    warmup: int = 1,
    min_pairs: int = 3,
    tracer=None,
) -> Window:
    """Time interleaved ``(main, baseline)`` pairs for ``seconds``.

    Pair ``i`` runs main first when ``i`` is even and baseline first
    when odd, so drift and cache warmth never favour one side.  After
    each pair, outside the timed region, ``check(i, main_out,
    baseline_out)`` returns ``(main_ok, baseline_ok)``; a failed check
    or an exception counts as a failed op.  A reading of ``yardstick``
    separates consecutive pairs.  The first ``warmup`` pairs are checked
    but not recorded.  The loop stops once ``seconds`` have
    passed and at least ``min_pairs`` pairs were measured.
    """
    i = 0
    start = None
    while True:
        if i == warmup:
            start = time.perf_counter()
        if start is not None:
            if i - warmup >= min_pairs and time.perf_counter() - start >= seconds:
                break
        order = (main, baseline) if i % 2 == 0 else (baseline, main)
        results = {op.kind: op.timed(i, tracer) for op in order}
        slowdown = yardstick.read()
        got_main, got_base = results[main.kind], results[baseline.kind]
        ok_main, ok_base = check(
            i,
            got_main[1] if got_main else None,
            got_base[1] if got_base else None,
        )
        for op, got, ok in ((main, got_main, ok_main), (baseline, got_base, ok_base)):
            if got is None:
                continue
            if not ok:
                op.failed += 1
            if i >= warmup:
                op.series.add(got[0], slowdown)
        i += 1
    return Window(
        main=main.series,
        baseline=baseline.series,
        attempted=main.attempted + baseline.attempted,
        failed=main.failed + baseline.failed,
        wall_s=time.perf_counter() - start,
        main_ops=main.attempted,
    )


def relative_residual(a, b, c, d, x) -> float:
    """``‖A·x − d‖₂ / ‖d‖₂`` for padded ``(M, N)`` tridiagonal batches."""
    r = b * x - d
    r[:, 1:] += a[:, 1:] * x[:, :-1]
    r[:, :-1] += c[:, :-1] * x[:, 1:]
    return float(np.linalg.norm(r) / np.linalg.norm(d))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus the largest reaped child), MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ---- host record ------------------------------------------------------------
def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _caches() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        kind = _read(f"{base}/index{index}/type")
        size = _read(f"{base}/index{index}/size")
        if level is None or size is None:
            break
        if kind is not None and kind.strip() == "Instruction":
            continue
        caches[f"L{level.strip()}"] = size.strip()
    return caches


def _blas() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        return None
    return f"{deps.get('name')} {deps.get('version')}"


def _git() -> dict:
    # only the checkout's own repository: never walk up into an
    # enclosing one
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": None if status is None else bool(status)}


def host_block() -> dict:
    """Where and on what a result was measured."""
    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpus": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git": _git(),
    }


def write_result(out_dir, payload: dict) -> Path:
    """Stamp ``payload`` with the host block and write it under ``out_dir``."""
    out = Path(out_dir)
    if not out.is_absolute():
        out = ROOT / out
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    name = "-".join(payload["workloads_run"])
    path = out / f"{stamp}-{name}-seed{payload['seed']}-{os.getpid()}.json"
    path.write_text(json.dumps({"host": host_block(), **payload}, indent=2) + "\n")
    return path
