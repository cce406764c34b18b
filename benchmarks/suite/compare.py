"""Compare two sets of suite runs, metric by metric and workload by workload.

    python -m benchmarks.suite compare --parent P1.json P2.json ... \\
                                       --change C1.json C2.json ...

Each file is a result the suite wrote under ``results/bench/``, for one
workload or several.  Per workload, the ``i``-th parent file holding it
and the ``i``-th change file holding it form pair ``i`` (run them
alternately, so neither side always runs first).  For every end-to-end
metric of ``BENCHMARK.json`` and every workload in the files, the
report gives both sides' median and quartiles, the share of pairs the
change won (ties count for neither side), and a verdict:

* ``improved`` — the change won at least 9/10 of the pairs and its
  median beats the parent's by more than the parent's interquartile
  range;
* ``unresolved`` — either side's spread (interquartile range over
  median) is wider than the metric's bound, and not every change run
  beats every parent run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` — otherwise.

The exit code is 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from benchmarks.suite.harness import ROOT

__all__ = ["main", "verdict"]

WIN_SHARE = 0.9


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Verdict on one metric × workload from paired run values."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    (p_q1, p_q3), (c_q1, c_q3) = _quartiles(parent), _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        outcome = "improved"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif -gain > bound * abs(p_med):
        outcome = "worse"
    else:
        outcome = "within bound"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "wins": wins,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def _values(files, workload: str, metric: str) -> list:
    out = []
    for data in files:
        entry = data["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None:
            out.append(entry["value"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite compare",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = [json.loads(p.read_text()) for p in args.parent]
    change = [json.loads(p.read_text()) for p in args.change]
    workloads = [w["name"] for w in spec["workloads"]]

    bad = 0
    print(f"{'workload':20s} {'metric':24s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            p = _values(parent, workload, metric["name"])
            c = _values(change, workload, metric["name"])
            if not p or len(p) != len(c):
                if p or c:
                    print(f"{workload:20s} {metric['name']:24s} skipped: "
                          f"{len(p)} parent vs {len(c)} change runs")
                continue
            v = verdict(p, c, metric["better"], metric["bound"])
            bad += v["verdict"] in ("worse", "unresolved")
            side = "{:.6g} [{:.6g}, {:.6g}]"
            print(f"{workload:20s} {metric['name']:24s} {side.format(*v['parent']):>34s} "
                  f"{side.format(*v['change']):>34s} {v['wins']:>3d}/{v['pairs']:<3d}  "
                  f"{v['verdict']}")
    return 1 if bad else 0
