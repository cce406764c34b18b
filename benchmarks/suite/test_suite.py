"""The suite's ``--check`` mode: metric names, traced wrappers, seeds.

Run:  PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py

Each check run executes every workload on tiny shapes in its own
subprocess, with every correctness check on and both metric sets
printed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.suite.tracing import WRAPPED, span_label

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

ALL = set(WORKLOADS)
ADI = {"adi2d_session", "adi3d_lod"}
#: wrapper label -> workloads whose traced run must fire it
EXPECTED = {
    "request.SolveRequest.build": ALL,
    "engine_backend.EngineBackend.execute": {"hybrid_large_n", "service_mix"},
    "engine.ExecutionEngine.run": {"hybrid_large_n", "service_mix"},
    "engine_backend.EngineBackend.bind": ADI,
    "engine.ExecutionEngine.bind": ADI | {"hybrid_large_n", "service_mix"},
    "backend.DistributedBackend.bind": {"distributed_huge_n"},
    "engine.ExecutionEngine.plan_for": ADI | {"hybrid_large_n", "service_mix"},
    "session.coefficient_fingerprint": ADI | {"service_mix"},
    "service.coefficient_fingerprint": {"service_mix"},
    "engine.build_factorization": ADI | {"service_mix"},
    "session.BoundSolve.step": {"adi3d_lod", "distributed_huge_n"},
    "session.BoundSolve.step_t": {"adi2d_session"},
    "session.BoundSolve.step_once": ADI | {"hybrid_large_n", "service_mix"},
    "backend.DistributedBoundSolve.step": {"distributed_huge_n"},
    "prepared.PreparedPlan.solve": ADI,
    "tiled_pcr.TiledPCR.sweep": {"hybrid_large_n"},
    "executor.pthomas_solve_interleaved": {"hybrid_large_n"},
    "executor._thomas_transposed": {"service_mix"},
    "prepared.ThomasRhsFactorization.solve_shard": ADI | {"service_mix", "distributed_huge_n"},
    "prepared.ThomasRhsFactorization.solve_shard_t": {"adi2d_session"},
    "service.SolveService._dispatch": {"service_mix"},
    **{
        span_label(module, attr): {"distributed_huge_n"}
        for module, attr, _ in WRAPPED
        if module == "repro.distributed.pool" or attr.endswith("_reduced")
    },
}


def check_run(seed: int) -> dict:
    """``--check`` over every workload; per-workload parsed output."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--check", "--seed", str(seed)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    blocks: dict = {}
    current = None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if line.startswith("== "):
            current = blocks[fields[1]] = {"metrics": {}, "spans": {}, "inputs": None}
            current["inputs"] = line.rsplit("inputs=", 1)[1]
        elif line.startswith("metric "):
            current["metrics"][fields[1]] = fields[3]
        elif line.startswith("spans "):
            current["spans"][fields[1]] = int(fields[2])
        elif line.startswith("checks "):
            current["verdict"] = fields[-1]
    return {"returncode": proc.returncode, "stderr": proc.stderr, "blocks": blocks,
            "last": json.loads(proc.stdout.splitlines()[-1])}


@pytest.fixture(scope="module")
def runs():
    return {seed: check_run(seed) for seed in (0, 1)}


def test_every_metric_is_named_and_printed_with_its_unit(runs):
    run = runs[0]
    assert run["returncode"] == 0, run["stderr"][-3000:]
    assert sorted(run["blocks"]) == sorted(WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        for workload, block in run["blocks"].items():
            assert block["metrics"].get(metric["name"]) == metric["unit"], (
                workload, metric["name"],
            )


def test_every_wrapper_fires_on_a_workload_mapped_to_it(runs):
    labels = [span_label(module, attr) for module, attr, _ in WRAPPED]
    assert sorted(EXPECTED) == sorted(labels)
    blocks = runs[0]["blocks"]
    silent = [
        (label, workload)
        for label, workloads in EXPECTED.items()
        for workload in workloads
        if blocks[workload]["spans"].get(label, 0) == 0
    ]
    assert not silent, silent


def test_seed_changes_inputs_not_the_verdict(runs):
    for seed, run in runs.items():
        assert run["returncode"] == 0, (seed, run["stderr"][-3000:])
        assert run["last"]["correct"] and run["last"]["failed"] == 0
        assert all(b["verdict"] == "PASS" for b in run["blocks"].values())
    for workload in WORKLOADS:
        assert runs[0]["blocks"][workload]["inputs"] != runs[1]["blocks"][workload]["inputs"]
