"""Integration: every shipped example runs green end to end.

The examples each enforce their own physics check and exit nonzero on
failure, so running them *is* an integration test of the public API on
realistic workloads.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

ALL = [
    "quickstart.py",
    "cubic_spline.py",
    "device_explorer.py",
    "adi_fluid.py",
    "adi_sessions.py",
    "poisson_multigrid.py",
    "heat_equation.py",
    "ring_diffusion.py",
    "streaming_smoother.py",
    "smoke_transport.py",
    "fast_poisson.py",
]


@pytest.mark.parametrize("script", ALL)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_examples_directory_complete():
    shipped = {p.name for p in EXAMPLES.glob("*.py")}
    assert set(ALL) <= shipped
    assert "quickstart.py" in shipped
