"""Every benchmark workload runs once and passes its own checks.

perfbench/run.py compares each output row with its stored reference
(perfbench/refs.json, 1e-8 relative for the sweeps) and with the ratio
bound.  One run per workload with --seconds 0, a single job, catches a
library change that moves a row past those checks here, before a timed
benchmark run does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks(workload):
    argv = ["--workload", workload, "--seed", "101", "--seconds", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] is True, done.stdout
    assert final["failed"] == 0, done.stdout
