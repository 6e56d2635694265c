"""Each workload of ``BENCHMARK.json`` runs once through ``benchmarks/run.py``
and passes the checks the benchmark makes of its own outputs.  The benchmark
calls library names directly (``harness.psd_solve`` with ``tol`` forwarded
third, ``initial_state(history="copy")``, the snapshot round trip and the
``spfc simulate`` cross-check), so a change that breaks one fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
