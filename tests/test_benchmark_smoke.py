"""The benchmark's traced runs still work against the package.

The span tracer wraps and reads package names from outside ``src/``; a
change that drops one of them breaks the traced benchmark before any timing
is taken.  This runs the cheapest traced workload role end to end, and two
traced steps of the 192x64 workload, whose wraps sit inside the split step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_workload(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH="src", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "benchmark/workload.py", *args, "--trace", "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_traced_test1_setup_runs(tmp_path):
    proc = run_workload(tmp_path, "--workload", "test1", "--role", "setup")
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_traced_fine_cold_steps_pass_their_checks(tmp_path):
    proc = run_workload(tmp_path, "--workload", "fine_cold", "--role", "main", "--steps", "2")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
