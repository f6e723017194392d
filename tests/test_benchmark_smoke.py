"""The benchmark's runs still work against the package.

The span tracer wraps and reads package names from outside ``src/``; a
change that drops one of them breaks the traced benchmark before any timing
is taken.  This runs the cheapest traced workload role end to end, and two
traced steps of the 192x64 workload, whose wraps sit inside the split step.
The untraced mms workload times the level solves through its own wrappers
on ``verify``'s case solvers and reads the convergence-study reports, so it
runs too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_workload(tmp_path, *args, trace=True):
    env = dict(os.environ, PYTHONPATH="src", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "benchmark/workload.py", *args, *["--trace"] * trace,
         "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_traced_test1_setup_runs(tmp_path):
    proc = run_workload(tmp_path, "--workload", "test1", "--role", "setup")
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_traced_fine_cold_steps_pass_their_checks(tmp_path):
    proc = run_workload(tmp_path, "--workload", "fine_cold", "--role", "main", "--steps", "2")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []


def test_mms_workload_passes_its_checks(tmp_path):
    proc = run_workload(tmp_path, "--workload", "mms", "--role", "main", trace=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == [] and result["step_s"]
