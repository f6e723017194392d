"""The benchmark's traced set-up still runs against the package.

The span tracer wraps and reads package names from outside ``src/``; a
change that drops one of them breaks the traced benchmark before any timing
is taken.  This runs the cheapest traced workload role end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_test1_setup_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH="src", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "benchmark/workload.py", "--workload", "test1",
         "--role", "setup", "--trace", "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
