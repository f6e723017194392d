"""Benchmark of the ablatesim simulator.

    python3 benchmark/run.py --workload {test1,fine_cold,mms,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload run happens in a fresh child
process (benchmark/workload.py), one at a time.  With ``--trace 0`` the
end-to-end metrics come from untraced runs; with ``--trace 1`` one untraced
and one traced run give the per-layer metrics and the tracing overhead.
The workloads are deterministic: the seed is recorded, not used.

Every run's outputs are checked (see workload.py).  In addition, the output
fingerprint (``probes.csv`` bytes for test1) and, for traced runs, the exact
counts (calls per span, LU orders and factor sizes, Krylov iterations) must
repeat across runs: the first run of a checkout stores them under
``.bench_out/reference`` keyed by a hash of ``src/`` and of the benchmark's
code, later runs compare.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "workload.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())  # metric names and units
DEADLINE_S = 170.0  # a whole invocation ends within this

WORKLOADS = ("test1", "fine_cold", "mms")
# Single-threaded BLAS: with two threads on two shared vCPUs the fine_cold
# step time spread 13% between runs, with one thread 5%.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def plan(workload: str, seconds: int) -> tuple[int, int, int]:
    """(main runs, steps per fine_cold run, set-up samples).

    The main runs take about ``seconds`` on a 2-core x86 machine: one test1
    preset run takes ~28 s, one fine_cold step ~5.5 s, one mms set ~12 s.
    ``setup_s`` is the median of that many fresh processes, main runs
    included; a test1 set-up takes ~6 s, the others under 1 s, so those
    take more samples."""
    if workload == "test1":
        return max(1, round(seconds / 28)), 0, 3
    if workload == "fine_cold":
        return 1, min(10, max(3, round(seconds / 5.5))), 5
    return max(1, int(seconds // 12)), 0, 5


def source_hash(root: Path) -> str:
    """Hash of the package sources and of the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ablatesim").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_child(root: Path, workload: str, role: str, steps: int, out: Path,
              traced: bool, deadline: float) -> dict | None:
    """One workload process; None when it crashed, timed out or printed no result."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--role", role,
           "--steps", str(steps), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{workload} {role}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} {role}: exit code {proc.returncode}\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload} {role}: no result line\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None


class Reference:
    """Fingerprint and counts of the first run of this source tree and work size."""

    def __init__(self, root: Path, workload: str, steps: int):
        key = f"{workload}-{steps}-{source_hash(root)}.json"
        self.path = root / ".bench_out" / "reference" / key
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def compare(self, field: str, value) -> bool:
        """True when ``value`` matches the stored one; stores it if none is."""
        if field not in self.data:
            self.data[field] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            tmp.replace(self.path)
            return True
        return self.data[field] == value


def bench(root: Path, workload: str, seconds: int, trace: bool) -> tuple[dict, int, int, list]:
    """Run one workload; returns (metrics, attempted, failed, human lines)."""
    deadline = time.monotonic() + DEADLINE_S
    n_main, steps, setup_samples = plan(workload, seconds)
    reference = Reference(root, workload, steps)
    runs, problems = [], []  # runs: (role, traced, result or None, failed)

    def launch(role: str, traced: bool) -> None:
        k = len(runs)
        out = root / ".bench_out" / workload / f"{k}-{role}{'-traced' if traced else ''}"
        res = run_child(root, workload, role, steps, out, traced, deadline)
        bad = ["did not complete"] if res is None else list(res["failures"])
        if res is not None and role == "main" and not reference.compare("fingerprint",
                                                                        res["fingerprint"]):
            bad.append("outputs differ from the first run of this source")
        if res is not None and traced and not reference.compare("counts", res["counts"]):
            bad.append("traced counts differ from the first traced run of this source")
        problems.extend(f"run {k} ({role}): {p}" for p in bad)
        runs.append((role, traced, res, bool(bad)))

    if trace:
        launch("main", False)
        launch("main", True)
    else:
        for _ in range(n_main):
            launch("main", False)
        have = sum(r is not None and r["setup_s"] is not None for _, _, r, _ in runs)
        for _ in range(setup_samples - have):
            launch("setup", False)
    failed = sum(bad for *_, bad in runs)

    done = [(role, traced, r) for role, traced, r, _ in runs if r is not None]
    mains = [r for role, traced, r in done if role == "main" and not traced and r["run_s"]]
    lines = [f"# workload={workload} seconds={seconds} trace={int(trace)} processes={len(runs)}"
             + (f" steps={steps}" if steps else "")]
    values: dict = {}
    if trace:
        traced_runs = [r for _, traced, r in done if traced and r["step_s"]]
        if traced_runs and mains:
            values = dict(traced_runs[0]["layers"])
            values["trace.overhead_frac"] = (statistics.median(traced_runs[0]["step_s"])
                                             / statistics.median(mains[0]["step_s"]) - 1.0)
    else:
        setups = [r["setup_s"] for _, _, r in done if r["setup_s"] is not None]
        step_ms = [1e3 * s for r in mains for s in r["step_s"]]
        if setups and step_ms:
            values = {
                "setup_s": statistics.median(setups),
                "step_ms.p50": statistics.median(step_ms),
                "run_s": statistics.median(r["run_s"] for r in mains),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in mains),
            }
    kind = "per_layer" if trace else "end_to_end"
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in SPEC[kind] if values}
    lines += [f"{workload} {name} = {m['value']:.6g} {m['unit']}" for name, m in out.items()]
    if not trace:
        lines.append(f"{workload} setup samples = {len(setups)}, step samples = {len(step_ms)}")
        if len(step_ms) >= 100:  # at least ten samples beyond the 90th percentile
            p90 = statistics.quantiles(step_ms, n=10)[-1]
            lines.append(f"{workload} step_ms.p90 = {p90:.6g} ms")
        for name in mains[0]["events"] if mains else ():
            lines.append(f"{workload} {name} = {sum(r['events'][name] for r in mains)} "
                         f"in {len(mains)} run(s)")
    lines.append(f"{workload} fail_frac = {failed / len(runs):.6g} ({failed}/{len(runs)})")
    lines += [f"{workload} problem: {p}" for p in problems]
    return out, len(runs), failed, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ablatesim" / "__init__.py").is_file():
        print("benchmark: run from the repository root; src/ablatesim is missing",
              file=sys.stderr)
        return 2

    print(f"# ablatesim benchmark seed={args.seed} (workloads are deterministic)")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f, lines = bench(root, name, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
