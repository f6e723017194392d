"""Interleaved parent/change pairs of the benchmark, and their statistics.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload mms \
        [--workload fine_cold ...] [--pairs 10] [--json OUT.json]

Runs ``python3 benchmark/run.py --workload W`` in each checkout (each with
its own benchmark/ and BENCHMARK.json), ``--pairs`` times a side, the parent
first in odd pairs and the change first in even ones.  Each run's result is
the JSON object on the last line of its standard output.  For every
end-to-end metric that BENCHMARK.json lists, it prints each side's median
and quartiles, the pairs the change won (ties count for neither side), the
gap between the medians and the parent's interquartile range, and three
verdicts, each read with the metric's ``bound`` from BENCHMARK.json:

- gain resolved: the change wins at least nine tenths of the pairs and its
  median is better than the parent's by more than that range;
- regressed: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
- unresolved: the parent's interquartile range is wider than ``bound``
  times its median, and not every change run beats every parent run, so
  the runs spread too widely to tell.

A pair in which either run failed counts for no metric; each workload's
failed runs are counted per side, and a side with more of them is flagged.
A run fails when it prints no result or an incorrect one; each such run is
printed on one line with its exit code and the last line of its standard
error.  ``--json`` writes the same table and every run's metrics, each
failed run's exit code and the last STDERR_TAIL lines of its standard error,
and the tree each side held when the pairs began (:func:`tree_identity`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

STDERR_TAIL = 20  # lines of a failed run's standard error kept in --json


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear between order
    statistics (numpy's default percentile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The statistics of one metric over pairs ``zip(parent, change)``;
    ``better`` is "lower" or "higher", and ``bound`` the metric's relative
    bound."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of equal length")
    sign = -1.0 if better == "lower" else 1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = c_med - p_med
    iqr = p_q3 - p_q1
    tolerance = bound * abs(p_med)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "better": better, "pairs": len(parent),
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "change_wins": wins, "gap": gap,
        "rel_gap": gap / p_med if p_med else None,
        "parent_iqr": iqr,
        "gain_resolved": wins >= 0.9 * len(parent) and sign * gap > iqr,
        "bound": bound, "regressed": -sign * gap > tolerance,
        "unresolved": iqr > tolerance and not beats_all,
    }


def tree_identity(checkout: Path) -> dict:
    """The tree that ``checkout`` holds: its ``git rev-parse HEAD``, whether
    its worktree differs from that commit (``git status --porcelain`` lists
    a file), and the sha256 of ``src/ablatesim/*.py``, each file's name and
    bytes in name order.  A git field is None outside a git checkout."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "ablatesim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    status = git("status", "--porcelain")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def run_benchmark(checkout: Path, workload: str) -> tuple[dict | None, dict | None]:
    """(result, failure) of one benchmark run in ``checkout``: the result
    object, or None when the run printed no result line; and, when the run
    printed none or an incorrect one, its exit code and the last STDERR_TAIL
    lines of its standard error, else None."""
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and result.get("correct"):
        return result, None
    return result, {"exit_code": proc.returncode,
                    "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]}


def table(runs: dict, metrics: list[dict]) -> dict:
    """{metric: compare(...)} over the pairs in which both runs are correct.
    ``runs`` maps "parent" and "change" to lists of result objects."""
    ok = [(p, c) for p, c in zip(runs["parent"], runs["change"])
          if p and c and p["correct"] and c["correct"]]
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in ok
                 if name in p["metrics"] and name in c["metrics"]]
        if len(pairs) >= 2:
            out[name] = compare([p for p, _ in pairs], [c for _, c in pairs], m["better"],
                                m["bound"])
    return out


def failures(runs: dict) -> tuple[dict, str]:
    """({side: failed runs}, a flag naming the side with more of them, or
    "" when both sides failed alike).  ``runs`` is as for :func:`table`."""
    failed = {side: sum(r is None or not r["correct"] for r in rs) for side, rs in runs.items()}
    worse = [side for side in failed if failed[side] > min(failed.values())]
    return failed, f"the {worse[0]} fails more runs" if worse else ""


def report(workload: str, rows: dict) -> list[str]:
    lines = [f"# {workload}: metric (better) | parent median [q1, q3] | change median [q1, q3]"
             " | change wins | gap | parent IQR | gain resolved | regressed | unresolved"]
    for name, r in rows.items():
        p, c = r["parent"], r["change"]
        lines.append(
            f"{workload} {name} ({r['better']}) | {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f" | {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] | {r['change_wins']}/{r['pairs']}"
            f" | {r['gap']:+.6g} | {r['parent_iqr']:.6g} | {r['gain_resolved']}"
            f" | {r['regressed']} | {r['unresolved']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {"pairs": args.pairs, "checkouts": {k: str(v) for k, v in sides.items()},
              "trees": {k: tree_identity(v) for k, v in sides.items()},
              "order": "parent first in odd pairs, change first in even pairs",
              "workloads": {}}
    for workload in args.workload:
        runs, failed_runs = {"parent": [], "change": []}, []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run, failure = run_benchmark(sides[side], workload)
                runs[side].append(run)
                if failure:
                    failed_runs.append({"pair": i + 1, "side": side, **failure})
                    last = failure["stderr_tail"][-1] if failure["stderr_tail"] else ""
                    print(f"# {workload} pair {i + 1} {side} run failed: exit code "
                          f"{failure['exit_code']}: {last}", flush=True)
            print(f"# {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        rows = table(runs, metrics)
        print("\n".join(report(workload, rows)), flush=True)
        failed, flag = failures(runs)
        print(f"# {workload} failed runs: parent {failed['parent']}, change {failed['change']}"
              + (f" ({flag})" if flag else ""), flush=True)
        result["workloads"][workload] = {
            "metrics": rows, "failed_runs": failed, "failure_flag": flag,
            "failures": failed_runs,
            "runs": {side: [r and {k: v["value"] for k, v in r["metrics"].items()} for r in rs]
                     for side, rs in runs.items()}}
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
