"""The statistics of tools/bench_pairs.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_are_numpy_linear_percentiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert bench_pairs.quartiles(values) == pytest.approx(
        tuple(np.percentile(values, [25, 50, 75])), rel=1e-15)


def test_a_resolved_gain():
    parent = [40.0, 38.0, 41.0, 39.0, 42.0, 40.5, 39.5, 38.5, 41.5, 40.0]
    change = [27.0, 26.0, 28.0, 27.5, 26.5, 27.2, 41.0, 26.8, 27.1, 27.3]  # pair 7 lost
    r = bench_pairs.compare(parent, change, "lower", 0.25)
    assert r["pairs"] == 10 and r["change_wins"] == 9
    assert r["parent"]["median"] == pytest.approx(40.0)
    assert r["change"]["median"] == pytest.approx(27.15)
    assert r["gap"] == pytest.approx(-12.85)
    assert r["parent_iqr"] == pytest.approx(np.subtract(*np.percentile(parent, [75, 25])))
    assert r["gain_resolved"] and not r["regressed"] and not r["unresolved"]


def test_ties_count_for_neither_side_and_direction_matters():
    parent, change = [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 5.0, 5.0]
    low = bench_pairs.compare(parent, change, "lower", 0.25)
    high = bench_pairs.compare(parent, change, "higher", 0.25)
    assert low["change_wins"] == 1 and high["change_wins"] == 2
    assert not low["gain_resolved"] and not high["gain_resolved"]


def test_a_gap_inside_the_parent_spread_is_not_a_gain():
    parent = [10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0]
    change = [p - 1.0 for p in parent]  # wins every pair, but by less than the IQR
    r = bench_pairs.compare(parent, change, "lower", 0.25)
    assert r["change_wins"] == 10 and r["parent_iqr"] == pytest.approx(4.0)
    assert not r["gain_resolved"]


def test_table_skips_pairs_with_a_failed_run():
    def run(value, correct=True):
        return {"correct": correct, "metrics": {"setup_s": {"value": value, "unit": "s"}}}

    runs = {"parent": [run(3.0), run(4.0), None, run(5.0)],
            "change": [run(2.0), run(1.0, correct=False), run(1.0), run(2.5)]}
    rows = bench_pairs.table(runs, [{"name": "setup_s", "better": "lower", "bound": 0.25},
                                    {"name": "run_s", "better": "lower", "bound": 0.25}])
    assert list(rows) == ["setup_s"]
    assert rows["setup_s"]["pairs"] == 2 and rows["setup_s"]["change_wins"] == 2


def test_compare_needs_two_equal_length_samples():
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0, 2.0], [1.0], "lower", 0.25)


def test_a_median_worse_by_more_than_the_bound_regressed():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]
    change = [112.0, 111.0, 109.0, 110.5, 113.0, 110.0]  # +10.75%
    assert bench_pairs.compare(parent, change, "lower", 0.1)["regressed"]
    assert not bench_pairs.compare(parent, change, "lower", 0.25)["regressed"]
    # For a higher-is-better metric the same numbers are a gain.
    high = bench_pairs.compare(parent, change, "higher", 0.1)
    assert not high["regressed"] and high["gain_resolved"]
    low = bench_pairs.compare(change, parent, "higher", 0.05)
    assert low["regressed"] and not low["gain_resolved"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [2.6, 5.0, 3.0, 4.4, 2.8, 4.8, 3.1, 4.6, 2.7, 4.9]  # IQR ~49% of the median
    assert bench_pairs.compare(parent, parent[::-1], "lower", 0.25)["unresolved"]
    # Unless every change run beats every parent run.
    fast = [p - 2.7 for p in parent]
    r = bench_pairs.compare(parent, [min(fast)] * len(parent), "lower", 0.25)
    assert not r["unresolved"] and r["gain_resolved"]
    # A spread inside the bound is resolved either way.
    r = bench_pairs.compare(parent, parent[::-1], "lower", 0.6)
    assert not r["unresolved"] and not r["regressed"] and not r["gain_resolved"]


def test_a_side_with_more_failed_runs_is_flagged():
    ok = {"correct": True, "metrics": {}}
    failed, flag = bench_pairs.failures({"parent": [ok, ok, None],
                                         "change": [{"correct": False}, None, ok]})
    assert failed == {"parent": 1, "change": 2} and flag == "the change fails more runs"
    assert bench_pairs.failures({"parent": [None, ok], "change": [ok, None]}) == (
        {"parent": 1, "change": 1}, "")


def test_report_prints_the_three_verdicts():
    r = bench_pairs.compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower", 0.1)
    header, row = bench_pairs.report("mms", {"peak_rss_mb": r})
    assert header.endswith("| gain resolved | regressed | unresolved")
    assert row.endswith("| False | False | True")


def test_the_json_names_each_tree(tmp_path):
    repo = tmp_path / "repo"

    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                        *args], cwd=repo, check=True, capture_output=True)

    src = repo / "src" / "ablatesim"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    (src / "notes.txt").write_text("not hashed\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                          text=True, check=True).stdout.strip()
    clean = bench_pairs.tree_identity(repo)
    assert clean["head"] == head and clean["dirty"] is False
    (src / "notes.txt").write_text("changed\n")
    edited = bench_pairs.tree_identity(repo)
    assert edited["dirty"] is True and edited["src_sha256"] == clean["src_sha256"]
    (src / "a.py").write_text("x = 2\n")
    assert bench_pairs.tree_identity(repo)["src_sha256"] != clean["src_sha256"]
    # Outside a git checkout only the hash is known.
    plain = tmp_path / "plain"
    (plain / "src" / "ablatesim").mkdir(parents=True)
    (plain / "src" / "ablatesim" / "a.py").write_text("x = 1\n")
    assert bench_pairs.tree_identity(plain) == {"head": None, "dirty": None,
                                                 "src_sha256": clean["src_sha256"]}


def test_a_failed_run_keeps_its_exit_code_and_stderr(tmp_path, capsys):
    # The parent's run.py fails after 25 lines of standard error; the
    # change's prints a correct result.  Each failed run is printed on one
    # line and kept in --json with its exit code and last 20 lines.
    metric = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
    scripts = {
        "parent": "import sys\nfor i in range(25):\n    print(f'line {i}', file=sys.stderr)\n"
                  "sys.exit(3)\n",
        "change": "import json\nprint(json.dumps({'correct': True, 'metrics': "
                  "{'run_s': {'value': 1.0, 'unit': 's'}}}))\n",
    }
    for side, script in scripts.items():
        (tmp_path / side / "benchmark").mkdir(parents=True)
        (tmp_path / side / "benchmark" / "run.py").write_text(script)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric]}))
    result, failure = bench_pairs.run_benchmark(tmp_path / "parent", "test1")
    assert result is None
    assert failure == {"exit_code": 3, "stderr_tail": [f"line {i}" for i in range(5, 25)]}
    assert bench_pairs.run_benchmark(tmp_path / "change", "test1")[1] is None
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "test1", "--pairs", "2",
                             "--json", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if "run failed" in line]
    assert printed == [f"# test1 pair {i} parent run failed: exit code 3: line 24"
                       for i in (1, 2)]
    workload = json.loads(out.read_text())["workloads"]["test1"]
    assert workload["failed_runs"] == {"parent": 2, "change": 0}
    assert workload["failures"] == [{"pair": i, "side": "parent", **failure} for i in (1, 2)]
