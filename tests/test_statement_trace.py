"""The classification of tools/statement_trace.py, on a throwaway module."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "statement_trace", Path(__file__).resolve().parents[1] / "tools" / "statement_trace.py")
statement_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(statement_trace)

THROWAWAY = '''"""A module docstring."""
import math


def used_by_both(x):
    """A docstring."""
    if x > 0:
        return math.sqrt(
            x)
    return 0.0


def used_by_tests(x):
    total = 0
    for k in range(x):
        total += k
    return total


def never_called():
    raise RuntimeError("unreached")


def counter():
    count = 0

    def bump():
        nonlocal count
        count += 1
        return count
    return bump
'''


def run_mode(path, calls):
    """The lines of ``path`` executed by importing it afresh and making ``calls``."""
    spec = importlib.util.spec_from_file_location("throwaway", path)
    module = importlib.util.module_from_spec(spec)
    with statement_trace.traced(path.parent) as tracer:
        spec.loader.exec_module(module)
        calls(module)
    return tracer.hits[str(path)]


def test_statements_count_code_not_definitions_docstrings_or_nonlocal():
    spans = statement_trace.statements(THROWAWAY)
    assert sorted(spans) == [2, 7, 8, 10, 14, 15, 16, 17, 21, 25, 29, 30, 31]
    assert spans[8] == range(8, 10)  # a simple statement: all its lines
    assert spans[7] == range(7, 8) and spans[15] == range(15, 16)  # a compound one: its header


def test_classification_of_a_throwaway_module(tmp_path):
    path = tmp_path / "throwaway.py"
    path.write_text(THROWAWAY)
    tests = run_mode(path, lambda m: (m.used_by_both(4.0), m.used_by_tests(3), m.counter()()))
    runs = run_mode(path, lambda m: m.used_by_both(-1.0))
    neither, tests_only = statement_trace.classify(statement_trace.statements(THROWAWAY),
                                                   tests, runs)
    assert neither == [21]
    # 10 is reached by the runs only, and 2 and 7 by both.
    assert tests_only == [8, 14, 15, 16, 17, 25, 29, 30, 31]


def test_report_refuses_traces_of_other_sources(tmp_path, monkeypatch, capsys):
    # Line numbers traced on other sources would be mapped onto the wrong
    # statements: the report names the changed files and exits 2.
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(THROWAWAY)
    (src / "other.py").write_text("x = 1\n")
    for name, value in (("ROOT", tmp_path), ("SRC", src), ("OUT", tmp_path / ".statement_trace")):
        monkeypatch.setattr(statement_trace, name, value)
    for mode in ("tests", "runs"):
        tracer = statement_trace.LineTracer(src)
        tracer.hits = {str(src / "mod.py"): {2, 7}}
        statement_trace._write(mode, tracer)
    assert statement_trace.main(["report"]) == 0
    assert "reached by neither mode: 12" in capsys.readouterr().out
    (src / "mod.py").write_text("y = 2\n" + THROWAWAY)
    assert statement_trace.main(["report"]) == 2
    err = capsys.readouterr().err
    assert "tests.json was traced on other sources" in err
    assert err.rstrip().endswith("changed since: src/mod.py")
    # A trace that records no hashes is refused too.
    (src / "mod.py").write_text(THROWAWAY)
    (tmp_path / ".statement_trace" / "runs.json").write_text('{"src/mod.py": [2, 7]}\n')
    assert statement_trace.main(["report"]) == 2
    assert capsys.readouterr().err.rstrip().endswith("src/mod.py, src/other.py")
