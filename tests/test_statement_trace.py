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
