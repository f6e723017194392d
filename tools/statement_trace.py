"""Which statements of ``src/`` the tests reach, and which the runs reach.

A line tracer (``sys.settrace``; the ``coverage`` package is not needed)
records the lines of ``src/`` that execute in each of two modes:

- tests: Tier-1 under this module as a pytest plugin, from the repo root,

      python -m pytest -q -p tools.statement_trace

  writes ``.statement_trace/tests.json``;
- runs: ``ablatesim run`` of test1-3, ``ablatesim verify`` of test1-3 and
  the four spatial manufactured-solution studies at 16x8-64x32, in one
  process,

      PYTHONPATH=src python3 tools/statement_trace.py runs

  writes ``.statement_trace/runs.json``.

Then

      python3 tools/statement_trace.py report

prints the statements that neither mode reaches, and those that only the
tests reach.  A statement is counted once, at its first line; definitions,
class statements, docstrings and ``global``/``nonlocal`` (which execute no
code) are not counted.  A simple statement is reached when any of its lines
executes, a compound one when its header does.  Code run in a subprocess
(``python -m ablatesim``) is not seen.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import tempfile
import threading
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".statement_trace"
MMS_LEVELS = ((16, 8), (32, 16), (64, 32))
MMS_CASES = ("potential_case", "oseen_case", "heat_steady_case", "heat_unsteady_spatial_case")
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


# -- the tracer --------------------------------------------------------------------


class LineTracer:
    """The lines executed in files under ``root``, {absolute path: set of lines}."""

    def __init__(self, root: Path):
        self.root = os.path.join(str(root), "")
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}  # code file name -> its line tracer, or None

    def _tracer(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._local:
            self._local[name] = self._line_tracer(name)
        return self._local[name]

    def _line_tracer(self, name: str):
        path = os.path.abspath(name)
        if not path.startswith(self.root):
            return None
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def start(self) -> None:
        self._previous = sys.gettrace()
        threading.settrace(self._tracer)
        sys.settrace(self._tracer)

    def stop(self) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)

    def lines(self) -> dict[str, list[int]]:
        """The lines executed, by path relative to the repo root where it lies in it."""
        return {os.path.relpath(path, ROOT): sorted(lines)
                for path, lines in sorted(self.hits.items())}


@contextmanager
def traced(root: Path):
    """Trace the lines of files under ``root`` run inside the block; the
    tracer in force before it is restored after."""
    tracer = LineTracer(root)
    tracer.start()
    try:
        yield tracer
    finally:
        tracer.stop()


# -- statements and their classification ---------------------------------------------


def statements(source: str) -> dict[int, range]:
    """{first line: the lines that reach it} of each counted statement of
    ``source``: all of a simple statement's lines, a compound one's header."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    found = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, NOT_COUNTED)
                or id(node) in docstrings):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def reached(spans: dict[int, range], lines) -> set[int]:
    """The statements of ``spans`` (see :func:`statements`) that the
    executed ``lines`` reach."""
    lines = set(lines)
    return {first for first, span in spans.items() if lines.intersection(span)}


def classify(spans: dict[int, range], tests, runs) -> tuple[list[int], list[int]]:
    """(reached by neither, reached by the tests only): the first lines of
    the statements of ``spans`` given the lines that each mode executed."""
    by_tests, by_runs = reached(spans, tests), reached(spans, runs)
    neither = sorted(set(spans) - by_tests - by_runs)
    return neither, sorted(by_tests - by_runs)


# -- the two modes -------------------------------------------------------------------


def _write(name: str, tracer: LineTracer) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    src_lines = {k: v for k, v in tracer.lines().items() if k.startswith("src/")}
    path.write_text(json.dumps(src_lines, indent=0) + "\n")
    return path


_PLUGIN_TRACER = LineTracer(SRC)


def pytest_load_initial_conftests(early_config, parser, args):
    """Start before the conftest files import the package."""
    _PLUGIN_TRACER.start()


def pytest_unconfigure(config):
    _PLUGIN_TRACER.stop()
    print(f"\nstatement_trace: wrote {_write('tests', _PLUGIN_TRACER)}")


def trace_runs() -> LineTracer:
    """The runs mode, traced from the package's import on."""
    with traced(SRC) as tracer, tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()):
        from ablatesim import sim_cli, verify

        for preset in ("test1", "test2", "test3"):
            for argv in (["run", "--preset", preset, "--out", f"{tmp}/{preset}"],
                         ["verify", "--preset", preset]):
                code = sim_cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"{' '.join(argv[:3])} exited {code}")
        for factory in MMS_CASES:
            verify.convergence_study(getattr(verify, factory)(), levels=MMS_LEVELS)
    return tracer


def report(tests: dict, runs: dict) -> str:
    """The statements of ``src/`` that neither mode reached, and those that
    only the tests reached, one ``path:line  text`` a line."""
    missed, tests_only, total = [], [], 0
    for path in sorted(SRC.rglob("*.py")):
        key = str(path.relative_to(ROOT))
        source = path.read_text()
        spans = statements(source)
        total += len(spans)
        text = source.splitlines()
        neither, only = classify(spans, tests.get(key, ()), runs.get(key, ()))
        missed += [f"{key}:{n}  {text[n - 1].strip()}" for n in neither]
        tests_only += [f"{key}:{n}  {text[n - 1].strip()}" for n in only]
    return "\n".join([f"{total} statements in src/",
                      f"reached by neither mode: {len(missed)}", *missed,
                      f"reached by the tests only: {len(tests_only)}", *tests_only])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("runs", "report"))
    args = ap.parse_args(argv)
    if args.mode == "runs":
        print(f"wrote {_write('runs', trace_runs())}")
        return 0
    modes = {}
    for name in ("tests", "runs"):
        path = OUT / f"{name}.json"
        if not path.exists():
            print(f"{path} is missing: trace the {name} mode first", file=sys.stderr)
            return 2
        modes[name] = json.loads(path.read_text())
    print(report(modes["tests"], modes["runs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
