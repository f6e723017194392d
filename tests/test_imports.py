"""The package's import graph, read from its sources: every package module
is imported at module level, so no cycle hides in a function body, and
materials, whose laws every solver reads, imports no solver."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ablatesim"
SOURCES = sorted(PACKAGE.glob("*.py"))


def package_modules(node) -> list:
    """The package modules that the import statement ``node`` names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("ablatesim.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0 and node.module != "ablatesim":
        return ([node.module.split(".")[1]]
                if node.module and node.module.startswith("ablatesim.") else [])
    if node.module and node.module != "ablatesim":  # from .x import y
        return [node.module]
    return [alias.name for alias in node.names]  # from . import x, y


def imports_in_functions(tree) -> list:
    """(line, module) of each package import made inside a function."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                found += [(node.lineno, name) for name in package_modules(node)]
    return found


def test_the_sources_are_found():
    assert {"materials", "coupler", "verify", "sim_cli"} <= {p.stem for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_package_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert imports_in_functions(tree) == []


def test_materials_imports_only_fem_core():
    tree = ast.parse((PACKAGE / "materials.py").read_text())
    imported = {name for node in ast.walk(tree) for name in package_modules(node)}
    assert imported == {"fem_core"}


@pytest.mark.parametrize("source, modules", [
    ("import ablatesim.flow_solver", ["flow_solver"]),
    ("from ablatesim import heat_solver, mesh", ["heat_solver", "mesh"]),
    ("from ablatesim.sim_cli import _atomic_write", ["sim_cli"]),
    ("from . import verify as v", ["verify"]),
    ("from .heat_solver import inflow_weights", ["heat_solver"]),
    ("import io", []), ("from functools import cache", [])])
def test_package_imports_are_recognized(source, modules):
    assert package_modules(ast.parse(source).body[0]) == modules
    tree = ast.parse("def f():\n    " + source + "\n")
    assert [name for _, name in imports_in_functions(tree)] == modules
