"""The Dirichlet rule has one home, read from the package's sources: each
solve passes a LinearSystem its constraints, and no module but linalg sets
state on a system."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ablatesim"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "linalg")


def is_system(node) -> bool:
    """Whether ``node`` is a name ``system`` or an attribute ``.system``."""
    return (isinstance(node, ast.Name) and node.id == "system"
            or isinstance(node, ast.Attribute) and node.attr == "system")


def system_writes(tree) -> list:
    """(line, attribute) of each assignment to an attribute of a system."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Attribute) and is_system(target.value):
                found.append((target.lineno, target.attr))
    return found


def test_the_sources_are_found():
    assert {"potential_solver", "flow_solver", "heat_solver", "verify"} <= {
        p.stem for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_module_but_linalg_sets_system_state(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert system_writes(tree) == []


@pytest.mark.parametrize("source, attrs", [
    ("system.values = values", ["values"]),
    ("problem.system.dofs, n = dofs, 1", ["dofs"]),
    ("self.system.builds += 1", ["builds"]),
    ("system.order: object = None", ["order"]),
    ("system.fixed = None", ["fixed"]),
    ("system = LinearSystem()", []), ("x = system.values", []),
    ("systems.values = 1", []), ("system.factor.last = None", [])])
def test_system_writes_are_recognized(source, attrs):
    assert [attr for _, attr in system_writes(ast.parse(source))] == attrs
