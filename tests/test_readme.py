"""README's package table is a guide to the package: it lists exactly the
modules of ``src/ablatesim`` (dunder files aside), each of which has a module
docstring, the reference that the table's row points to."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ablatesim"
ROW = re.compile(r"^\| `(\w+)` \|")


def table_modules(text: str) -> list:
    """The module of each row of the table under "## Package layout", in order."""
    lines = text.split("## Package layout", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| module |"))
    rows = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        match = ROW.match(line)
        assert match, f"a package-table row names no module: {line[:60]}"
        rows.append(match.group(1))
    return rows


def package_modules() -> set:
    return {p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__")}


def test_the_table_lists_exactly_the_package_modules():
    rows = table_modules((ROOT / "README.md").read_text())
    assert len(rows) == len(set(rows)), rows
    assert set(rows) == package_modules()


def test_every_module_has_a_docstring():
    for name in sorted(package_modules()):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        assert (ast.get_docstring(tree) or "").strip(), name

