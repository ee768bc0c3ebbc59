"""Every top-level import of a library module is used in that module: a name
imported and never read is left over from code that is gone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "circleweights"
# __init__.py imports to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names bound by the top-level imports of ``source`` that no
    expression of it reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\nimport os.path\nimport json\n"
              "from typing import List, Tuple\nfrom . import linalg as la\n"
              "def f(x: List[int]):\n    '''Tuple'''\n    return os.path.join(la.X)\n")
    assert unused_imports(source) == ["Tuple", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str):
    """The modules that the import statements of ``source`` name, anywhere
    in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


@pytest.mark.parametrize("name", ["linalg.py", "laurent.py"])
def test_integer_only_layers_import_no_fractions(name):
    # elimination, positivity and Laurent arithmetic run on ints alone
    assert "fractions" not in imported_modules((SRC / name).read_text())
