"""Numpy-only runtime guard.

``ssue`` depends on numpy alone; scipy is a test extra that the suite uses as
an independent oracle.  Each module is parsed and must not import scipy.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "ssue").glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_exist():
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_does_not_import_scipy(module):
    roots = imported_roots(ast.parse(module.read_text(), filename=str(module)))
    assert "scipy" not in roots, f"{module.name} imports scipy"
