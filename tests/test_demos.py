"""Stale-API guard for the demo scripts.

Running the demos takes about 30 s, so instead each one is parsed and every
name it takes from ``ssue`` (``ssue.<name>`` after ``import ssue``, or
``from ssue import <name>``) must exist on the package.
"""

import ast
from pathlib import Path

import pytest

import ssue

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def ssue_names(tree: ast.AST) -> set[str]:
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "ssue"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ssue":
            names.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_references_exist_on_package(demo):
    names = ssue_names(ast.parse(demo.read_text(), filename=str(demo)))
    assert names, f"{demo.name} uses nothing from ssue"
    missing = sorted(n for n in names if not hasattr(ssue, n))
    assert not missing, f"{demo.name} references missing ssue names: {missing}"
