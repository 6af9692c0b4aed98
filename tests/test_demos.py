"""Stale-API guard for the demo scripts, the benchmark scripts and the README.

Running the demos takes about 30 s, so instead each one is parsed, as are the
scripts in ``perfbench/`` and the README's fenced python blocks, and every name
they take from ``ssue`` (``from ssue import <name>``, or ``<pkg>.<name>`` where
<pkg> is a name or attribute called ``ssue``, such as ``self.ssue``, or an
``import ssue as`` alias) must exist on the package.  A removed public name
that one of them still uses fails here rather than in a benchmark run.
"""

import ast
import re
from pathlib import Path

import pytest

import ssue
import ssue.cli  # noqa: F401  (the benchmark calls ssue.cli.main; the package does not import it)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)

# (source, whether it must use ssue): a benchmark helper module may use nothing of it
SOURCES = ([pytest.param(d.read_text(), True, id=d.name) for d in DEMOS]
           + [pytest.param(f.read_text(), False, id=f"perfbench/{f.name}") for f in PERFBENCH]
           + [pytest.param(b, True, id=f"README.md[{i}]") for i, b in enumerate(README_BLOCKS)])


def ssue_names(tree: ast.AST) -> set[str]:
    aliases = {"ssue"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                          for a in node.names if a.name == "ssue" and a.asname}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ssue":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            pkg = node.value
            if (isinstance(pkg, ast.Name) and pkg.id in aliases) or (
                    isinstance(pkg, ast.Attribute) and pkg.attr == "ssue"):
                names.add(node.attr)
    return names


def test_demos_exist():
    assert DEMOS and PERFBENCH and README_BLOCKS


@pytest.mark.parametrize("source, uses_ssue", SOURCES)
def test_demo_references_exist_on_package(source, uses_ssue):
    names = ssue_names(ast.parse(source))
    assert names or not uses_ssue, "uses nothing from ssue"
    missing = sorted(n for n in names if not hasattr(ssue, n))
    assert not missing, f"references missing ssue names: {missing}"
