"""Every public top-level function and class of the package has a caller.

A public name that only the tests read is API surface that no pipeline
justifies; test-only code lives in ``tests/reference.py``. Callers are looked
for in the package and in the benchmark harness, which hooks package names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghzcert"


def _trees(*directories):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for directory in directories for path in sorted(directory.glob("*.py"))]


def public_names() -> set[str]:
    return {node.name for tree in _trees(PACKAGE) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def referenced_names() -> set[str]:
    """Every Name id, Attribute attr and import alias in the package and perfbench."""
    names = set()
    for tree in _trees(PACKAGE, ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    public = public_names()
    assert len(public) > 50  # the walk found the package
    assert sorted(public - referenced_names()) == []
