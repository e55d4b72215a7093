"""Every top-level function, class and assigned name of the package has a reader,
and every name a package module imports is read in that module.

A public name that only the tests read is API surface that no pipeline
justifies; test-only code lives in ``tests/reference.py``. A private helper or
module constant that nothing reads is dead code. Readers are looked for in the
package and in the benchmark harness, which hooks package names. An import
counts as a reader in the first walk, so an import that its module never reads
can hide behind another module's reader; the second walk looks for it module
by module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghzcert"


def _trees(*directories):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for directory in directories for path in sorted(directory.glob("*.py"))]


def defined_names() -> set[str]:
    """Every top-level function, class and assigned name of the package, dunders
    (read by tools) aside."""
    names = set()
    for tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("__")}


def referenced_names() -> set[str]:
    """Every Name read, Attribute attr and import alias in the package and perfbench."""
    names = set()
    for tree in _trees(PACKAGE, ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_top_level_name_has_a_reader():
    defined = defined_names()
    private = {name for name in defined if name.startswith("_")}
    assert len(defined - private) > 50 and len(private) > 20  # the walk found the package
    assert sorted(defined - referenced_names()) == []


def unread_imports(tree: ast.Module) -> set[str]:
    """The names a module binds by import and never reads, ``__future__`` aside."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read_in_its_module():
    assert unread_imports(ast.parse("import os\nfrom a import b as c\nos.sep")) == {"c"}
    unread = {path.name: sorted(names) for path in sorted(PACKAGE.glob("*.py"))
              if (names := unread_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unread == {}
