"""Static checks on the package source."""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmgm"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unread_imports(tree: ast.Module) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unread_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from .core import A, B as C\n"
                     "def f():\n    import sys\n    return np.zeros(A)\n")
    assert unread_imports(tree) == [(2, "os"), (4, "C")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unread_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def unnamed_public_defs(trees: dict) -> list:
    """Top-level public functions and classes of the modules in ``trees``
    (file name -> parsed source) that no module names: not read, not an
    attribute, not imported (so an export in ``__init__.py`` counts)."""
    named = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.alias):
                named.add(n.name)
    return sorted((file, node.name) for file, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in named)


def test_unnamed_public_defs_are_found():
    trees = {"a.py": ast.parse("class Used:\n    pass\n"
                               "class Lone:\n    pass\n"
                               "def exported():\n    pass\n"
                               "def _private():\n    pass\n"
                               "def called():\n    return Used()\n"
                               "def orphan():\n    def inner():\n        pass\n"),
             "b.py": ast.parse("import a\nfrom .a import exported\n"
                               "def g():\n    return a.called()\n")}
    assert unnamed_public_defs(trees) == [("a.py", "Lone"), ("a.py", "orphan"),
                                          ("b.py", "g")]


def test_every_public_def_is_named_in_the_package():
    # a library function that only tests call belongs in the tests
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    assert unnamed_public_defs(trees) == []
