"""Source hygiene: no module under ``biasaudit`` imports a name it never
uses, reads another biasaudit module's private name, or defines a function,
class or public method that no code, or only tests, refer to."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "biasaudit"
MODULES = sorted(SRC.rglob("*.py"))


def references(tree: ast.AST) -> Counter:
    """The identifiers ``tree`` refers to: names, attribute names and the
    names imports bind or take. An attribute name is also counted under
    ``"." + name``. Docstrings, comments and other strings refer to nothing.
    """
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
            refs["." + node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update({*node.name.split("."), node.asname} - {None})
    return refs


def source_references(*tops) -> Counter:
    return sum((references(ast.parse(path.read_text(encoding="utf-8")))
                for top in tops for path in (ROOT / top).rglob("*.py")), Counter())


# What the Python sources refer to: LIBRARY_REFS counts every source but
# the tests, REFS all of them.
LIBRARY_REFS = source_references("src", "perfbench", "scripts", "demos")
REFS = LIBRARY_REFS + source_references("tests")
# Definitions that only tests may name. ScriptedPlanner is the planner test
# seam: it replays a fixed list of actions in place of a model.
TEST_SEAMS = {"ScriptedPlanner"}


def unused_imports(tree: ast.Module) -> list:
    """Names bound by imports in ``tree`` that no expression reads.

    A module that defines ``__all__`` re-exports its imports, so it has
    none; ``from __future__`` imports bind no name.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return []
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_detects_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom a import b, c as d\nprint(os.sep, d)\n")
    assert unused_imports(tree) == [(3, "b")]
    assert unused_imports(ast.parse("import os\n__all__ = []\n")) == []


def unreferenced(tree: ast.Module, refs: Counter) -> list:
    """Module-level functions and classes of ``tree`` that nothing in
    ``refs`` refers to, and public methods of its classes, as
    ``Class.method``, that no attribute access names."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = [node.name for node in tree.body
             if isinstance(node, defs) and not refs[node.name]]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found += [f"{cls.name}.{node.name}" for node in cls.body
                      if isinstance(node, defs[:2]) and not node.name.startswith("_")
                      and not refs["." + node.name]]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unreferenced_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unreferenced(tree, REFS) == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_definitions_only_tests_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(set(unreferenced(tree, LIBRARY_REFS)) - TEST_SEAMS) == []


def test_detects_unreferenced_definition():
    source = ("def used():\n    def nested():\n        pass\n\n"
              "def lone():\n    used()\n\nclass Lone:\n    pass\n")
    refs = references(ast.parse(source + "lone_call(x)\n"))
    assert unreferenced(ast.parse(source), refs) == ["Lone", "lone"]


def test_detects_definition_named_only_in_a_docstring():
    source = ('def helper():\n    pass\n\n'
              'def main():\n    """Calls helper() # helper"""\n\nmain()\n')
    assert unreferenced(ast.parse(source), references(ast.parse(source))) == ["helper"]


def test_detects_definition_only_tests_name():
    source = "def used():\n    pass\n\ndef seam():\n    pass\n\nused()\n"
    library = references(ast.parse(source))
    tests = references(ast.parse("from lib import seam\nseam()\n"))
    assert unreferenced(ast.parse(source), library + tests) == []
    assert unreferenced(ast.parse(source), library) == ["seam"]


def test_detects_method_only_tests_call():
    source = ("class Box:\n    def __init__(self):\n        self.n = 0\n\n"
              "    def size(self):\n        return self.n\n\n"
              "    def names(self):\n        return []\n\n"
              "names = Box().size()\n")
    library = references(ast.parse(source))
    tests = references(ast.parse("assert Box().names() == []\n"))
    assert unreferenced(ast.parse(source), library + tests) == []
    assert unreferenced(ast.parse(source), library) == ["Box.names"]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(tree: ast.Module) -> list:
    """The private names ``tree`` takes from other biasaudit modules, as
    (line, name): those a ``from`` import of a biasaudit module binds, and
    attributes read through a name that a biasaudit import binds."""
    found = []
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "biasaudit"):
            found += [(node.lineno, a.name) for a in node.names
                      if is_private(a.name)]
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update(a.asname or "biasaudit" for a in node.names
                         if a.name.split(".")[0] == "biasaudit")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_private_reads_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert private_reads(tree) == []


def test_detects_private_read_across_modules():
    source = ("import os\nimport biasaudit.tabular\n"
              "from . import bench as b\nfrom .metrics import base, _tools\n"
              "from biasaudit.errors import _Hidden\n"
              "b._TYPES\nbase.run._cache\nbiasaudit.tabular._cut\n"
              "os._exit\nself._own\nb.__file__\nb.TYPES\n")
    assert private_reads(ast.parse(source)) == [
        (4, "_tools"), (5, "_Hidden"), (6, "_TYPES"), (7, "_cache"),
        (8, "_cut")]
