"""Source hygiene: no module under ``biasaudit`` imports a name it never
uses, or defines a function or class that no code, or only tests, name."""

import ast
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "biasaudit"
MODULES = sorted(SRC.rglob("*.py"))


def word_counts(*tops) -> Counter:
    return Counter(word for top in tops for path in (ROOT / top).rglob("*.py")
                   for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))


# The words of the Python sources that may name a library function or
# class: WORDS counts every source, LIBRARY_WORDS all but the tests.
LIBRARY_WORDS = word_counts("src", "perfbench", "scripts", "demos")
WORDS = LIBRARY_WORDS + word_counts("tests")
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


def unreferenced(tree: ast.Module, words: Counter) -> list:
    """Module-level functions and classes of ``tree`` whose name occurs as a
    whole word only once in ``words``: in their own definition."""
    return sorted(node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and words[node.name] < 2)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unreferenced_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unreferenced(tree, WORDS) == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_definitions_only_tests_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(set(unreferenced(tree, LIBRARY_WORDS)) - TEST_SEAMS) == []


def test_detects_unreferenced_definition():
    source = ("def used():\n    def nested():\n        pass\n\n"
              "def lone():\n    used()\n\nclass Lone:\n    pass\n")
    words = Counter(re.findall(r"\w+", source + "# lone_call(x)\n"))
    assert unreferenced(ast.parse(source), words) == ["Lone", "lone"]


def test_detects_definition_only_tests_name():
    source = "def used():\n    pass\n\ndef seam():\n    pass\n\nused()\n"
    library = Counter(re.findall(r"\w+", source))
    tests = Counter(re.findall(r"\w+", "from lib import seam\nseam()\n"))
    assert unreferenced(ast.parse(source), library + tests) == []
    assert unreferenced(ast.parse(source), library) == ["seam"]
