"""Source hygiene: no module under ``biasaudit`` imports a name it never uses."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "biasaudit"
MODULES = sorted(SRC.rglob("*.py"))


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
