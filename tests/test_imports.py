"""Source hygiene: every module uses each name it imports."""

import ast
from pathlib import Path

import pytest

import hooktrees

SOURCES = sorted(Path(hooktrees.__file__).parent.glob("*.py"))

# Imported names a module keeps without using them itself.
KEPT = {
    # The benchmark's tracer wraps these two as names of ``identities``.
    "identities.py": {"enumerate_forests", "forest_hooks"},
}


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A name listed in ``__all__`` is re-exported, as ``__init__`` does.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == KEPT.get(path.name, set())


def test_the_check_sees_an_unused_import():
    source = "from typing import Iterable, Iterator\nimport os.path\n__all__ = ['os']\n"
    source += "def f(x: Iterable): pass\n"
    assert _unused_imports(source) == {"Iterator"}
