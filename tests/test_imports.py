"""Source hygiene: every module uses each name it imports, and every private name is read."""

import ast
from pathlib import Path

import pytest

import hooktrees

SOURCES = sorted(Path(hooktrees.__file__).parent.glob("*.py"))

# Imported names a module keeps without using them itself.
KEPT = {
    # The benchmark's tracer wraps these as names of ``identities``.
    "identities.py": {"enumerate_forests", "forest_hooks", "standard_hooks", "second_kind_hooks"},
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


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        stored = [n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        return [n.id for n in stored if isinstance(n.ctx, ast.Store)]
    return []


def _unread_private_names(sources: list[str]) -> set[str]:
    """Module-level private names (``_x`` functions, classes, assignments) that no
    top-level statement of any source reads, other than one that defines them."""
    defined, reads = set(), []
    for source in sources:
        for stmt in ast.parse(source).body:
            names = _defined_names(stmt)
            defined.update(name for name in names if name[:1] == "_" and name[:2] != "__")
            nodes = list(ast.walk(stmt))
            read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            reads.append((set(names), read))
    return {name for name in defined if not any(name in read - names for names, read in reads)}


def test_every_private_name_is_read():
    assert _unread_private_names([path.read_text() for path in SOURCES]) == set()


def test_the_check_sees_an_unread_private_name():
    a = "_KEEP = 1\n_DEAD = 2\n_ATTR = 3\n__all__ = []\n"
    a += "def _loop(n):\n    return _loop(n - 1) if n else _KEEP\n"
    a += "def _used(): pass\nclass _Gone: pass\n"
    b = "import a\nfrom a import _used\n_used(a._ATTR)\n"
    assert _unread_private_names([a, b]) == {"_DEAD", "_loop", "_Gone"}
