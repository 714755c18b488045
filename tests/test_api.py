"""Every function and class the package re-exports has a user.

A public helper with no caller and no test is dead code.  Each function or
class that ``ximod/__init__.py`` re-exports must be referenced somewhere
besides its own ``def``/``class`` statement and that re-export: in a
``src/ximod`` module (its own included, e.g. a result type that a function
there constructs) or under ``tests/``.  Each module-level private function
or class must be referenced in ``src/ximod``: a private helper that only
tests call is dead code too.  Each name a ``src/ximod`` module imports must
be read in that module, ``__init__.py`` aside, whose imports are the
re-exports.
"""
import ast
import inspect
from pathlib import Path

import ximod

SRC = Path(ximod.__file__).parent
TESTS = Path(__file__).parent


def _reexports() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                obj = getattr(ximod, alias.asname or alias.name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    names.append(alias.asname or alias.name)
    return names


def _referenced_names(path: Path) -> set[str]:
    """Identifiers read as a name or an attribute; imports and the names
    bound by def/class statements do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_reexport_has_a_user():
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += list(TESTS.glob("*.py"))
    used = set().union(*(_referenced_names(p) for p in files))
    assert [name for name in _reexports() if name not in used] == []


def _private_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]


def test_every_private_helper_has_a_user_in_src():
    files = list(SRC.glob("*.py"))
    used = set().union(*(_referenced_names(p) for p in files))
    unused = [
        f"{p.name}:{name}" for p in files for name in _private_definitions(p) if name not in used
    ]
    assert unused == []


def _imported_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_every_import_in_src_is_read():
    unused = [
        f"{p.name}:{name}"
        for p in SRC.glob("*.py") if p.name != "__init__.py"
        for name in _imported_names(p) if name not in _referenced_names(p)
    ]
    assert unused == []
