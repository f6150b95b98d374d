"""Every ``repro`` name an entry point imports resolves.

The entry points — the paper-table harnesses (``benchmarks/``), the
examples, the tools and the repository benchmark (``perfbench/``) — are
parsed, not run, so a deleted name fails tier-1 here instead of the next
time someone runs the harness that imports it. An import inside a
``try`` that catches ``ImportError`` is a deliberate guard and is
skipped.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINT_DIRS = ("benchmarks", "examples", "tools", "perfbench")

def _guards_import(handler: ast.ExceptHandler) -> bool:
    """A bare ``except`` or one naming ``ImportError``; a handler for
    ``ModuleNotFoundError`` alone does not catch a missing name."""
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(isinstance(t, ast.Name) and t.id == "ImportError"
               for t in types)


def _repro_imports(tree: ast.AST):
    """``(module, name, line)`` per unguarded ``from repro... import``."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                _guards_import(h) for h in node.handlers):
            for statement in node.body:
                guarded.update(id(n) for n in ast.walk(statement))
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module is not None
                and node.module.split(".")[0] == "repro"
                and id(node) not in guarded):
            for alias in node.names:
                yield node.module, alias.name, node.lineno


def _entry_point_imports() -> list:
    found = []
    for directory in ENTRY_POINT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for module, name, line in _repro_imports(tree):
                where = f"{path.relative_to(ROOT)}:{line}"
                found.append((where, module, name))
    return found


IMPORTS = _entry_point_imports()


def _resolves(module: str, name: str) -> bool:
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_entry_points_import_repro_names():
    # a parser that finds nothing would pass vacuously
    assert len(IMPORTS) > 100
    assert {where.split("/")[0] for where, _, _ in IMPORTS} == \
        set(ENTRY_POINT_DIRS)


@pytest.mark.parametrize("where,module,name", IMPORTS,
                         ids=[f"{w}:{n}" for w, _, n in IMPORTS])
def test_imported_name_resolves(where, module, name):
    assert _resolves(module, name), \
        f"{where} imports {name!r} from {module}, which has no such name"


def test_guarded_imports_are_skipped():
    tree = ast.parse(
        "try:\n    from repro.gone import a\nexcept ImportError:\n"
        "    a = None\n"
        "try:\n    from repro.gone import b\n"
        "except ModuleNotFoundError:\n    b = None\n"
        "from repro.gone import c\n")
    assert sorted(n for _, n, _ in _repro_imports(tree)) == ["b", "c"]
