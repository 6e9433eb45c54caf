"""Every module under src/, scripts/ and tests/ uses each name it imports,
and every module under src/ and scripts/ reads each private name it defines.

The project depends on no linter, so this walks the syntax trees with
the standard library. Package __init__ modules re-export names and are
skipped by the import check, as are `from __future__` imports. A private
name is a module-level function, class or constant whose name starts
with one underscore; nothing outside its module should need it, so a
module that never reads it holds dead code. perfbench/ is left out.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")
PROGRAM = sorted(p for top in ("src", "scripts") for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport shutil as sh\nfrom pathlib import Path\nos.sep\n"
    assert unused_imports(source) == ["line 2: sh", "line 3: Path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """Module-level `_private` functions, classes and constants that nothing in the module reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_the_check_finds_an_unread_private_name():
    source = ("_A = 1\n_B, C = 2, 3\n_c: int = 4\n__version__ = '1'\n"
              "def _f():\n    return _A\n\nclass _K:\n    _inner = 5\n\n"
              "def g():\n    _local = _f()\n    return C\n")
    assert unread_private_names(source) == ["line 2: _B", "line 3: _c", "line 8: _K"]


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
