"""Every module under src/, scripts/ and tests/ uses each name it imports,
every module under src/ and scripts/ reads each private name it defines,
and the program reads each public name that src/ defines.

The project depends on no linter, so this walks the syntax trees with
the standard library. Package __init__ modules re-export names and are
skipped by the import check, as are `from __future__` imports. A private
name is a module-level function, class or constant whose name starts
with one underscore; nothing outside its module should need it, so a
module that never reads it holds dead code. A public name in src/ is
read if src/, scripts/ or perfbench/ reads it, not counting the
package's re-exports; perfbench's tracer names what it wraps in strings,
so strings count there. A public name that only the tests read is dead
code unless it is a named test oracle. perfbench/ is not checked itself.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")
PROGRAM = sorted(p for top in ("src", "scripts") for p in (ROOT / top).rglob("*.py"))
READERS = sorted(p for top in ("src", "scripts", "perfbench") for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")
# Public names that only the tests read, each with the check it serves.
ORACLES = {
    "finite_difference_gradient": "criterion 1 holds the analytic gradient to it",
    "variance_bound_check": "criterion 9's Monte-Carlo check of the variance bound",
}


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


def module_level_names(source: str) -> dict[str, int]:
    """Names that module-level functions, classes and assignments bind, by first line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            defined.setdefault(name, node.lineno)
    return defined


def unread_private_names(source: str) -> list[str]:
    """Module-level `_private` functions, classes and constants that nothing in the module reads."""
    read = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in module_level_names(source).items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_an_unread_private_name():
    source = ("_A = 1\n_B, C = 2, 3\n_c: int = 4\n__version__ = '1'\n"
              "def _f():\n    return _A\n\nclass _K:\n    _inner = 5\n\n"
              "def g():\n    _local = _f()\n    return C\n")
    assert unread_private_names(source) == ["line 2: _B", "line 3: _c", "line 8: _K"]


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def read_names(source: str, strings: bool = False) -> set[str]:
    """Names a module reads: loaded names, attributes and, if asked, string constants."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_public_names(source: str, read: set[str]) -> list[str]:
    """Module-level public names of source that are not in read."""
    return [f"line {line}: {name}" for name, line in module_level_names(source).items()
            if not name.startswith("_") and name not in read]


def test_the_check_finds_an_unread_public_name():
    source = ("A = 1\nB, _c = 2, 3\n\ndef f():\n    return A\n\nclass K:\n    pass\n\n"
              "def g():\n    pass\n\ndef h():\n    pass\n")
    reader = "import m\nm.g()\nTRACED = ('K',)\n"
    read = read_names(source) | read_names(reader, strings=True)
    assert unread_public_names(source, read) == ["line 2: B", "line 4: f", "line 13: h"]
    read = read_names(source) | read_names(reader)
    assert unread_public_names(source, read) == ["line 2: B", "line 4: f", "line 7: K",
                                                 "line 13: h"]


def test_the_program_reads_every_public_name_in_src():
    read = set()
    for path in READERS:
        read |= read_names(path.read_text(encoding="utf-8"),
                           strings=path.is_relative_to(ROOT / "perfbench"))
    unread = [(entry.rpartition(" ")[2], f"{path.relative_to(ROOT).as_posix()} {entry}")
              for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "__init__.py"
              for entry in unread_public_names(path.read_text(encoding="utf-8"), read)]
    assert [where for name, where in unread if name not in ORACLES] == []
    assert set(ORACLES) <= {name for name, _ in unread}, "a read oracle needs no exemption"
