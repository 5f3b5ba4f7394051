"""Every module under ``src/bestarm`` uses each name it imports, and each
private name it defines is read somewhere in the package.

``__init__.py`` re-exports by importing, so it is exempt from the import
check, and so is an import line marked ``# noqa: F401``: those mark names
other modules (and the benchmark) look up on the importing module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bestarm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number of its import statement
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    source = ("import math\nimport os  # noqa: F401\n"
              "from typing import Callable, Iterable\nx: Callable = math.pi\n")
    assert _unused_imports(source) == ["Iterable (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private_targets(node: ast.stmt) -> list[str]:
    """The ``_name`` functions, classes and variables a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(node: ast.AST) -> set[str]:
    """Every name a statement reads: loads, attributes and ``from`` imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names of ``sources`` (module name -> source) that no
    module reads.

    A read inside a private name's own definition counts only once that name
    is itself read, so a chain of constants that only each other read is
    dead as a whole.  Reads are matched by name alone, so two modules'
    private names of one spelling live or die together.
    """
    defined = {}  # (module, private name) -> line of its last definition
    reads_of = {}  # private name -> the names its definitions read
    live = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            targets = _private_targets(node)
            for name in targets:
                defined[module, name] = node.lineno
                reads_of.setdefault(name, set()).update(_reads(node))
            if not targets:
                live |= _reads(node)
    todo = list(live)
    while todo:
        for name in reads_of.get(todo.pop(), ()):
            if name not in live:
                live.add(name)
                todo.append(name)
    return sorted(f"{name} ({module}, line {line})"
                  for (module, name), line in defined.items() if name not in live)


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a.py": ("_TERMS = 8\n_HEAD = [_TERMS]\n_HEAD = _HEAD * 2\n_SHARED = 1\n"
                 "def _helper():\n    return _SHARED\n"
                 "def run():\n    return _helper()\n"),
        "b.py": "from .a import _SHARED as shared\nclass _Unused:\n    pass\n",
    }
    assert _dead_private_names(sources) == [
        "_HEAD (a.py, line 3)", "_TERMS (a.py, line 1)", "_Unused (b.py, line 2)"]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in ALL_MODULES}
    assert _dead_private_names(sources) == []
