"""Unused module-level imports and private names in the package, found with
``ast``.

The package has no linter configured; these tests keep a deleted function
from leaving its imports or private helpers behind. ``__init__.py``
re-exports names and is left out of the import check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posetsat"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _names_read(node: ast.AST) -> set[str]:
    """Names that ``node`` reads: as a variable, as an attribute of a module
    or object, or by importing them from another module."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read |= {a.name for a in sub.names}
    return read


def _private_names(node: ast.stmt) -> list[str]:
    """Private (single leading underscore) names a module-level statement
    binds with ``def``, ``class`` or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private function, class or
    constant that no other module-level statement of any module reads; a
    function that only calls itself counts as unread."""
    statements = [
        (module, stmt)
        for module, source in sources.items()
        for stmt in ast.parse(source).body
    ]
    reads = [_names_read(stmt) for _, stmt in statements]
    unread = []
    for i, (module, stmt) in enumerate(statements):
        for name in _private_names(stmt):
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unread.append(f"{module}:{name}")
    return sorted(unread)


def test_checker_flags_an_unused_name():
    source = "import os\nfrom typing import Iterator, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Iterator"]


def test_checker_flags_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_gone = 1\n"
            "def _loop(k):\n    return _loop(k - 1)\n"
            "class _Used:\n    pass\n"
            "def run():\n    return _LIMIT, _Used()\n"
        ),
        "b.py": "from .a import _helper\nimport a\nx = a._attr\n",
        "c.py": "def _helper():\n    pass\n_attr = 0\n",
    }
    assert unread_private_names(sources) == ["a.py:_gone", "a.py:_loop"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []
