"""Unused module-level imports, private names and public names in the
package, found with ``ast``.

The package has no linter configured; these tests keep a deleted function
from leaving its imports or private helpers behind, and a public name from
staying in the API when only its own tests read it. ``__init__.py``
re-exports names and is left out of the import check.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posetsat"
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


def _exports(source: str) -> tuple[list[str], list[str]]:
    """The names an ``__init__.py`` imports from its modules, and the names
    its ``__all__`` lists."""
    imported, listed = [], []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed += [e.value for e in node.value.elts]
    return imported, listed


def _bound_names(node: ast.stmt) -> set[str]:
    """The name a ``def`` or ``class`` statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    return set()


def unread_public_names(init: str, modules: dict[str, str], others: dict[str, str]) -> list[str]:
    """Each name of ``__all__`` in ``init`` that is not read from live code.
    Every file of ``others`` is live: a Python file is read by ``ast``, any
    other file as the words of its text. A module-level statement of
    ``modules`` is live when it binds no public or private name, or binds
    one that live code reads; what it reads is then read from live code.
    So a public name that only a dead public or private name reads is
    unread too, and a function that only calls itself reads nothing."""
    public = _exports(init)[1]
    statements = []
    for source in modules.values():
        for stmt in ast.parse(source).body:
            bound = set(_private_names(stmt)) | _bound_names(stmt).intersection(public)
            statements.append((bound, _names_read(stmt) - _bound_names(stmt)))
    live = set()
    for name, text in others.items():
        python = name.endswith(".py")
        live |= _names_read(ast.parse(text)) if python else set(re.findall(r"\w+", text))
    grown = True
    while grown:
        before = len(live)
        for bound, reads in statements:
            if not bound or bound & live:
                live |= reads
        grown = len(live) > before
    return [name for name in public if name not in live]


def test_checker_flags_an_unread_public_name():
    init = (
        "from .a import run, spare, Shape\n"
        "__all__ = ['run', 'spare', 'Shape']\n"
    )
    modules = {
        "a.py": (
            "class Shape:\n    pass\n"
            "def spare(k) -> Shape:\n    return spare(k - 1)\n"
            "def run():\n    return 1\n"
        ),
        "b.py": "def _unused():\n    return Shape()\n",
    }
    others = {"README.md": "call `run()` first", "bench/x.py": "api.pkg.running()\n"}
    # Shape is read only by spare and _unused, which nothing live reads
    assert unread_public_names(init, modules, others) == ["spare", "Shape"]
    modules["c.py"] = "from .a import Shape\n"
    assert unread_public_names(init, modules, others) == ["spare"]


def test_all_lists_exactly_the_imported_names():
    imported, listed = _exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(imported) == sorted(listed)
    assert len(listed) == len(set(listed))


def test_every_public_name_is_read_outside_the_tests():
    modules = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in MODULES}
    others = {"README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    for path in sorted((ROOT / "bench").glob("*.py")):
        others[f"bench/{path.name}"] = path.read_text(encoding="utf-8")
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_public_names(init, modules, others) == []
