"""One module owns tracked families, checked with ``ast``.

``embedding.py`` alone chooses and builds the trackers that keep a
family's open sets: within the package no other module constructs a
``_LatticeFamily``, calls ``.track(`` or reads ``_LATTICE_LIMIT``, and
``solver.py`` takes at most ``_tracked_family`` and ``_LatticeFamily`` from
``embedding``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posetsat"
OWNER = "embedding.py"
OTHERS = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != OWNER)


def tracking_uses(source: str) -> list[str]:
    """``what:line`` for each construction of ``_LatticeFamily``, call of a
    ``track`` method and read or import of ``_LATTICE_LIMIT`` in
    ``source``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "_LatticeFamily":
                found.append(f"_LatticeFamily:{node.lineno}")
            elif name == "track" and isinstance(func, ast.Attribute):
                found.append(f"track:{node.lineno}")
        elif "_LATTICE_LIMIT" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"_LATTICE_LIMIT:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and any(
            a.name == "_LATTICE_LIMIT" for a in node.names
        ):
            found.append(f"_LATTICE_LIMIT:{node.lineno}")
    return sorted(found, key=lambda use: int(use.rsplit(":", 1)[1]))


def embedding_imports(source: str) -> set[str]:
    """The names that ``source`` imports from the ``embedding`` module."""
    return {
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "embedding"
        for a in node.names
    }


def test_checker_flags_every_tracking_use():
    source = (
        "from .embedding import _LATTICE_LIMIT, _LatticeFamily\n"
        "from . import embedding\n"
        "def f(n, q, index, family):\n"
        "    if isinstance(family, _LatticeFamily) and n <= embedding._LATTICE_LIMIT:\n"
        "        return embedding._LatticeFamily(n, q)\n"
        "    index.track(q)\n"
        "    track(q)\n"
        "    return _LatticeFamily(n, q, ())\n"
    )
    assert tracking_uses(source) == [
        "_LATTICE_LIMIT:1", "_LATTICE_LIMIT:4", "_LatticeFamily:5", "track:6",
        "_LatticeFamily:8",
    ]
    assert embedding_imports(source) == {"_LATTICE_LIMIT", "_LatticeFamily"}


def test_the_owner_tracks():
    assert tracking_uses((PACKAGE / OWNER).read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", OTHERS)
def test_no_other_module_tracks(module):
    assert tracking_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_solver_takes_only_the_tracked_family_from_embedding():
    source = (PACKAGE / "solver.py").read_text(encoding="utf-8")
    assert embedding_imports(source) <= {"_tracked_family", "_LatticeFamily"}
