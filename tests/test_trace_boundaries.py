"""The benchmark's tracer wraps package functions by name; a rename in the
package would silently drop a traced layer. ``BOUNDARIES`` is read from
``bench/tracing.py`` as a literal, without importing or changing it."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# boundaries whose functions left the package before the tracer was updated
STALE = {"embedding.probe": "_FamilyIndex.probe_with", "saturation.creates_copy": "_creates_copy"}


def boundaries():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no BOUNDARIES")


def resolves(modname: str, attr: str) -> bool:
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_traced_boundary_resolves_in_the_package():
    found = boundaries()
    assert {name for name, *_ in found} >= set(STALE)
    absent = {name: attr for name, modname, attr, _ in found if not resolves(modname, attr)}
    assert absent == STALE
