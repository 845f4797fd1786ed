"""Cover relations of a family under inclusion and DOT export of the Hasse
diagram."""

from __future__ import annotations

from .core import SetFamily
from .embedding import _FamilyIndex
from .saturation import _bit_positions


def cover_edges(family: SetFamily) -> list[tuple[int, int]]:
    """Index pairs (i, j) into the canonical member list with member i
    covered by member j: a proper subset with no member strictly between.

    The pairs are read from the relation bitsets of a search index: member
    j covers member i when j is above i and above no member that is above
    i. They come in ascending order of i, then j."""
    above = _FamilyIndex(family.bit_list, family.ground.n).above
    edges = []
    for i, up in enumerate(above):
        between = 0
        for k in _bit_positions(up):
            between |= above[k]
        edges += [(i, j) for j in _bit_positions(up & ~between)]
    return edges


def emit_hasse(family: SetFamily) -> str:
    """DOT digraph of the family's Hasse diagram: one node per member labeled
    with its elements, one edge per cover relation, deterministic order."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for idx, member in enumerate(family.members):
        lines.append(f'  s{idx} [label="{member}"];')
    for i, j in cover_edges(family):
        lines.append(f"  s{i} -> s{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
