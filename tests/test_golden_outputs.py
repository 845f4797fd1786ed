"""Order- and seed-dependent outputs, pinned family by family.

The oracle tests check that greedy closures, sampled families, random-greedy
bounds and capped walks are saturated; this module checks which families
they are, against the committed ``tests/golden_outputs.txt``. Regenerate it
with ``PYTHONPATH=src python tests/test_golden_outputs.py >
tests/golden_outputs.txt`` only when a change means to alter these outputs.
"""

from __future__ import annotations

from pathlib import Path

from posetsat import (
    GroundSet,
    SetFamily,
    antichain_poset,
    chain_poset,
    enumerate_saturated_families,
    greedy_saturate,
    sample_saturated_families,
    upper_bound_via_random_greedy,
)

from conftest import CROSS_CHECK_POSETS

GOLDEN = Path(__file__).with_name("golden_outputs.txt")

POSETS = {
    **CROSS_CHECK_POSETS,
    "chain1": chain_poset(1),
    "chain2": chain_poset(2),
    "antichain2": antichain_poset(2),
}


def _masks(fam: SetFamily) -> str:
    return " ".join(hex(b) for b in fam.bit_list)


def golden_lines() -> list[str]:
    """One line per family: what made it, then its members as hex masks."""
    lines = []
    for name, q in POSETS.items():
        for n in range(2, 7):
            closed = greedy_saturate(SetFamily.from_masks(GroundSet(n), []), q)
            lines.append(f"greedy {name} n={n}: {_masks(closed)}")
        for n in range(4, 7):
            for i, fam in enumerate(sample_saturated_families(n, q, 3, 7)):
                lines.append(f"sample {name} n={n} #{i}: {_masks(fam)}")
        for n in (5, 6):
            res = upper_bound_via_random_greedy(n, q, 6, 3)
            lines.append(f"random-greedy {name} n={n} value={res.value}: {_masks(res.certificate)}")
        for i, fam in enumerate(enumerate_saturated_families(5, q, cap=2)):
            lines.append(f"walk {name} n=5 #{i}: {_masks(fam)}")
    for name in ("B", "N"):
        for n in (7, 8):
            for i, fam in enumerate(sample_saturated_families(n, POSETS[name], 2, 7)):
                lines.append(f"sample {name} n={n} #{i}: {_masks(fam)}")
    return lines


def test_outputs_match_golden_file():
    expected = GOLDEN.read_text().splitlines()
    got = golden_lines()
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"line {i} differs"
    assert len(got) == len(expected)


if __name__ == "__main__":
    print("\n".join(golden_lines()))
