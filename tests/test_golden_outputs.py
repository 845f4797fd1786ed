"""Order- and seed-dependent outputs, pinned family by family.

The oracle tests check that greedy closures, sampled families, random-greedy
bounds and capped walks are saturated; this module checks which families
they are, against the committed ``tests/golden_outputs.txt``. Regenerate it
with ``PYTHONPATH=src python tests/test_golden_outputs.py >
tests/golden_outputs.txt`` only when a change means to alter these outputs.

Its last row pins the generated kernels: one SHA-256 over the source of
every completion walk and every unforced and forced copy search of a set of
posets, so a change to how plans become kernels shows as a changed digest.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from posetsat import (
    GroundSet,
    SetFamily,
    antichain_poset,
    chain_poset,
    complete_bipartite_poset,
    enumerate_saturated_families,
    greedy_saturate,
    sample_saturated_families,
    upper_bound_via_random_greedy,
    validate_poset,
)
from posetsat import embedding
from posetsat.embedding import _completion_walks, _search_kernel

from conftest import CROSS_CHECK_POSETS

GOLDEN = Path(__file__).with_name("golden_outputs.txt")

POSETS = {
    **CROSS_CHECK_POSETS,
    "chain1": chain_poset(1),
    "chain2": chain_poset(2),
    "antichain2": antichain_poset(2),
}


KERNEL_POSETS = [
    *CROSS_CHECK_POSETS.values(),
    complete_bipartite_poset(3, 3),
    validate_poset([[a % 2 == 0 and b == a + 1 for b in range(20)] for a in range(20)]),
    antichain_poset(23),
    complete_bipartite_poset(21, 1),
    chain_poset(24),
]


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
    lines.append(f"kernels sha256={_kernel_digest()}")
    return lines


def _kernel_digest() -> str:
    """SHA-256 over the kernel sources of walk groups 0 and 1 and of the
    unforced search and the search forced at each element, poset by poset
    and walk by walk, compiled afresh and read back from ``_KERNELS``."""
    saved = embedding._KERNELS
    embedding._KERNELS = {}
    _completion_walks.cache_clear()
    _search_kernel.cache_clear()
    try:
        kernels = []
        for q in KERNEL_POSETS:
            kernels += [kernel for group in range(2) for _, kernel in _completion_walks(q, group)]
            kernels += [_search_kernel(q, forced)[1]
                        for forced in [(), *((p,) for p in range(q.size))]]
        source = {kernel: text for text, kernel in embedding._KERNELS.items()}
        return hashlib.sha256("\n\n".join(source[k] for k in kernels).encode()).hexdigest()
    finally:
        embedding._KERNELS = saved
        _completion_walks.cache_clear()
        _search_kernel.cache_clear()


def test_outputs_match_golden_file():
    expected = GOLDEN.read_text().splitlines()
    got = golden_lines()
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"line {i} differs"
    assert len(got) == len(expected)


if __name__ == "__main__":
    print("\n".join(golden_lines()))
