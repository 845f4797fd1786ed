"""Freeness and saturation checking, explicit saturated families, and greedy
completion of free families to saturated ones.

A family is q-saturated when it is q-free and adding any missing subset
creates an induced copy of q; equivalently, when it is maximal q-free. Once
the family is known to be free, any new copy passes through the new set.

Freeness is decided by a copy search, and the scan and the closure then
run on the tracked family that ``embedding`` builds, which keeps the
missing sets whose addition keeps the family free as one bitmap over all
subsets: for n <= 10 both run on lattice tables indexed by mask, above on
one search index. It starts from one pass over completion regions rather
than one forced search per missing set: for the least
element p of each twin class of q it lists the copies of q - p among the
members, and each copy blocks the region of subsets that complete it at p:
those inside the images of the elements above p, containing the images of
the elements below p, and incomparable to the other images. The missing
sets that no copy blocks are the unsaturated ones. Greedy completion adds
one such set at a time, and each addition removes from the bitmap the sets
that now complete a copy through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import GroundSet, PosetSpec, SetFamily, SubsetMask, mask_key
from .embedding import EmbeddingWitness, _witness_or_tracked
from .errors import UsageError


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of a saturation check.

    ``unsaturated_sets`` lists every missing subset whose addition creates no
    copy; it is empty whenever the family is not free (freeness fails first).
    """

    free: bool
    witness_if_not_free: EmbeddingWitness | None
    unsaturated_sets: tuple[SubsetMask, ...]
    saturated: bool

    def to_json_obj(self) -> dict:
        return {
            "free": self.free,
            "saturated": self.saturated,
            "unsaturated": [list(s.elements()) for s in self.unsaturated_sets],
            "witness": None
            if self.witness_if_not_free is None
            else self.witness_if_not_free.to_json_obj(),
        }


def _bit_positions(x: int) -> list[int]:
    """Positions of the set bits of ``x``, ascending."""
    digits = bin(x)[:1:-1]  # least significant first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def saturation_report(family: SetFamily, q: PosetSpec) -> SaturationReport:
    """Full saturation verdict: freeness, then every missing subset that
    completes no copy, in canonical order. ``_witness_or_tracked`` gives
    the witness of a family that is not free, and the scan of a free one."""
    witness, tracked = _witness_or_tracked(family, q)
    if witness is not None:
        return SaturationReport(False, witness, (), False)
    unsat = sorted(_bit_positions(tracked.open[-1]), key=mask_key)
    masks = tuple(SubsetMask(s, family.ground) for s in unsat)
    return SaturationReport(True, None, masks, not unsat)


def greedy_saturate(
    seed: SetFamily,
    q: PosetSpec,
    order: Sequence[int] | None = None,
) -> SetFamily:
    """Close a free seed to a saturated family: walk every missing subset in
    the given order (canonical by default) and add it whenever the addition
    creates no copy through it. One pass suffices since rejections stay
    rejected as the family grows. Every entry of ``order`` must be an
    integer mask of the ground set, and together they must cover every
    subset outside the seed."""
    ground = seed.ground
    witness, tracked = _witness_or_tracked(seed, q)
    if witness is not None:
        raise UsageError("greedy seed already contains an induced copy", witness=witness)
    candidates = ground.all_masks() if order is None else list(order)
    for s in candidates:
        if type(s) is not int or not 0 <= s <= ground.full_mask:
            raise UsageError(f"candidate {s!r} is not a subset mask of 1..{ground.n}")
    if set(range(1 << ground.n)) - set(seed.bit_list) - set(candidates):
        raise UsageError("candidate order must cover every subset outside the seed")
    for s in candidates:
        if tracked.open[-1] >> s & 1:
            tracked.append(s)
    return SetFamily.from_masks(ground, tracked.bits)


# --- explicit families ------------------------------------------------------


def _construction(n: int, name: str) -> tuple[GroundSet, set[int]]:
    """The ground set [n] and the masks of the empty set, the singletons and
    the prefixes {1..i}, the members both constructions share."""
    if n < 2:
        raise UsageError(f"{name} construction needs n >= 2, got {n}")
    ground = GroundSet(n)
    return ground, {0} | {1 << i for i in range(n)} | {(1 << i) - 1 for i in range(1, n + 1)}


def butterfly_construction(n: int) -> SetFamily:
    """The empty set, all singletons, all pairs, and all prefixes {1..i}."""
    ground, masks = _construction(n, "butterfly")
    pairs = {1 << i | 1 << j for i, j in combinations(range(n), 2)}
    return SetFamily.from_masks(ground, masks | pairs)


def n_construction(n: int) -> SetFamily:
    """The empty set, all singletons, and all prefixes {1..i}; 2n sets."""
    ground, masks = _construction(n, "N")
    return SetFamily.from_masks(ground, masks)


def k2k_seed(n: int, k: int) -> SetFamily:
    """Free seed for closing toward K_{2,k}: the N construction (the empty
    set, all singletons and the full prefix chain)."""
    if k < 2 or n <= k:
        raise UsageError(f"k2k seed needs n > k >= 2, got n={n}, k={k}")
    return n_construction(n)


def kkk_seed(n: int, k: int) -> SetFamily:
    """Free seed for closing toward K_{k,k}: all singletons plus k-1 full
    chains; chain i lists the elements of [n] without i in increasing order
    and then appends i, so it ends with [n]-{i} and [n]."""
    # n >= 2k-1 leaves enough room for k incomparable sets above the bottoms
    if k < 2 or n < 2 * k - 1:
        raise UsageError(f"kkk seed needs n >= 2k-1 and k >= 2, got n={n}, k={k}")
    ground = GroundSet(n)
    masks = set()
    for i in range(n):
        masks.add(1 << i)
    for i in range(1, k):
        sequence = [e for e in range(1, n + 1) if e != i] + [i]
        masks.add(0)
        cur = 0
        for e in sequence:
            cur |= 1 << (e - 1)
            masks.add(cur)
    return SetFamily.from_masks(ground, masks)
