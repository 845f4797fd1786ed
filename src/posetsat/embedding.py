"""Induced-copy search: decide whether a family contains an induced copy of a
poset and produce a checkable witness.

An induced copy is an injective assignment of poset elements to family
members that reproduces the strict order exactly: x below y iff the image of
x is a proper subset of the image of y, and incomparable elements map to
incomparable sets. The search backtracks over poset elements in descending
constraint order; candidate sets are pruned by intersecting precomputed
relation bitsets over member indices, so the hot loops run on machine-word
operations.

Each poset and tuple of forced elements has a cached plan: the search
order, forced elements first, and per depth the earlier elements whose
relation bitsets constrain the candidate, so a node touches only assigned
elements. Twins, elements with identical relation rows (such as the bottoms
or the tops of ``K_{s,t}``), must take ascending member indices in search
order; forced elements are left out of their twin chains. The ordering
changes no witness: swapping two out-of-order twins gives another copy that
comes earlier in search order, so the first copy found already has its
twins in ascending order. A forced search tries the forced member only at
the least element of each twin class.

The index can also keep, for one poset, the bitmap of the missing sets
whose addition keeps the family free: each append pushes the next bitmap,
found by completion walks through the new member, and each pop pops it. A
family is saturated exactly when that bitmap is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import GroundSet, PosetSpec, SetFamily, SubsetMask
from .errors import UsageError

_BELOW, _ABOVE, _NONE = 1, 2, 0


@lru_cache(maxsize=None)
def _poset_tables(q: PosetSpec):
    """Relation codes, search order, the least element of each twin class
    for a poset, and the pairs (p, x) of such a class head p and the least
    element x of a twin class of q - p.

    A forced search and ``completing_sets`` place the forced member or the
    new set only at these class heads, and a completion walk through a new
    member places it only at such an x. That loses nothing: twins relate to
    every other element alike and to each other not at all, so swapping
    the images of two twins turns a copy with a given set at one into a
    copy with that set at the other."""
    m = q.size
    rel = [[_NONE] * m for _ in range(m)]
    degree = [0] * m
    for a in range(m):
        for b in range(m):
            if q.less[a][b]:
                rel[a][b] = _BELOW
                rel[b][a] = _ABOVE
                degree[a] += 1
                degree[b] += 1
    order = tuple(sorted(range(m), key=lambda x: (-degree[x], x)))
    rel = tuple(tuple(row) for row in rel)
    heads = tuple(x for x, row in enumerate(rel) if rel.index(row) == x)
    pairs = tuple(
        (p, x) for p in heads for x in range(m)
        if x != p and x == next(y for y in range(m) if y != p and rel[y] == rel[x])
    )
    return rel, order, heads, pairs


@lru_cache(maxsize=None)
def _search_plan(q: PosetSpec, forced: tuple[int, ...]):
    """Search order, per-depth relation checks and twin chains for one search
    of ``q`` with the ``forced`` elements placed first, in the given order.

    ``checks[d]`` lists (earlier element, relation code) pairs that the
    candidate at depth d must satisfy; ``prev[d]`` is the previous element
    of its twin class in search order, or -1. Forced elements are left out
    of their twin chains: swapping one with a twin would move its member.
    """
    rel, order = _poset_tables(q)[:2]
    order = forced + tuple(x for x in order if x not in forced)
    checks = tuple(
        tuple((y, rel[x][y]) for y in order[:d]) for d, x in enumerate(order)
    )
    last: dict[tuple[int, ...], int] = {}
    prev = [-1] * len(forced)
    for x in order[len(forced):]:
        prev.append(last.get(rel[x], -1))
        last[rel[x]] = x
    return order, checks, tuple(prev)


class _FamilyIndex:
    """Mutable search index over a duplicate-free list of subset masks.

    Per member index i it keeps bitsets (ints over member indices) of the
    members strictly below, strictly above, and incomparable. Append and pop
    change these lists in place, so the completion walks bound to them stay
    valid, and are cached, for the lifetime of the index.

    After ``track(q)`` on a q-free family, ``open[-1]`` is the bitmap over
    all 2^n subsets (bit s for subset s) of the missing sets whose addition
    keeps the family q-free, so the family is q-saturated exactly when it is
    0. Each append then pushes the next bitmap and each pop pops it; while
    tracking, only sets in ``open[-1]`` may be appended.
    """

    __slots__ = ("n", "bits", "below", "above", "incomp", "open", "_q", "_plans")

    def __init__(self, bits: Sequence[int], n: int):
        self.n = n
        self.bits: list[int] = []
        self.below: list[int] = []
        self.above: list[int] = []
        self.incomp: list[int] = []
        self._q: PosetSpec | None = None
        self._plans: dict = {}
        for b in bits:
            self.append(b)

    def track(self, q: PosetSpec) -> None:
        """Keep ``open`` for q from now on, starting from one completion pass
        over every missing set."""
        missing = (1 << (1 << self.n)) - 1 - sum(1 << b for b in self.bits)
        self.open: list[int] = [missing ^ self.completing_sets(q, missing)]
        self._q = q

    def append(self, new: int) -> None:
        idx = len(self.bits)
        bit = 1 << idx
        bl = ab = inc = 0
        for j, old in enumerate(self.bits):
            jbit = 1 << j
            if old & new == old:
                bl |= jbit
                self.above[j] |= bit
            elif new & old == new:
                ab |= jbit
                self.below[j] |= bit
            else:
                inc |= jbit
                self.incomp[j] |= bit
        self.bits.append(new)
        self.below.append(bl)
        self.above.append(ab)
        self.incomp.append(inc)
        if self._q is not None:
            # a blocked set stays blocked, and a new copy in the family plus
            # new and t passes through both
            rest = self.open[-1] & ~(1 << new)
            self.open.append(rest ^ self.completing_sets(self._q, rest, through=idx))

    def pop(self) -> None:
        idx = len(self.bits) - 1
        keep = (1 << idx) - 1
        self.bits.pop()
        for row in (self.below, self.above, self.incomp):
            row.pop()
            for j in range(idx):
                row[j] &= keep
        if self._q is not None:
            self.open.pop()

    def _steps(self, q: PosetSpec, forced: tuple[int, ...] = ()):
        """``_search_plan(q, forced)`` bound to this index: per step the
        element, its (earlier element, relation bitsets) checks, and the
        previous element of its twin chain or -1."""
        order, checks, prev = _search_plan(q, forced)
        # indexed by relation code: _NONE, _BELOW, _ABOVE
        tables = (self.incomp, self.below, self.above)
        return [
            (x, [(y, tables[r]) for y, r in checks[d]], prev[d])
            for d, x in enumerate(order)
        ]

    def _walks(self, q: PosetSpec, through: bool):
        """The walks of ``completing_sets``, cached: per walk the fixed
        elements (p, then the new member's element when ``through``), the
        relation code of p to the last of them, and the steps after them,
        each without its check against p and with the relation code of p to
        its element."""
        walks = self._plans.get((q, through))
        if walks is None:
            rel, _, heads, pairs = _poset_tables(q)
            walks = self._plans[q, through] = [
                (f, rel[f[0]][f[-1]], [
                    (x, [(y, table) for y, table in checks if y != f[0]], prev, rel[f[0]][x])
                    for x, checks, prev in self._steps(q, f)[len(f):]
                ])
                for f in (pairs if through else [(p,) for p in heads])
            ]
        return walks

    def search(self, q: PosetSpec, forced_index: int | None = None) -> list[int] | None:
        """Assignment of poset elements to member indices, or None. When
        ``forced_index`` is given, that member appears in the image."""
        m = q.size
        if m > len(self.bits):
            return None
        members = (1 << len(self.bits)) - 1
        assign = [-1] * m

        def backtrack(steps, depth: int, used: int) -> bool:
            if depth == m:
                return True
            x, checks, prev = steps[depth]
            cand = members & ~used
            for y, table in checks:
                cand &= table[assign[y]]
            if prev >= 0:  # only indices above the previous twin's
                cand &= -(2 << assign[prev])
            while cand:
                low = cand & -cand
                cand ^= low
                assign[x] = low.bit_length() - 1
                if backtrack(steps, depth + 1, used | low):
                    return True
            return False

        if forced_index is None:
            found = backtrack(self._steps(q), 0, 0)
        else:  # the forced element takes the forced member; the walk starts after it
            found = False
            for p in _poset_tables(q)[2]:
                assign[p] = forced_index
                found = backtrack(self._steps(q, (p,)), 1, 1 << forced_index)
                if found:
                    break
        del backtrack  # it refers to itself; unbound, it leaves no garbage cycle
        return list(assign) if found else None

    def completing_sets(self, q: PosetSpec, targets: int, through: int | None = None) -> int:
        """The sets among ``targets`` whose addition creates a copy of ``q``
        through them, found in one pass over completion regions.

        Sets are bitmaps over all 2^n subsets (bit s for subset s), and
        ``targets`` must hold no member. For the least element p of each
        twin class of q, one walk lists the copies of q - p among the
        members, with the steps of the search forced at p minus its first
        step. It carries the region of sets that fit at p against the
        images assigned so far: subsets of the image of an element above p,
        supersets of the image of one below p, and sets incomparable to the
        image of the rest. A full copy blocks its region, and a branch ends
        once its region holds no target left unblocked. No member lies in
        the region, so a set in it differs from every image and relates to
        each strictly. Twins relate to p alike, so the twin ordering loses
        no region.

        With ``through``, a member index, only copies through that member
        count. Each walk then also fixes it at the least element x of a twin
        class of q - p, follows the search forced at (p, x) after its first
        two steps, and starts from the region that x's relation to p leaves.
        """
        n = self.n
        bits = self.bits
        members = (1 << len(bits)) - 1

        def span(low: int, free: int) -> int:  # bit s set iff s is low plus part of free
            r = 1 << low
            for i in range(n):
                if free >> i & 1:
                    r |= r << (1 << i)
            return r

        # indexed by the relation code of p to the element: _NONE, _BELOW,
        # _ABOVE; sets incomparable to u, inside u, containing u. Each side
        # is cached per member index for this call
        down, up = (lambda u: span(0, u)), (lambda u: span(u, ~u))
        build = (lambda u: ~(down(u) | up(u)), down, up)
        sides: tuple[dict[int, int], ...] = ({}, {}, {})
        unblocked = targets
        assign = [-1] * q.size

        def walk(steps, depth: int, used: int, region: int) -> None:
            nonlocal unblocked
            if depth == len(steps):
                unblocked &= ~region
                return
            x, checks, prev, code = steps[depth]
            cand = members & ~used
            for y, table in checks:
                cand &= table[assign[y]]
            if prev >= 0:  # only indices above the previous twin's
                cand &= -(2 << assign[prev])
            side = sides[code]
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                fit = side.get(i)
                if fit is None:
                    fit = side[i] = build[code](bits[i])
                fit &= region & unblocked
                if fit:
                    assign[x] = i
                    walk(steps, depth + 1, used | low, fit)

        for fixed, code, steps in self._walks(q, through is not None):
            if not unblocked:
                break
            region, used = unblocked, 0
            if through is not None:
                assign[fixed[1]] = through
                region &= build[code](bits[through])
                used = 1 << through
            if region:
                walk(steps, 0, used, region)
        del walk  # it refers to itself; unbound, it leaves no garbage cycle
        return targets & ~unblocked


@dataclass(frozen=True)
class EmbeddingWitness:
    """Injective assignment of poset elements to family members realising an
    induced copy. ``assignment[i]`` is the image of poset element i."""

    poset: PosetSpec
    assignment: tuple[SubsetMask, ...]

    def image_bits(self) -> frozenset:
        return frozenset(s.bits for s in self.assignment)

    def verify(self, family: SetFamily | None = None) -> bool:
        """Independent relation-by-relation recheck of the witness."""
        m = self.poset.size
        if len(self.assignment) != m:
            return False
        masks = [s.bits for s in self.assignment]
        if len(set(masks)) != m:
            return False
        if family is not None and any(not family.has_mask(b) for b in masks):
            return False
        for x in range(m):
            for y in range(m):
                if x == y:
                    continue
                is_below = masks[x] != masks[y] and masks[x] & masks[y] == masks[x]
                if self.poset.less[x][y] != is_below:
                    return False
        return True

    def to_json_obj(self) -> list[dict]:
        return [
            {"poset_element": self.poset.labels[i], "set": list(s.elements())}
            for i, s in enumerate(self.assignment)
        ]


def _search_witness(index: _FamilyIndex, q: PosetSpec, ground: GroundSet, forced=None):
    """The copy that ``index.search`` finds (through member index ``forced``
    when given) as a witness over ``ground``, or None."""
    assignment = index.search(q, forced)
    if assignment is None:
        return None
    return EmbeddingWitness(q, tuple(SubsetMask(index.bits[i], ground) for i in assignment))


def find_induced_copy(
    family: SetFamily,
    q: PosetSpec,
    required: SubsetMask | None = None,
) -> Optional[EmbeddingWitness]:
    """First induced copy of ``q`` in ``family`` in deterministic search
    order, or None. When ``required`` is given it must be a family member and
    appears in the image of any returned witness."""
    forced = None
    if required is not None:
        if required.ground != family.ground:
            raise UsageError("required member over a different ground set")
        if required.bits not in family:
            raise UsageError(f"required set {required} is not a member of the family")
        forced = family.bit_list.index(required.bits)
    index = _FamilyIndex(family.bit_list, family.ground.n)
    return _search_witness(index, q, family.ground, forced)
