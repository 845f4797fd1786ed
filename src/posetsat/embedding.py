"""Induced-copy search: decide whether a family contains an induced copy of a
poset and produce a checkable witness.

An induced copy is an injective assignment of poset elements to family
members that reproduces the strict order exactly: x below y iff the image of
x is a proper subset of the image of y, and incomparable elements map to
incomparable sets. The search backtracks over poset elements in
comparability-first order: after the forced elements, each step places the
element comparable to the most elements already placed, since a subset or
superset bitset cuts the candidates far more than an incomparability one.
Candidate sets are bitsets over member indices, cut by intersecting
precomputed relation bitsets, so the hot loops run on machine-word
operations. The search checks forward: each node carries, for every later
step, the members that fit against all elements placed so far, and a branch
ends as soon as one of those domains is empty.

Each poset and tuple of forced elements has a cached plan: the search
order and per depth the earlier elements whose relation bitsets constrain
the candidate; the completion walks follow the same order. Twins, elements
with identical relation rows (such as the bottoms or the tops of
``K_{s,t}``), must take ascending member indices in search order; forced
elements are left out of their twin chains. The ordering changes no
witness: swapping two out-of-order twins gives another copy that comes
earlier in search order, so the first copy found already has its twins in
ascending order. A forced search tries the forced member only at the least
element of each twin class.

The index can also track one poset: it keeps the bitmap of the missing sets
whose addition keeps the family free, and a family is saturated exactly
when that bitmap is empty. Tracking holds three region bitmaps per member,
built when the member joins: the sets incomparable to it, inside it and
containing it. It binds the completion walks once, when the family plus one
set first has room for a copy. Each append pushes the new member's regions
and the next bitmap, found by completion walks through the new member, and
each pop pops them. An untracked index, as a plain copy search uses, holds
no regions.

One completion walk, ``_completing_sets``, serves every caller. It runs
over a member bitset and walks bound to relation tables and regions: the
index binds it to member indices, and the solver's walk for small n to sets
indexed by mask, where one table of the Boolean lattice serves as both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import and_
from typing import Optional, Sequence

from .core import GroundSet, PosetSpec, SetFamily, SubsetMask
from .errors import UsageError

_BELOW, _ABOVE, _NONE = 1, 2, 0


@lru_cache(maxsize=None)
def _poset_tables(q: PosetSpec):
    """Relation codes, the least element of each twin class for a poset,
    and the pairs (p, x) of such a class head p and the least element x of
    a twin class of q - p.

    A forced search and ``completing_sets`` place the forced member or the
    new set only at these class heads, and a completion walk through a new
    member places it only at such an x. That loses nothing: twins relate to
    every other element alike and to each other not at all, so swapping
    the images of two twins turns a copy with a given set at one into a
    copy with that set at the other."""
    m = q.size
    rel = [[_NONE] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            if q.less[a][b]:
                rel[a][b] = _BELOW
                rel[b][a] = _ABOVE
    rel = tuple(tuple(row) for row in rel)
    heads = tuple(x for x, row in enumerate(rel) if rel.index(row) == x)
    pairs = tuple(
        (p, x) for p in heads for x in range(m)
        if x != p and x == next(y for y in range(m) if y != p and rel[y] == rel[x])
    )
    return rel, heads, pairs


@lru_cache(maxsize=None)
def _search_plan(q: PosetSpec, forced: tuple[int, ...]):
    """Search order, per-depth relation checks and twin chains for one search
    of ``q`` with the ``forced`` elements placed first, in the given order.

    After them, each step takes the unplaced element comparable to the most
    placed ones; ties go to the element comparable to the most elements of
    q, then to the smaller label. So the bottoms and tops of ``K_{3,3}``
    alternate, 0, 3, 1, 4, 2, 5, and each step after the first must fit at
    least one subset or superset relation. ``checks[d]`` lists (earlier
    element, relation code) pairs that the candidate at depth d must
    satisfy; ``prev[d]`` is the previous element of its twin class in
    search order, or -1. Forced elements are left out of their twin chains:
    swapping one with a twin would move its member.
    """
    rel = _poset_tables(q)[0]
    rest = sorted(
        (x for x in range(q.size) if x not in forced),
        key=lambda x: (-sum(r != _NONE for r in rel[x]), x),
    )
    order = []
    placed = [0] * q.size  # per element, the placed elements comparable to it

    def place(x: int) -> None:
        order.append(x)
        for y, r in enumerate(rel[x]):
            placed[y] += r != _NONE

    for x in forced:
        place(x)
    while rest:  # max keeps the first of equals, so ties go by rest's order
        x = max(rest, key=placed.__getitem__)
        rest.remove(x)
        place(x)
    order = tuple(order)
    checks = tuple(
        tuple((y, rel[x][y]) for y in order[:d]) for d, x in enumerate(order)
    )
    last: dict[tuple[int, ...], int] = {}
    prev = [-1] * len(forced)
    for x in order[len(forced):]:
        prev.append(last.get(rel[x], -1))
        last[rel[x]] = x
    return order, checks, tuple(prev)


def _regions(u: int, n: int) -> tuple[int, int, int]:
    """Bitmaps over all 2^n subsets (bit s for subset s) of the sets
    incomparable to ``u``, inside it and containing it. Indexed by relation
    code (_NONE, _BELOW, _ABOVE), they hold the sets that fit at an element
    p against an element with image ``u`` that p is incomparable to, below
    or above. The first is negative: every bit from 2^n up is set."""
    down, up = 1, 1 << u
    for i in range(n):
        if u >> i & 1:
            down |= down << (1 << i)
        else:
            up |= up << (1 << i)
    return ~(down | up), down, up


class _FamilyIndex:
    """Mutable search index over a duplicate-free list of subset masks.

    Per member index i it keeps bitsets (ints over member indices) of the
    members strictly below, strictly above, and incomparable. Append and pop
    change these lists in place, so the walks bound to them stay valid for
    the lifetime of the index.

    ``track(q)`` on a q-free family builds ``regions[i]``, the three
    ``_regions`` bitmaps of member i, and binds the completion walks for q
    once a copy of q through a new set is possible. Then
    ``open[-1]`` is the bitmap over all 2^n subsets of the missing sets
    whose addition keeps the family q-free, so the family is q-saturated
    exactly when it is 0. Each append pushes the new member's regions and
    the next bitmap, and each pop pops them; while tracking, only sets in
    ``open[-1]`` may be appended. An untracked index builds no regions.
    """

    __slots__ = ("n", "bits", "below", "above", "incomp", "regions", "open",
                 "_q", "_walks")

    def __init__(self, bits: Sequence[int], n: int):
        self.n = n
        self.bits: list[int] = []
        self.below: list[int] = []
        self.above: list[int] = []
        self.incomp: list[int] = []
        self._q: PosetSpec | None = None
        for b in bits:
            self.append(b)

    def track(self, q: PosetSpec) -> None:
        """Keep ``open`` for q from now on. Builds every member's regions and
        runs one completion pass over every missing set. The completion
        walks are bound on the first pass that a copy of q can reach: while
        the family plus one set has fewer than |q| members, no set is
        blocked and no walk is bound."""
        self.regions = [_regions(u, self.n) for u in self.bits]
        self._q = q
        self._walks = None
        missing = (1 << (1 << self.n)) - 1 - sum(1 << b for b in self.bits)
        self.open: list[int] = [missing ^ self.completing_sets(missing)]

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
            self.regions.append(_regions(new, self.n))
            rest = self.open[-1] & ~(1 << new)
            self.open.append(rest ^ self.completing_sets(rest, through=idx))

    def pop(self) -> None:
        idx = len(self.bits) - 1
        keep = (1 << idx) - 1
        self.bits.pop()
        for row in (self.below, self.above, self.incomp):
            row.pop()
            for j in range(idx):
                row[j] &= keep
        if self._q is not None:
            self.regions.pop()
            self.open.pop()

    def _ahead(self, q: PosetSpec, forced: tuple[int, ...]):
        """``_bind_steps(q, forced)`` over this index's relation bitsets,
        turned forward for ``search``: per step its
        element; per member i the relation bitsets of i that the checks of
        the later steps against this element read, in step order; and the
        offset among the later steps of the next element of its twin chain,
        or -1."""
        steps = _bind_steps(q, forced, (self.incomp, self.below, self.above))
        ahead = []
        for d, (x, _, _) in enumerate(steps):
            later = steps[d + 1:]
            tables = [checks[d][1] for _, checks, _ in later]
            # the last step cuts no domain
            rows = list(zip(*tables)) if tables else [()] * len(self.bits)
            twin = next((k for k, (_, _, prev) in enumerate(later) if prev == x), -1)
            ahead.append((x, rows, twin))
        return ahead

    def search(self, q: PosetSpec, forced_index: int | None = None) -> list[int] | None:
        """Assignment of poset elements to member indices, or None. When
        ``forced_index`` is given, that member appears in the image.

        A node at depth d holds the domains of steps d onward: the members
        that fit against every element placed so far. Placing member i at
        step d cuts each later domain by the relation bitset of i that the
        later element's relation to this one picks, and the next twin's to
        indices above i. A relation bitset of i never holds i, so no domain
        holds a used member, and the branch ends when a domain is empty.
        That drops only members that lead to no copy, so the search still
        returns the first copy in search order."""
        m = q.size
        if m > len(self.bits):
            return None
        members = (1 << len(self.bits)) - 1
        assign = [-1] * m

        def backtrack(ahead, depth: int, domains: list[int]) -> bool:
            if depth == m:
                return True
            x, rows, twin = ahead[depth]
            cand, rest = domains[0], domains[1:]
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                later = list(map(and_, rest, rows[i]))
                if twin >= 0:  # only indices above this twin's
                    later[twin] &= -(2 << i)
                if all(later):
                    assign[x] = i
                    if backtrack(ahead, depth + 1, later):
                        return True
            return False

        found = False
        # a forced search tries the forced member at each class head in turn
        for p in (None,) if forced_index is None else _poset_tables(q)[1]:
            forced = () if p is None else (p,)
            domains = [members] * m
            if forced:
                domains[0] = 1 << forced_index
            found = backtrack(self._ahead(q, forced), 0, domains)
            if found:
                break
        del backtrack  # it refers to itself; unbound, it leaves no garbage cycle
        return list(assign) if found else None

    def completing_sets(self, targets: int, through: int | None = None) -> int:
        """The sets among ``targets`` (which must hold no member) whose
        addition creates a copy of the tracked poset q through them; with
        ``through``, a member index, only copies through that member count.
        ``_completing_sets`` over the member indices, with each member's
        relation bitsets and regions."""
        q = self._q
        if len(self.bits) + 1 < q.size:
            return 0
        if self._walks is None:
            self._walks = _completion_walks(q, (self.incomp, self.below, self.above))
        members = (1 << len(self.bits)) - 1
        return _completing_sets(self._walks, q.size, members, self.regions, targets, through)


def _bind_steps(q: PosetSpec, forced: tuple[int, ...], tables):
    """``_search_plan(q, forced)`` bound to ``tables``, three lists indexed by
    relation code (_NONE, _BELOW, _ABOVE) that map an image to the bitset of
    the images that relation allows: per step the element, its (earlier
    element, table) checks, and the previous element of its twin chain or
    -1."""
    order, checks, prev = _search_plan(q, forced)
    return [
        (x, [(y, tables[r]) for y, r in checks[d]], prev[d])
        for d, x in enumerate(order)
    ]


def _completion_walks(q: PosetSpec, tables):
    """The walks of ``_completing_sets`` for q bound to ``tables`` (as in
    ``_bind_steps``): the walks over every missing set and the walks through
    one member. Per walk the fixed elements (a class head p, or a pair
    (p, x) of ``_poset_tables``), the relation code of p to the last of
    them, and the steps after them, each without its check against p and
    with the relation code of p to its element."""
    rel, heads, pairs = _poset_tables(q)

    def bind(fixed):
        return fixed, rel[fixed[0]][fixed[-1]], [
            (x, [(y, table) for y, table in checks if y != fixed[0]], prev, rel[fixed[0]][x])
            for x, checks, prev in _bind_steps(q, fixed, tables)[len(fixed):]
        ]

    return [bind((p,)) for p in heads], [bind(f) for f in pairs]


def _completing_sets(walks, size: int, members: int, regions, targets: int,
                     through: int | None = None) -> int:
    """The sets among ``targets`` whose addition to the family ``members``
    creates a copy of a poset q of ``size`` elements through them, found in
    one pass over completion regions.

    Members are the bits of ``members``; ``walks`` comes from
    ``_completion_walks`` over tables indexed by member, and ``regions[i]``
    holds the three ``_regions`` bitmaps of member i. Sets are bitmaps over
    all 2^n subsets (bit s for subset s), and ``targets`` must hold no
    member. For the least element p of each twin class of q, one walk lists
    the copies of q - p among the members, with the steps of the search
    forced at p minus its first step. It carries the region of sets that fit
    at p against the images assigned so far: subsets of the image of an
    element above p, supersets of the image of one below p, and sets
    incomparable to the image of the rest. A full copy blocks its region,
    and a branch ends once its region holds no target left unblocked. No
    member lies in the region, so a set in it differs from every image and
    relates to each strictly. Twins relate to p alike, so the twin ordering
    loses no region.

    With ``through``, a member, only copies through that member count. Each
    walk then also fixes it at the least element x of a twin class of
    q - p, follows the search forced at (p, x) after its first two steps,
    and starts from the region that x's relation to p leaves.
    """
    unblocked = targets
    assign = [-1] * size

    def walk(steps, depth: int, used: int, region: int) -> None:
        nonlocal unblocked
        if depth == len(steps):
            unblocked &= ~region
            return
        x, checks, prev, code = steps[depth]
        cand = members & ~used
        for y, table in checks:
            cand &= table[assign[y]]
        if prev >= 0:  # only members above the previous twin's
            cand &= -(2 << assign[prev])
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            fit = regions[i][code] & region & unblocked
            if fit:
                assign[x] = i
                walk(steps, depth + 1, used | low, fit)

    for fixed, code, steps in walks[0] if through is None else walks[1]:
        if not unblocked:
            break
        region, used = unblocked, 0
        if through is not None:
            assign[fixed[1]] = through
            region &= regions[through][code]
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
