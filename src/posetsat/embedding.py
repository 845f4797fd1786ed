"""Induced-copy search: decide whether a family contains an induced copy of a
poset and produce a checkable witness.

An induced copy is an injective assignment of poset elements to family
members that reproduces the strict order exactly: x below y iff the image of
x is a proper subset of the image of y, and incomparable elements map to
incomparable sets. The search backtracks over poset elements in descending
constraint order; candidate sets are pruned by intersecting precomputed
relation bitsets over member indices, so the hot loops run on machine-word
operations.

Each (poset, forced element) pair has a cached plan: the search order, and
per depth the earlier elements whose relation bitsets constrain the
candidate, so a node touches only assigned elements. Twins, elements with
identical relation rows (such as the bottoms or the tops of ``K_{s,t}``),
must take ascending member indices in search order; a forced element is
left out of its twin chain. The ordering changes no witness: swapping two
out-of-order twins gives another copy that comes earlier in search order,
so the first copy found already has its twins in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import GroundSet, PosetSpec, SetFamily, SubsetMask, _order_isomorphisms
from .errors import UsageError

_BELOW, _ABOVE, _NONE = 1, 2, 0


def _automorphism_orbits(q: PosetSpec) -> tuple[int, ...]:
    """One representative element per automorphism orbit: a copy through a
    required member exists at some position iff it exists at the orbit's
    representative, so the forced search only tries representatives.

    Twins (elements with identical relation rows) always share an orbit, so
    the automorphisms are taken on the quotient by twin classes, one element
    per class, and only those that keep class sizes: each lifts to q by
    mapping classes onto classes, and every automorphism of q arises so."""
    m = q.size
    classes: dict[tuple, list[int]] = {}
    for x in range(m):
        column = tuple(q.less[y][x] for y in range(m))
        classes.setdefault((q.less[x], column), []).append(x)
    members = list(classes.values())
    heads = [c[0] for c in members]
    quotient = PosetSpec(
        len(heads), tuple(tuple(q.less[a][b] for b in heads) for a in heads)
    )
    # the orbit of class c is {iso[c]} over all size-keeping automorphisms;
    # keep the least element of its classes
    low = list(heads)
    for iso in _order_isomorphisms(quotient, quotient):
        if all(len(members[c]) == len(members[d]) for c, d in enumerate(iso)):
            for c, d in enumerate(iso):
                low[c] = min(low[c], heads[d])
    return tuple(sorted(set(low)))


@lru_cache(maxsize=None)
def _poset_tables(q: PosetSpec):
    """Relation codes, search order, and automorphism orbit representatives
    for a poset."""
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
    return rel, order, _automorphism_orbits(q)


@lru_cache(maxsize=None)
def _search_plan(q: PosetSpec, forced: int | None):
    """Search order, per-depth relation checks and twin chain for one search
    of ``q``, unforced or with ``forced`` placed first.

    ``checks[d]`` lists (earlier element, relation code) pairs that the
    candidate at depth d must satisfy; ``prev[d]`` is the previous element
    of its twin class in search order, or -1. The forced element is left out
    of its twin chain: swapping it with a twin would move the forced member.
    """
    rel, order, _ = _poset_tables(q)
    if forced is not None:
        order = (forced,) + tuple(x for x in order if x != forced)
    checks = tuple(
        tuple((y, rel[x][y]) for y in order[:d]) for d, x in enumerate(order)
    )
    last: dict[tuple[int, ...], int] = {}
    prev = []
    for x in order:
        if x == forced:
            prev.append(-1)
        else:
            prev.append(last.get(rel[x], -1))
            last[rel[x]] = x
    return order, checks, tuple(prev)


class _FamilyIndex:
    """Mutable search index over a duplicate-free list of subset masks.

    Per member index i it keeps bitsets (ints over member indices) of the
    members strictly below, strictly above, and incomparable. Append/pop
    make probing family-plus-one-set cheap.
    """

    __slots__ = ("n", "bits", "below", "above", "incomp")

    def __init__(self, bits: Sequence[int], n: int):
        self.n = n
        self.bits: list[int] = []
        self.below: list[int] = []
        self.above: list[int] = []
        self.incomp: list[int] = []
        for b in bits:
            self.append(b)

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

    def pop(self) -> None:
        idx = len(self.bits) - 1
        keep = (1 << idx) - 1
        self.bits.pop()
        self.below.pop()
        self.above.pop()
        self.incomp.pop()
        for row in (self.below, self.above, self.incomp):
            for j in range(idx):
                row[j] &= keep

    def _steps(self, q: PosetSpec, forced: int | None):
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
            return list(assign) if backtrack(self._steps(q, None), 0, 0) else None
        # the forced element takes the forced member; the walk starts after it
        for p in _poset_tables(q)[2]:
            assign[p] = forced_index
            if backtrack(self._steps(q, p), 1, 1 << forced_index):
                return list(assign)
        return None

    def probe_with(self, q: PosetSpec, new: int) -> bool:
        """True iff the family plus ``new`` contains a copy through ``new``."""
        self.append(new)
        try:
            return self.search(q, forced_index=len(self.bits) - 1) is not None
        finally:
            self.pop()

    def completing_sets(self, q: PosetSpec, targets: int) -> int:
        """The sets among ``targets`` whose addition creates a copy of ``q``
        through them, in one pass instead of one ``probe_with`` per set.

        Sets are bitmaps over all 2^n subsets (bit s for subset s), and
        ``targets`` must hold no member. For each orbit representative p of
        q, one walk lists the copies of q - p among the members, with the
        steps of the search forced at p minus its first step. It carries the
        region of sets that fit at p against the images assigned so far:
        subsets of the image of an element above p, supersets of the image
        of one below p, and sets incomparable to the image of the rest. A
        full copy blocks its region, and a branch ends once its region holds
        no target left unblocked. No member lies in the region, so a set in
        it differs from every image and relates to each strictly. Twins
        relate to p alike, so the twin ordering loses no region.
        """
        rel, _, orbit_reps = _poset_tables(q)
        n = self.n
        bits = self.bits
        members = (1 << len(bits)) - 1

        def up(u: int) -> int:  # bit s set iff s contains u
            r = 1 << u
            for i in range(n):
                if not u >> i & 1:
                    r |= r << (1 << i)
            return r

        def down(u: int) -> int:  # bit s set iff s lies inside u
            r = 1
            for i in range(n):
                if u >> i & 1:
                    r |= r << (1 << i)
            return r

        # indexed by the relation code of p to the element: _NONE, _BELOW,
        # _ABOVE; each side is cached per member index for this call
        build = (lambda u: ~(up(u) | down(u)), down, up)
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

        for p in orbit_reps:
            if not unblocked:
                break
            steps = [
                (x, [(y, table) for y, table in checks if y != p], prev, rel[p][x])
                for x, checks, prev in self._steps(q, p)[1:]
            ]
            walk(steps, 0, 0, unblocked)
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
