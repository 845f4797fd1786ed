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
operations. The search and the completion walks check forward: each node
carries, for every later step, the members that fit against all elements
placed so far, and a branch ends as soon as one of those domains is empty,
or holds fewer members than its twin class has elements left to place.

Each poset and tuple of forced elements has a plan, the search order: an
order of the poset's elements, the forced ones first. It and the order of
each completion walk grow by one greedy rule (``_grow``): after the fixed
elements, each step takes the element comparable to the most placed ones
that count. The two plans differ only in their keys: which fixed elements
count and how ties break. The relation codes of ``_poset_tables`` say
which relation bitset of each earlier element cuts the candidates of a
later one. Twins, elements with identical relation rows (such as the
bottoms or the tops of ``K_{s,t}``), must take ascending member indices in
search order (``_twins``). The ordering changes no witness: swapping two
out-of-order twins gives another copy that comes earlier in search order,
so the first copy found already has its twins in ascending order. A forced
search tries the forced member only at the least element of each twin
class.

Each index keeps, per member, bitsets of the members strictly below it,
strictly above it and incomparable to it, and per element of the ground set
the column of members that hold it. A new member's rows below and above are
ANDs of columns, and only the members comparable to it change rows: the
incomparable row of member i is stored as the complement of the other two
and of i itself, so it is negative and already holds every index from the
number of members up. Every reader ANDs a row with a bitset of members.

This module alone builds tracked families (``_tracked_family``): families
that keep the bitmap of the missing sets whose addition keeps them free, so
that one is saturated exactly when that bitmap is empty. Up to
``_LATTICE_LIMIT`` a ``_LatticeFamily`` indexes sets by mask on fixed
tables of the Boolean lattice; above it the index tracks the poset and
holds three region bitmaps per member, built when the member joins: the
sets incomparable to it, inside it and containing it. Each append pushes
the next bitmap, found by completion walks through the new member, and each
pop pops it. An untracked index, as a plain copy search uses, holds no
regions. Up to the limit the freeness search of a report or closure runs
on the lattice tables too (``_witness_or_tracked``), so only a family
that holds a copy builds an index, for its witness.

One function, ``_completion_pass``, runs every completion pass of either
tracker, behind one guard that blocks no set while no copy can form. Its
walks are planned around the hole: the new set p is not a member, so it
cuts the region, and the candidates only once the region holds one set
(``_completion_plan``). The walks hold relation codes, not bitsets, so
each of their two groups, over every missing set and through one member,
is built once per poset and cached (``_completion_walks``), on the first
pass that runs the group, and runs over the relation tables, regions and
pins of either tracker. A pin table gives the relation rows of a set
outside the family: the lattice's rows of each mask, or rows that a
tracked index reads off its element columns on first use in a pass.

Every search plan and completion walk runs as a kernel: Python source
generated from an element order, with one loop per step and the placed
members in locals, compiled once per source text. Plans of one shape share
a kernel, and a plan longer than CPython's limit on nested loops chains
kernels. Walks compile group by group, on first use. A walk's branch ends
once a later step's domain is empty, and its loop ends once its region,
kept to the sets not yet blocked, is empty. A region of one set pins the
hole at that set, so at the head of its loop the set's relation rows cut
the domains still to place. On the lattice, where a pin is a table read,
a last loop whose region holds no more sets than its domain holds members
tests each set of the region instead of each member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence

from .core import GroundSet, PosetSpec, SetFamily, SubsetMask
from .errors import UsageError

_BELOW, _ABOVE, _NONE = 1, 2, 0


@lru_cache(maxsize=None)
def _poset_tables(q: PosetSpec):
    """Relation codes, the least element of each twin class for a poset,
    and the pairs (p, x) of such a class head p and the least element x of
    a twin class of q - p.

    A forced search and ``_completion_pass`` place the forced member or the
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
def _height(q: PosetSpec) -> int:
    """The number of elements in a longest chain of q. The strict down-set
    of an element grows along every chain, so ordering by its size lists
    each element after every element below it."""
    below = [[y for y in range(q.size) if q.less[y][x]] for x in range(q.size)]
    height = [0] * q.size
    for x in sorted(range(q.size), key=lambda x: len(below[x])):
        height[x] = 1 + max((height[y] for y in below[x]), default=0)
    return max(height)


def _grow(q: PosetSpec, fixed: tuple[int, ...], counted: tuple[int, ...], key) -> tuple[int, ...]:
    """The elements of q in the order that grows from ``fixed``: each step
    takes the remaining element x with the least ``key(placed, x)``, where
    ``placed[x]`` counts the elements of ``counted`` and those taken since
    that are comparable to x."""
    rel = _poset_tables(q)[0]
    placed = [sum(rel[x][y] != _NONE for y in counted) for x in range(q.size)]
    order, rest = list(fixed), [x for x in range(q.size) if x not in fixed]
    while rest:
        x = min(rest, key=lambda y: key(placed, y))
        rest.remove(x)
        order.append(x)
        for y, r in enumerate(rel[x]):
            placed[y] += r != _NONE
    return tuple(order)


def _search_plan(q: PosetSpec, forced: tuple[int, ...]) -> tuple[int, ...]:
    """The search order of ``q`` with the ``forced`` elements placed first,
    in the given order.

    After them, each step takes the unplaced element comparable to the most
    placed ones; ties go to the element comparable to the most elements of
    q, then to the smaller label. So the bottoms and tops of ``K_{3,3}``
    alternate, 0, 3, 1, 4, 2, 5, and each step after the first must fit at
    least one subset or superset relation.
    """
    degree = [sum(r != _NONE for r in row) for row in _poset_tables(q)[0]]
    return _grow(q, forced, forced, lambda placed, x: (-placed[x], -degree[x], x))


def _twins(q: PosetSpec, order: Sequence[int], fixed: int) -> list[int]:
    """Per position of ``order``, the position of the previous element of
    its twin class, or -1, with the first ``fixed`` positions left out of
    every chain. A kernel places each element at a member index above that
    of its previous twin. A fixed element stays out: its image is pinned
    (the forced member, the set under test or the member walked through),
    and swapping it with a twin would move that image."""
    rel = _poset_tables(q)[0]
    last: dict[tuple[int, ...], int] = {}
    twins = [-1] * len(order)
    for d in range(fixed, len(order)):
        twins[d] = last.get(rel[order[d]], -1)
        last[rel[order[d]]] = d
    return twins


# CPython 3.10 to 3.12 refuse more than 20 statically nested blocks in one
# function and 3.13 more than 21, so a kernel with more loops chains
# functions of this many each
_LOOPS = 20
_KERNELS: dict[str, object] = {}  # source -> its first function


def _compile(lines: list[str]):
    """The function ``_k0`` that the source ``lines`` defines; later ones,
    ``_k1`` and on, each continue the one before. Each source is compiled
    once, on first use, so plans of one shape share a kernel. A source
    holds names, operators and integers only, never a label or other
    string from a poset."""
    source = "\n".join(lines)
    kernel = _KERNELS.get(source)
    if kernel is None:
        namespace: dict = {}
        exec(source, namespace)
        kernel = _KERNELS[source] = namespace["_k0"]
    return kernel


def _pull(pad: str, cand: str, image: str) -> list[str]:
    """Source lines that loop over the bits of ``cand``, lowest first, with
    the member index in ``image``."""
    return [f"{pad}while {cand}:", f"{pad}    b = {cand} & -{cand}", f"{pad}    {cand} ^= b",
            f"{pad}    {image} = b.bit_length() - 1"]


def _cut(q: PosetSpec, order: Sequence[int], k: int, name: str, base: str, row: str) -> str:
    """The test, as source, that cuts the domain ``base`` of the element at
    position k of ``order`` by the bitset ``row`` into ``name``: the cut must
    hold as many members as the element's twin class has elements from k
    on, since they all take distinct members of it."""
    rel = _poset_tables(q)[0]
    left = sum(rel[order[j]] == rel[order[k]] for j in range(k, len(order)))
    cut = f"({name} := {base} & {row})"
    return f"{cut}.bit_count() >= {left}" if left > 1 else cut


def _forward(q: PosetSpec, order: Sequence[int], twins: list[int], d: int, domain) -> list[str]:
    """The tests, as source, that check forward once the element at
    position d of ``order`` has member ``i<d>``: each later element whose
    twins before it are all placed has its domain ``domain(d, k)`` cut, into
    ``v<d + 1>_<k>``, by the relation bitset of ``i<d>`` that its relation
    to the placed element picks (``_cut``).

    A later twin carries no domain while its previous twin is unplaced, as
    that twin's domain holds its own. The next twin of the placed element
    takes the candidates still left in ``v<d>_<d>``: they lie above
    ``i<d>``, since each loop takes the lowest first. So every test drops
    only branches that hold no copy."""
    rel = _poset_tables(q)[0]
    return [_cut(q, order, k, f"v{d + 1}_{k}", f"v{d}_{d}" if twins[k] == d else domain(d, k),
                 f"t{rel[order[k]][order[d]]}[i{d}]")
            for k in range(d + 1, len(order)) if twins[k] <= d]


@lru_cache(maxsize=None)
def _search_kernel(q: PosetSpec, forced: tuple[int, ...]):
    """The order of ``_search_plan(q, forced)`` and its search compiled into
    nested loops: ``kernel(incomp, below, above, members, first)`` returns
    the member index of each element in order, or None, where ``first`` is
    the domain of the first step and ``members`` that of the others.

    Loop d places the element at depth d, its index in ``i<d>``, and
    ``v<d>_<k>`` holds the domain of step k at depth d (``_forward``). The
    last step takes the least member of its domain, which is never empty
    there. A search of more than ``_LOOPS`` + 1 steps chains kernels, each
    handing the next the domains of the steps it leaves."""
    order = _search_plan(q, forced)
    twins, m = _twins(q, order, len(forced)), len(order)

    def domain(d: int, k: int) -> str:
        return "members" if d == 0 < k else f"v{d}_{k}"

    def params(d: int) -> str:  # of the kernel that starts at depth d
        domains = ["members", "v0_0"] if d == 0 else [
            domain(d, k) for k in range(d, m) if twins[k] < d]
        return ", ".join(["t0, t1, t2"] + domains)

    lines = []
    for c, start in enumerate(range(0, max(m - 1, 1), _LOOPS)):
        end = min(start + _LOOPS, m - 1)
        lines.append(f"def _k{c}({params(start)}):")
        pad = "    "
        for d in range(start, end):
            lines += _pull(pad, domain(d, d), f"i{d}")
            lines.append(f"{pad}    if {' and '.join(_forward(q, order, twins, d, domain))}:")
            pad += "        "
        images = "".join(f"i{d}, " for d in range(start, end))
        if end == m - 1:
            last = domain(end, end)
            lines.append(f"{pad}return ({images}({last} & -{last}).bit_length() - 1,)")
        else:
            lines += [f"{pad}found = _k{c + 1}({params(end)})",
                      f"{pad}if found is not None:", f"{pad}    return ({images}) + found"]
        lines.append("    return None")
    return order, _compile(lines)


def _regions(u: int, n: int) -> tuple[int, int, int]:
    """Bitmaps over all 2^n subsets (bit s for subset s) of the sets
    incomparable to ``u``, strictly inside it and strictly containing it.
    Indexed by relation code (_NONE, _BELOW, _ABOVE), they hold the sets
    that fit at an element p against an element with image ``u`` that p is
    incomparable to, below or above. The first is negative: every bit from
    2^n up is set. No region holds ``u`` itself, so a row of a non-member
    serves as a member's row: a region is always cut to ``unblocked``, which
    lies inside targets that hold no member."""
    down, up = 1, 1 << u
    for i in range(n):
        if u >> i & 1:
            down |= down << (1 << i)
        else:
            up |= up << (1 << i)
    return ~(down | up), down ^ 1 << u, up ^ 1 << u


class _Pins(dict):
    """The pin table of one completion pass over a tracked index: per set s
    outside the family, filled on first use, the members ``members``
    incomparable to s, inside it and containing it, indexed by relation
    code. The members containing s hold every element of s, and those
    inside it no other element. An append changes the rows, so each pass
    builds a table of its own."""

    __slots__ = ("has", "members")

    def __init__(self, has: list[int], members: int):
        super().__init__()
        self.has, self.members = has, members

    def __missing__(self, s: int) -> tuple[int, int, int]:
        sup, outside = self.members, 0
        for e, col in enumerate(self.has):
            if s >> e & 1:
                sup &= col
            else:
                outside |= col
        sub = self.members & ~outside
        row = self[s] = (~(sub | sup), sub, sup)
        return row


class _FamilyIndex:
    """Mutable search index over a duplicate-free list of subset masks.

    Per member index i it keeps bitsets (ints over member indices) of the
    members strictly below, strictly above, and incomparable; ``incomp[i]``
    is ``~(below[i] | above[i] | 1 << i)``, negative, and holds every index
    that no member has yet. Per element e of [n], ``has[e]`` is the bitset
    of the members that hold e. The constructor fills those columns first
    and reads every member's rows below and above off them. Append reads
    the new member's rows the same way and updates the rows of the members
    comparable to it; pop undoes the same. The lists change in place.

    ``track(q)`` on a q-free family builds ``regions[i]``, the three
    ``_regions`` bitmaps of member i. Then ``open[-1]`` is the bitmap over
    all 2^n subsets of the missing sets whose addition keeps the family
    q-free, so the family is q-saturated exactly when it is 0. Each append
    pushes the new member's regions and the next bitmap, and each pop pops
    them; while tracking, only sets in ``open[-1]`` may be appended. Each
    completion pass reads its pins, the rows of sets outside the family,
    off the element columns (``_Pins``). An untracked index builds no
    regions; the copy search, ``cover_edges`` and
    the chevron search of theorems 2 and 3 read untracked ones.
    """

    __slots__ = ("n", "bits", "has", "below", "above", "incomp", "regions", "open", "_blocked")

    def __init__(self, bits: Sequence[int], n: int):
        self.n = n
        self.bits = list(bits)
        self.has = has = [0] * n
        for i, u in enumerate(self.bits):
            for e in range(n):
                if u >> e & 1:
                    has[e] |= 1 << i
        full = (1 << len(self.bits)) - 1
        self.below, self.above, self.incomp = [], [], []
        for i, u in enumerate(self.bits):
            bit = 1 << i
            sup, outside = full, 0
            for e, col in enumerate(has):
                if u >> e & 1:
                    sup &= col
                else:
                    outside |= col
            sub = full & ~outside
            self.below.append(sub ^ bit)
            self.above.append(sup ^ bit)
            self.incomp.append(~(sub | sup))
        self._blocked = None

    def track(self, q: PosetSpec) -> None:
        """Keep ``open`` for q from now on. Builds every member's regions and
        runs one completion pass over every missing set."""
        self.regions = [_regions(u, self.n) for u in self.bits]
        self._blocked = _completion_pass(q, self.n, (self.incomp, self.below, self.above),
                                         self.regions, partial(_Pins, self.has))
        missing = (1 << (1 << self.n)) - 1 - sum(1 << b for b in self.bits)
        self.open: list[int] = [missing ^ self._blocked((1 << len(self.bits)) - 1, missing)]

    def append(self, new: int) -> None:
        idx = len(self.bits)
        bit = 1 << idx
        sup, outside = bit - 1, 0
        for e, col in enumerate(self.has):
            if new >> e & 1:
                sup &= col
                self.has[e] = col | bit
            else:
                outside |= col
        sub = (bit - 1) & ~outside
        self._link(sub, sup, bit)
        self.bits.append(new)
        self.below.append(sub)
        self.above.append(sup)
        self.incomp.append(~(sub | sup | bit))
        if self._blocked is not None:
            # a blocked set stays blocked, and a new copy in the family plus
            # new and t passes through both
            self.regions.append(_regions(new, self.n))
            rest = self.open[-1] & ~(1 << new)
            self.open.append(rest ^ self._blocked((1 << len(self.bits)) - 1, rest, through=idx))

    def pop(self) -> None:
        bit = 1 << (len(self.bits) - 1)
        last = self.bits.pop()
        self.incomp.pop()
        self._link(self.below.pop(), self.above.pop(), bit)
        for e in range(self.n):
            if last >> e & 1:
                self.has[e] ^= bit
        if self._blocked is not None:
            self.regions.pop()
            self.open.pop()

    def _link(self, sub: int, sup: int, bit: int) -> None:
        """Flip ``bit``, the last member's, in the rows of the members
        ``sub`` below it and ``sup`` above it: in their rows above or below
        and in their incomparable rows."""
        incomp = self.incomp
        for row, members in ((self.above, sub), (self.below, sup)):
            while members:
                low = members & -members
                members ^= low
                j = low.bit_length() - 1
                row[j] ^= bit
                incomp[j] ^= bit

    def search(self, q: PosetSpec, forced_index: int | None = None) -> list[int] | None:
        """Assignment of poset elements to member indices, or None. When
        ``forced_index`` is given, that member appears in the image.

        The search runs the kernel of ``_search_kernel``. A node at depth d
        holds the domains of steps d onward: the members that fit against
        every element placed so far. Placing member i at step d cuts each
        later domain by the relation bitset of i that the later element's
        relation to this one picks, and the next twin's to indices above i.
        A relation bitset of i never holds i, so no domain holds a used
        member, and the branch ends when a domain is empty. That drops only
        members that lead to no copy, so the search still returns the first
        copy in search order."""
        m = q.size
        if m > len(self.bits):
            return None
        members = (1 << len(self.bits)) - 1
        # a forced search tries the forced member at each class head in turn
        for p in (None,) if forced_index is None else _poset_tables(q)[1]:
            order, kernel = _search_kernel(q, () if p is None else (p,))
            found = kernel(self.incomp, self.below, self.above, members,
                           members if p is None else 1 << forced_index)
            if found is not None:
                assign = [-1] * m
                for x, i in zip(order, found):
                    assign[x] = i
                return assign
        return None


def _completion_plan(q: PosetSpec, fixed: tuple[int, ...]) -> tuple[int, ...]:
    """The order of one completion walk for q, the ``fixed`` elements first:
    the hole p = ``fixed[0]``, whose image is the set under test, and for a
    walk through one member the element ``fixed[1]`` at that member.

    Each step takes the unplaced element comparable to the most placed
    elements other than p, since only those cut its candidates until the
    region holds one set; ties go to an element comparable to p, which
    cuts the region, then to the element comparable to the fewest elements
    of q, then to the smaller label."""
    rel, p = _poset_tables(q)[0], fixed[0]
    degree = [sum(r != _NONE for r in row) for row in rel]
    return _grow(q, fixed, fixed[1:],
                 lambda placed, x: (-placed[x], rel[p][x] == _NONE, degree[x], x))


def _walk_kernel(q: PosetSpec, order: Sequence[int], fixed: int):
    """The completion walk for q that places ``order`` after its first
    ``fixed`` elements, the hole ``order[0]`` among them, compiled into
    nested loops: ``kernel(members, t0, t1, t2, regions, pins, region_side,
    unblocked, region, *images)`` returns ``unblocked`` less the sets that
    the walk blocks, where ``t0, t1, t2`` are the relation tables,
    ``pins[s]`` the relation rows of a set s outside the family, and
    ``images`` the member indices of the fixed elements other than the
    hole. ``region`` must lie inside ``unblocked``.

    The element at position d of ``order`` but the hole keeps its member
    index in ``i<d>``. The walk checks forward, as the copy search does
    (``_forward``): ``v<d>_<k>`` holds the members left for position k once
    the positions before d are placed, and loop d iterates ``v<d>_<d>``
    with region ``r<d>``, ending once that is empty. Placing a member cuts
    the region by the member's region that the hole's relation picks, and
    each later domain, and the branch goes on only while the region and
    every later domain are nonempty. A relation bitset never holds its own
    member, so the images stay distinct. The fixed images cut the domains
    before the first loop; with none, each starts at ``members``. The last
    loop blocks what its region keeps and drops it from every region of its
    kernel. A walk of more than ``_LOOPS`` steps chains kernels, each
    handing the next its region and later domains and cutting its regions
    to what comes back.

    A region of one set s pins the hole at s, so at the head of each loop
    whose region holds one set, this loop's domain and each later domain it
    carries are cut by the row of ``pins[s]`` that the element's relation
    to the hole picks, and the loop is skipped when a cut fails: a member
    outside that row would only narrow the region to nothing.

    With ``region_side`` true, as on the lattice, where a pin is a table
    read, the last loop takes the smaller side: when its region holds no
    more sets than its domain holds members, it tests each set s of the
    region once, whether the domain meets the row of ``pins[s]`` that the
    last element's relation to the hole picks, and blocks every set that
    passes at once. A pinned last loop is the case of one set. Otherwise,
    as on a tracked index, whose regions can hold thousands of sets, the
    last loop tries its members and counts nothing."""
    rel, twins, m = _poset_tables(q)[0], _twins(q, order, fixed), len(order)
    back = [rel[x][order[0]] for x in order]  # each element's relation to the hole

    def domain(d: int, k: int) -> str:
        return "members" if d < fixed else f"v{d}_{k}"

    def carried(d: int) -> list[int]:  # the positions whose domains loop d holds
        return [k for k in range(d, m) if twins[k] < d]

    def params(d: int) -> str:  # of the kernel that starts at position d
        images = [f"i{k}" for k in range(1, fixed)]
        domains = [domain(d, k) for k in carried(d)]
        return ", ".join([f"members, t0, t1, t2, regions, pins, region_side, unblocked, r{d}"]
                         + (images if d == fixed else domains))

    lines = []
    for c, start in enumerate(range(fixed, max(m, fixed + 1), _LOOPS)):
        end = min(start + _LOOPS, m)
        lines.append(f"def _k{c}({params(start)}):")
        pad = "    "
        if m == fixed:
            lines.append(f"{pad}unblocked &= ~r{fixed}")
        elif c == 0 and fixed > 1:
            lines += [f"{pad}if not ({' and '.join(_forward(q, order, twins, 1, domain))}):",
                      f"{pad}    return unblocked"]
        exits = []  # (pad inside, position) per loop around another
        for d in range(start, end):
            code = rel[order[0]][order[d]]
            if d == 1:
                lines.append(f"{pad}{' = '.join(domain(1, k) for k in carried(1))} = members")
            if d == m - 1:
                # the region side consumes the last region, which no test
                # reads again, and gathers in h the sets a member completes
                lines += [f"{pad}if region_side and r{d}.bit_count() <= v{d}_{d}.bit_count():",
                          f"{pad}    h = 0"]
                lines += _pull(f"{pad}    ", f"r{d}", "s")
                lines += [f"{pad}        if v{d}_{d} & pins[s][{back[d]}]:", f"{pad}            h |= b",
                          f"{pad}    if h:", f"{pad}        unblocked ^= h"]
                lines += [f"{pad}        r{k} ^= h" for k in range(start, d)]
                lines.append(f"{pad}else:")
                pad += "    "
            cuts = [_cut(q, order, k, domain(d, k), domain(d, k), f"pin[{back[k]}]")
                    for k in carried(d)]
            lines += [f"{pad}if r{d} == 1 << (s := r{d}.bit_length() - 1):",
                      f"{pad}    pin = pins[s]",
                      f"{pad}    if not ({' and '.join(cuts)}):", f"{pad}        v{d}_{d} = 0"]
            lines += _pull(pad, f"v{d}_{d}", f"i{d}")
            if d == m - 1:
                lines += [f"{pad}    h = regions[i{d}][{code}] & r{d}",
                          f"{pad}    if h:", f"{pad}        unblocked ^= h"]
                lines += [f"{pad}        r{k} ^= h" for k in range(start, d + 1)]
                lines += [f"{pad}        if not r{d}:", f"{pad}            break"]
            else:
                # the region first, the cheaper cut
                tests = [f"(r{d + 1} := regions[i{d}][{code}] & r{d})"]
                tests += _forward(q, order, twins, d, domain)
                lines.append(f"{pad}    if {' and '.join(tests)}:")
                pad += "        "
                exits.append((pad, d))
        if end < m:
            lines.append(f"{pad}unblocked = _k{c + 1}({params(end)})")
            lines += [f"{pad}r{k} &= unblocked" for k in range(start, end)]
        for inner, d in reversed(exits):
            lines += [f"{inner}if not r{d}:", f"{inner}    break"]
        lines.append("    return unblocked")
    return _compile(lines)


@lru_cache(maxsize=None)
def _completion_walks(q: PosetSpec, group: int):
    """Walk group ``group`` of ``_completion_pass`` for q, compiled on the
    first pass that runs it, as (relation code of the hole to the last
    fixed element, kernel) pairs, every walk in the ``_completion_plan``
    order. Group 0 walks over every missing set, one walk per class head p;
    group 1 walks through one member, one walk per pair (p, x) of
    ``_poset_tables``."""
    rel, heads, pairs = _poset_tables(q)
    if group:
        return tuple((rel[p][x], _walk_kernel(q, _completion_plan(q, (p, x)), 2))
                     for p, x in pairs)
    return tuple((_NONE, _walk_kernel(q, _completion_plan(q, (p,)), 1)) for p in heads)


def _completion_pass(q: PosetSpec, n: int, tables, regions, pins, region_side: bool = False):
    """The completion pass for q over [n] on ``tables``, ``regions`` and
    ``pins``, as a function ``(members, targets, through=None)`` of the sets
    among ``targets`` whose addition to the family ``members`` creates a
    copy of q through them, found in one pass over completion regions.

    Members are the bits of ``members``. ``tables`` holds three lists
    indexed by relation code (_NONE, _BELOW, _ABOVE) that map a member to
    the bitset of the members that relation allows, never the member
    itself, and ``regions[i]`` holds the three ``_regions`` bitmaps of
    member i. ``pins(members)`` gives the pass its pin table: per set s
    outside the family, the three bitsets of the members incomparable to
    s, inside it and containing it, in that order. Sets are bitmaps over
    all 2^n subsets (bit s for subset s), and ``targets`` must hold no
    member. For the least element p of each twin class of q, one walk
    lists the copies of q - p among the members. It carries the region of
    sets that fit at p against the images assigned so far: subsets of the
    image of an element above p, supersets of the image of one below p,
    and sets incomparable to the image of the rest. A full copy blocks its
    region, and a branch ends once its region holds no target left
    unblocked, or once the members left for a later element cannot
    complete a copy, where a region of one set cuts those members by that
    set's relation rows (``_walk_kernel``); with ``region_side``, a last
    loop whose region holds no more sets than its domain holds members
    tests the sets instead of the members. No member lies in the region,
    so a set in it differs from every image and relates to each strictly.
    Twins relate to p alike, so the twin ordering loses no region. Each
    walk runs as its compiled kernel.

    With ``through``, a member, only copies through that member count. Each
    walk then also fixes it at the least element x of a twin class of
    q - p and starts from the region that x's relation to p leaves.

    One guard serves both trackers. No copy of q can form, so no set is
    blocked and no walk of q is planned or compiled, while the family plus
    one set has fewer than |q| members, or when a chain of q is longer
    than the n + 1 sets of a longest chain over [n]."""
    least = q.size - 1 if _height(q) <= n + 1 else (1 << n) + 1  # > any family
    t0, t1, t2 = tables

    def completing(members: int, targets: int, through: int | None = None) -> int:
        if members.bit_count() < least:
            return 0
        unblocked, pin = targets, pins(members)
        if through is not None:
            fixed = regions[through]
            for code, kernel in _completion_walks(q, 1):
                if not unblocked:
                    break
                region = unblocked & fixed[code]
                if region:
                    unblocked = kernel(members, t0, t1, t2, regions, pin, region_side, unblocked,
                                       region, through)
        else:
            for _, kernel in _completion_walks(q, 0):
                if not unblocked:
                    break
                unblocked = kernel(members, t0, t1, t2, regions, pin, region_side, unblocked,
                                   unblocked)
        return targets & ~unblocked

    return completing


# tracked families and freeness searches index sets by mask up to here; the
# tables of n = 10 hold 3 * 2^10 rows of 2^10 bits, and at n = 9 and 10 the
# N sampler runs about a third fewer walk iterations on them than on a
# member index
_LATTICE_LIMIT = 10


@lru_cache(maxsize=None)  # n <= _LATTICE_LIMIT only
def _lattice_tables(n: int):
    """The relation tables, regions and pins of ``_completion_pass`` over
    the subsets of [n] indexed by mask: per subset s its row of the tables,
    the ``_regions`` bitmaps of s, serves as its regions and as its pins in
    every pass. The walks of a poset, cached apart, run over these tables
    for every n, and so does the copy search of ``_lattice_search``."""
    rows = [_regions(s, n) for s in range(1 << n)]
    return tuple(zip(*rows)), rows, lambda members: rows


class _LatticeFamily:
    """A family over [n] that tracks q, with each set indexed by its mask:
    the members are the bits of ``members``, and the relation tables and
    regions are fixed tables of the Boolean lattice, cached per n. Its
    ``open`` stack is that of a tracked ``_FamilyIndex``: it starts from
    one completion pass over the q-free seed ``bits``, and append and pop
    flip one bit and push or pop ``open``. Since the regions of non-members
    are at hand too, a completion pass can run over any superset of the
    family (``hopeless``)."""

    __slots__ = ("bits", "members", "open", "_blocked")

    def __init__(self, n: int, q: PosetSpec, bits: Sequence[int] = ()):
        self._blocked = _completion_pass(q, n, *_lattice_tables(n), region_side=True)
        self.bits = list(bits)
        self.members = sum(1 << s for s in self.bits)
        missing = ((1 << (1 << n)) - 1) ^ self.members
        self.open = [missing ^ self._blocked(self.members, missing)]

    def append(self, new: int) -> None:
        self.bits.append(new)
        self.members |= 1 << new
        rest = self.open[-1] & ~(1 << new)
        self.open.append(rest ^ self._blocked(self.members, rest, through=new))

    def pop(self) -> None:
        self.members ^= 1 << self.bits.pop()
        self.open.pop()

    def hopeless(self, pending: int, later: int) -> bool:
        """True when some set in ``pending`` stays unblocked by every
        family between this one and this one plus ``later``: no copy of q
        through it lies in their union. The pending sets must be open and
        outside ``later``."""
        return self._blocked(self.members | later, pending) != pending


def _tracked_family(n: int, q: PosetSpec, bits: Sequence[int] = ()):
    """The q-free family ``bits`` over [n], tracking q: a ``_LatticeFamily``
    for n <= ``_LATTICE_LIMIT``, else a tracked ``_FamilyIndex``."""
    if n <= _LATTICE_LIMIT:
        return _LatticeFamily(n, q, bits)
    index = _FamilyIndex(bits, n)
    index.track(q)
    return index


@dataclass(frozen=True)
class EmbeddingWitness:
    """Injective assignment of poset elements to family members realising an
    induced copy. ``assignment[i]`` is the image of poset element i."""

    poset: PosetSpec
    assignment: tuple[SubsetMask, ...]

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


def _lattice_search(q: PosetSpec, n: int, members: int) -> list[int] | None:
    """The mask of each element of q in a copy of q among the subsets of
    [n] in the bitmap ``members``, or None: the kernel of
    ``_search_kernel(q, ())`` on the lattice tables, where a member's
    index is its mask, so no index is built."""
    if q.size > members.bit_count():
        return None
    order, kernel = _search_kernel(q, ())
    found = kernel(*_lattice_tables(n)[0], members, members)
    return None if found is None else [s for _, s in sorted(zip(order, found))]


def _witness_or_tracked(family: SetFamily, q: PosetSpec):
    """``(witness, None)`` with the first copy of q in ``family`` that
    ``_FamilyIndex.search`` finds, or ``(None, tracked)`` with the family
    tracking q (``_tracked_family``) when it is q-free.

    Up to ``_LATTICE_LIMIT`` the freeness search runs on the lattice
    (``_lattice_search``), so a free family builds no index; only a family
    with a copy builds one, to find the copy that a search over its member
    indices finds first. Above the limit one index serves the search and
    then tracks q."""
    n, bits = family.ground.n, family.bit_list
    if n <= _LATTICE_LIMIT and _lattice_search(q, n, sum(1 << s for s in bits)) is None:
        return None, _LatticeFamily(n, q, bits)
    index = _FamilyIndex(bits, n)
    witness = _search_witness(index, q, family.ground)
    if witness is not None:
        return witness, None
    index.track(q)
    return None, index


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
