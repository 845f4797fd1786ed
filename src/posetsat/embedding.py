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
the candidate. Twins, elements with identical relation rows (such as the
bottoms or the tops of ``K_{s,t}``), must take ascending member indices in
search order; forced elements are left out of their twin chains. The
ordering changes no witness: swapping two out-of-order twins gives another
copy that comes earlier in search order, so the first copy found already
has its twins in ascending order. A forced search tries the forced member
only at the least element of each twin class.

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
regions.

One completion walk, ``_completing_sets``, serves every caller, behind one
guard (``_completion_pass``) that blocks no set while no copy can form. Its
walks are planned around the hole: the new set p is not a member, so it
cuts the region and never the candidates (``_completion_plan``). The walks
hold relation codes, not bitsets, so they are built once per poset and
cached, on the first pass that passes the guard, and run over the relation
tables and regions of either tracker.

Every search plan and completion walk runs as a kernel: Python source
generated from the plan, with one loop per step and the placed members in
locals, compiled once per source text. Plans of one shape share a kernel,
and a plan longer than CPython's limit on nested loops chains kernels.
Walks compile group by group, on first use, and a walk's loop ends once
its region, kept to the sets not yet blocked, is empty.
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
def _height(q: PosetSpec) -> int:
    """The number of elements in a longest chain of q. The strict down-set
    of an element grows along every chain, so ordering by its size lists
    each element after every element below it."""
    below = [[y for y in range(q.size) if q.less[y][x]] for x in range(q.size)]
    height = [0] * q.size
    for x in sorted(range(q.size), key=lambda x: len(below[x])):
        height[x] = 1 + max((height[y] for y in below[x]), default=0)
    return max(height)


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


# CPython 3.10 to 3.12 refuse more than 20 statically nested blocks in one
# function, so a kernel with more loops chains functions of this many each
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


@lru_cache(maxsize=None)
def _search_kernel(q: PosetSpec, forced: tuple[int, ...]):
    """The order of ``_search_plan(q, forced)`` and its search compiled into
    nested loops: ``kernel(incomp, below, above, members, first)`` returns
    the member index of each element in order, or None, where ``first`` is
    the domain of the first step and ``members`` that of the others.

    Loop d places the element at depth d, its index in ``i<d>``, and
    ``v<d>_<k>`` holds the domain of step k at depth d. The last step takes
    the least member of its domain, which is never empty there. A search of
    more than ``_LOOPS`` + 1 steps chains kernels, each handing the next the
    domains of the steps it leaves."""
    order, checks, prev = _search_plan(q, forced)
    m = len(order)
    depth = {x: d for d, x in enumerate(order)}

    def domain(d: int, k: int) -> str:
        return "members" if d == 0 < k else f"v{d}_{k}"

    def params(d: int) -> str:  # of the kernel that starts at depth d
        domains = ["members", "v0_0"] if d == 0 else [domain(d, k) for k in range(d, m)]
        return ", ".join(["t0, t1, t2"] + domains)

    lines = []
    for c, start in enumerate(range(0, max(m - 1, 1), _LOOPS)):
        end = min(start + _LOOPS, m - 1)
        lines.append(f"def _k{c}({params(start)}):")
        pad = "    "
        for d in range(start, end):
            lines += _pull(pad, domain(d, d), f"i{d}")
            cuts = []
            for k in range(d + 1, m):
                twin = f" & -(2 << i{d})" if prev[k] >= 0 and depth[prev[k]] == d else ""
                cuts.append(f"(v{d + 1}_{k} := {domain(d, k)} & t{checks[k][d][1]}[i{d}]{twin})")
            lines.append(f"{pad}    if {' and '.join(cuts)}:")
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
    them; while tracking, only sets in ``open[-1]`` may be appended. An
    untracked index builds no regions.
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
                                         self.regions)
        missing = (1 << (1 << self.n)) - 1 - sum(1 << b for b in self.bits)
        self.open: list[int] = [missing ^ self.completing_sets(missing)]

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
            self.open.append(rest ^ self.completing_sets(rest, through=idx))

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

    def completing_sets(self, targets: int, through: int | None = None) -> int:
        """The sets among ``targets`` (which must hold no member) whose
        addition creates a copy of the tracked poset q through them; with
        ``through``, a member index, only copies through that member count.
        The ``_completion_pass`` of ``track`` over the member indices, with
        each member's relation bitsets and regions."""
        return self._blocked((1 << len(self.bits)) - 1, targets, through)


def _completion_plan(q: PosetSpec, fixed: tuple[int, ...]):
    """The steps of one completion walk for q after the ``fixed`` elements:
    the hole p = ``fixed[0]``, whose image is the set under test, and for a
    walk through one member the element ``fixed[1]`` at that member.

    Each step takes the unplaced element comparable to the most placed
    elements other than p, since only those cut its candidates; ties go to
    an element comparable to p, which cuts the region, then to the element
    comparable to the fewest elements of q, then to the smaller label."""
    rel = _poset_tables(q)[0]
    p = fixed[0]
    rest = sorted(
        (x for x in range(q.size) if x not in fixed),
        key=lambda x: (sum(r != _NONE for r in rel[x]), x),
    )
    order = list(fixed)
    placed = [0] * q.size  # per element, the placed members comparable to it
    for y in fixed[1:]:
        for z, r in enumerate(rel[y]):
            placed[z] += r != _NONE
    while rest:  # max keeps the first of equals, so ties go by rest's order
        x = max(rest, key=lambda y: (placed[y], rel[p][y] != _NONE))
        rest.remove(x)
        order.append(x)
        for z, r in enumerate(rel[x]):
            placed[z] += r != _NONE
    return _walk_steps(q, order, len(fixed))


def _walk_steps(q: PosetSpec, order: Sequence[int], fixed: int):
    """The steps of a completion walk for q that places ``order`` after its
    first ``fixed`` elements, the hole ``order[0]`` among them. Per step:
    the element; its (placed element other than the hole, relation code)
    checks; the previous element of its twin class in step order, or -1,
    the fixed elements left out; and the relation code of the hole to it.
    Each step checks against every placed element but the hole, and a
    relation bitset never holds its own member, so the images stay
    distinct."""
    rel = _poset_tables(q)[0]
    p = order[0]
    last: dict[tuple[int, ...], int] = {}
    steps = []
    for d in range(fixed, len(order)):
        x = order[d]
        checks = tuple((y, rel[x][y]) for y in order[1:d])
        steps.append((x, checks, last.get(rel[x], -1), rel[p][x]))
        last[rel[x]] = x
    return tuple(steps)


def _walk_kernel(fixed: tuple[int, ...], steps):
    """The completion walk of ``steps`` compiled into nested loops:
    ``kernel(members, t0, t1, t2, regions, unblocked, region, *images)``
    returns ``unblocked`` less the sets that the walk blocks, where
    ``t0, t1, t2`` are the relation tables and ``images`` the member indices
    of the ``fixed`` elements other than the hole. ``region`` must lie
    inside ``unblocked``.

    The placed elements keep their indices in ``i0``, ``i1``, ... in step
    order, the fixed ones first; loop s iterates candidates ``c<s>`` with
    region ``r<s>`` and ends once that is empty. The last loop blocks what
    its region keeps and drops it from every region of its kernel. A walk
    of more than ``_LOOPS`` steps chains kernels, each handing the next its
    region and images and cutting its regions to what comes back."""
    at = {x: k for k, x in enumerate(fixed + tuple(x for x, *_ in steps))}
    base = len(fixed)

    def params(s: int) -> str:  # of the kernel that starts at step s
        images = [f"i{k}" for k in range(base + s)]
        return ", ".join(["members, t0, t1, t2, regions, unblocked", f"r{s}"] + images)

    lines = []
    for c, start in enumerate(range(0, max(len(steps), 1), _LOOPS)):
        end = min(start + _LOOPS, len(steps))
        lines.append(f"def _k{c}({params(start)}):")
        pad = "    "
        if not steps:
            lines.append(f"{pad}unblocked &= ~r0")
        exits = []  # (pad inside, step) per loop around another
        for s in range(start, end):
            _, checks, prev, code = steps[s]
            cuts = [f"t{r}[i{at[y]}]" for y, r in checks]
            if prev >= 0:  # only members above the previous twin's
                cuts.append(f"-(2 << i{at[prev]})")
            lines.append(f"{pad}c{s} = {' & '.join(['members'] + cuts)}")
            lines += _pull(pad, f"c{s}", f"i{base + s}")
            if s == len(steps) - 1:
                lines += [f"{pad}    h = regions[i{base + s}][{code}] & r{s}",
                          f"{pad}    if h:", f"{pad}        unblocked ^= h"]
                lines += [f"{pad}        r{k} ^= h" for k in range(start, s + 1)]
                lines += [f"{pad}        if not r{s}:", f"{pad}            break"]
            else:
                lines += [f"{pad}    r{s + 1} = regions[i{base + s}][{code}] & r{s}",
                          f"{pad}    if r{s + 1}:"]
                pad += "        "
                exits.append((pad, s))
        if end < len(steps):
            lines.append(f"{pad}unblocked = _k{c + 1}({params(end)})")
            lines += [f"{pad}r{k} &= unblocked" for k in range(start, end)]
        for inner, s in reversed(exits):
            lines += [f"{inner}if not r{s}:", f"{inner}    break"]
        lines.append("    return unblocked")
    return _compile(lines)


class _WalkGroups:
    """Groups of walks, each compiled on first use: per walk its last fixed
    element, the hole's relation code to it, its steps and kernel."""

    __slots__ = ("_plans", "_groups")

    def __init__(self, plans):
        self._plans = plans  # per walk (element, code, steps, fixed)
        self._groups = [None] * len(plans)

    def __getitem__(self, k: int):
        group = self._groups[k]  # past the last, IndexError ends iteration
        if group is None:
            group = self._groups[k] = tuple(
                (x, code, steps, _walk_kernel(fixed, steps))
                for x, code, steps, fixed in self._plans[k]
            )
        return group


@lru_cache(maxsize=None)
def _completion_walks(q: PosetSpec):
    """The walks of ``_completing_sets`` for q: over every missing set, one
    per class head p, once with the ``_completion_plan`` steps and once in
    the order of the search forced at p; and through one member, one per
    pair (p, x) of ``_poset_tables``."""
    rel, heads, pairs = _poset_tables(q)
    return _WalkGroups((
        tuple((p, _NONE, _completion_plan(q, (p,)), ()) for p in heads),
        tuple((p, _NONE, _walk_steps(q, _search_plan(q, (p,))[0], 1), ()) for p in heads),
        tuple((x, rel[p][x], _completion_plan(q, (p, x)), (x,)) for p, x in pairs),
    ))


def _completing_sets(walks, members: int, tables, regions, targets: int,
                     through: int | None = None) -> int:
    """The sets among ``targets`` whose addition to the family ``members``
    creates a copy of a poset q through them, found in one pass over
    completion regions.

    Members are the bits of ``members``; ``walks`` comes from
    ``_completion_walks(q)``. ``tables`` holds three lists indexed by
    relation code (_NONE, _BELOW, _ABOVE) that map a member to the bitset of
    the members that relation allows, never the member itself, and
    ``regions[i]`` holds the three ``_regions`` bitmaps of member i. Sets
    are bitmaps over all 2^n subsets (bit s for subset s), and ``targets``
    must hold no member. For the least element p of each twin class of q,
    one walk lists the copies of q - p among the members. It carries the
    region of sets that fit at p against the images assigned so far:
    subsets of the image of an element above p, supersets of the image of
    one below p, and sets incomparable to the image of the rest. A full
    copy blocks its region, and a branch ends once its region holds no
    target left unblocked. No member lies in the region, so a set in it
    differs from every image and relates to each strictly. Twins relate to
    p alike, so the twin ordering loses no region. The result does not
    depend on the order of the steps, so each walk takes the order that
    costs least: with many targets the region seldom empties and the
    ``_completion_plan`` order, which cuts the candidates first, wins;
    with no more targets than members the search order forced at p, which
    counts p as placed and so cuts the region first, ends most branches
    after a step or two. Each walk runs as its compiled kernel.

    With ``through``, a member, only copies through that member count. Each
    walk then also fixes it at the least element x of a twin class of
    q - p and starts from the region that x's relation to p leaves.
    """
    t0, t1, t2 = tables
    unblocked = targets
    if through is not None:
        fixed = regions[through]
        for _, code, _, kernel in walks[2]:
            if not unblocked:
                break
            region = unblocked & fixed[code]
            if region:
                unblocked = kernel(members, t0, t1, t2, regions, unblocked, region, through)
    else:  # few targets: cut the region first, and it soon holds none
        for _, _, _, kernel in walks[1] if targets.bit_count() <= members.bit_count() else walks[0]:
            if not unblocked:
                break
            unblocked = kernel(members, t0, t1, t2, regions, unblocked, unblocked)
    return targets & ~unblocked


def _completion_pass(q: PosetSpec, n: int, tables, regions):
    """``_completing_sets`` for q over [n] on ``tables`` and ``regions``,
    as a function of ``(members, targets, through=None)``, behind the one
    guard of both trackers. No copy of q can form, so no set is blocked and
    no walk of q is planned or compiled, while the family ``members`` plus
    one set has fewer than |q| members, or when a chain of q is longer than
    the n + 1 sets of a longest chain over [n]."""
    least = q.size - 1 if _height(q) <= n + 1 else (1 << n) + 1  # > any family

    def completing(members: int, targets: int, through: int | None = None) -> int:
        if members.bit_count() < least:
            return 0
        return _completing_sets(_completion_walks(q), members, tables, regions, targets,
                                through)

    return completing


# tracked families index sets by mask up to here; on the sampler a member
# index is faster from n = 9 for N
_LATTICE_LIMIT = 8


@lru_cache(maxsize=None)  # n <= _LATTICE_LIMIT only
def _lattice_tables(n: int):
    """The relation tables of ``_completing_sets`` over the subsets of [n]
    indexed by mask, and per subset s its row of them: the ``_regions``
    bitmaps of s without s itself. The rows serve as regions too: a region
    is always cut to ``unblocked``, which lies inside the targets, and the
    targets hold no member, so the bit of the member that a region belongs
    to never counts. The walks of a poset, cached apart, run over these
    tables for every n."""
    rows = [(incomp, down ^ 1 << s, up ^ 1 << s)
            for s in range(1 << n) for incomp, down, up in [_regions(s, n)]]
    return tuple(zip(*rows)), rows


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
        self._blocked = _completion_pass(q, n, *_lattice_tables(n))
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


def _tracked_family(n: int, q: PosetSpec, bits: Sequence[int] = (), index=None):
    """The q-free family ``bits`` over [n], tracking q: a ``_LatticeFamily``
    for n <= ``_LATTICE_LIMIT``, else a tracked ``_FamilyIndex``, which is
    ``index``, an untracked index over ``bits``, when one is given."""
    if n <= _LATTICE_LIMIT:
        return _LatticeFamily(n, q, bits)
    index = _FamilyIndex(bits, n) if index is None else index
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
