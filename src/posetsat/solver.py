"""Exact saturation numbers at desk scale and enumeration of saturated
families.

The exhaustive enumerator (n <= 4) treats every subfamily of the power set
as one bit of a 2^(2^n)-bit int. A family contains an induced copy of q
exactly when some |q|-subset of its members is order-isomorphic to q, so
the free families are those outside the up-sets of the forbidden copies,
and a free family is saturated when it holds each set s or all but s of
some copy. Each up-set closure is one shift-OR per set of the power set.
The forbidden copies come from a deliberately naive relabelling test, so
the enumerator shares no code with the backtracking embedder it
cross-checks.

One depth-first walk over families in canonical order serves both other
paths. It follows one tracked family from ``embedding``, which alone
chooses the tracker and keeps the missing sets whose addition keeps the
family free as a bitmap; on the lattice tracker, which indexes sets by
mask (n <= 8), the walk also ends hopeless branches. It yields saturated
families in lexicographic order of their members' canonical positions.
Larger n enumerate the first families of that walk, up to a cap. The exact
solver (``method="auto"``) closes greedy upper bounds first, then takes
the first family of each smaller size from the walk, which also prunes a
partial family when a symmetry of the Boolean lattice (a transposition of
[n], or complementation when q is self-dual) sends its members to an
earlier family. The pruning keeps the certificate that the search without
it would return. Randomised greedy closure gives upper bounds beyond that:
each sampled family grows a small random free seed and then closes it
under a shuffled order, both on one tracked family.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator, Sequence

from .core import (
    GroundSet,
    PosetSpec,
    SetFamily,
    _bipartite_shape,
    n_poset,
    poset_isomorphic,
    poset_name,
)
from .embedding import _LatticeFamily, _tracked_family
from .errors import ContractViolationError, UsageError
from .saturation import (
    _bit_positions,
    butterfly_construction,
    greedy_saturate,
    k2k_seed,
    kkk_seed,
    n_construction,
)

_EXHAUSTIVE_LIMIT = 4


@dataclass(frozen=True)
class SolveResult:
    """Exact value or best-known upper bound for sat*(n, q)."""

    n: int
    poset: str
    value: int
    exact: bool
    certificate: SetFamily
    enumerated_count: int | None
    elapsed_ms: float

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "poset": self.poset,
            "value": self.value,
            "exact": self.exact,
            "certificate": [list(m.elements()) for m in self.certificate],
            "enumerated_count": self.enumerated_count,
            "elapsed_ms": self.elapsed_ms,
        }


def _result(n: int, q: PosetSpec, best: SetFamily, exact: bool, t0: float,
            count: int | None = None) -> SolveResult:
    """The result for certificate ``best``, timed from ``t0``."""
    return SolveResult(
        n=n,
        poset=poset_name(q),
        value=len(best),
        exact=exact,
        certificate=best,
        enumerated_count=count,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _forbidden_tables(n: int, q: PosetSpec):
    """All member subsets of size |q| isomorphic to q, as subfamily masks,
    plus per-set lists of the remaining members of each such subset.

    A deliberately naive relabelling test that shares no code with the
    backtracking search: a |q|-subset is a copy when its strict-subset
    relation, read in ascending order of its members, equals the order of
    q under some relabelling of q (``_copy_shapes``). A subset grows in
    ascending order while its relation so far begins such an order."""
    nsets = 1 << n
    m = q.size
    copies = []
    if m <= nsets:
        # shapes column by column; a set lies below larger masks only
        prefixes = {
            tuple(tuple(shape[i * m + j] for i in range(j)) for j in range(k))
            for shape in _copy_shapes(q) for k in range(m + 1)
        }
        stack = [((), ())]
        while stack:
            combo, columns = stack.pop()
            if len(combo) == m:
                copies.append(sum(1 << s for s in combo))
                continue
            first = combo[-1] + 1 if combo else 0
            for b in range(nsets - m + len(combo), first - 1, -1):
                grown = columns + (tuple(a & b == a for a in combo),)
                if grown in prefixes:
                    stack.append((combo + (b,), grown))
    rest: list[list[int]] = [[] for _ in range(nsets)]
    for cmask in copies:
        for s in _bit_positions(cmask):
            rest[s].append(cmask ^ 1 << s)
    return copies, rest


def _copy_shapes(q: PosetSpec) -> set[tuple[bool, ...]]:
    """The strict orders of q under the relabellings that a |q|-subset read
    in ascending mask order can match, each flattened row by row.

    A subset of a set has the smaller mask, so such a reading lists every
    subset before its supersets: only the linear extensions of q can match.
    Swapping two twins, elements below and above the same elements, gives
    the same order, so the twins of each class are taken in ascending
    label order. A chain has one such relabelling and an antichain one,
    where all |q|! relabellings would be built otherwise."""
    m = q.size
    less = q.less
    kind = [(tuple(less[a]), tuple(less[b][a] for b in range(m))) for a in range(m)]
    shapes = set()

    def extend(order: list[int], left: list[int]) -> None:
        if not left:
            shapes.add(tuple(less[a][b] for a in order for b in order))
        for x in left:
            # every element below x placed, and every earlier twin of x
            if not any(less[y][x] or kind[y] == kind[x] and y < x for y in left):
                extend(order + [x], [y for y in left if y != x])

    extend([], list(range(m)))
    del extend  # it refers to itself; unbound, it leaves no garbage cycle
    return shapes


@lru_cache(maxsize=None)
def _without_masks(nsets: int) -> tuple[int, ...]:
    """Per set s of a ground of ``nsets`` sets, the bitmap over the
    2^nsets subfamilies (bit f for subfamily mask f) of those without s:
    runs of 2^s ones every 2^(s+1) bits."""
    width = 1 << nsets
    masks = []
    for s in range(nsets):
        step = 1 << s
        mask, span = (1 << step) - 1, 2 * step
        while span < width:
            mask |= mask << span
            span *= 2
        masks.append(mask)
    return tuple(masks)


def _up_closure(fams: int, nsets: int) -> int:
    """The subfamilies that contain one of ``fams``, both as bitmaps over
    the 2^nsets subfamilies. One shift-OR per set: the subfamilies without
    set s move up by 2^s, which adds s."""
    for s, without in enumerate(_without_masks(nsets)):
        fams |= (fams & without) << (1 << s)
    return fams


def _saturated_bitmap(n: int, q: PosetSpec) -> int:
    """The q-saturated subfamilies of the power set of [n], every subfamily
    as one bit of a 2^(2^n)-bit int (bit f for subfamily mask f): the free
    ones, which contain no forbidden copy, that hold each set s or all but s
    of some copy."""
    nsets = 1 << n
    copies, rest = _forbidden_tables(n, q)
    found = ~_up_closure(sum(1 << c for c in copies), nsets)
    for s in range(nsets):
        found &= _up_closure(1 << (1 << s) | sum(1 << r for r in rest[s]), nsets)
    return found & (1 << (1 << nsets)) - 1


def enumerate_saturated_families(
    n: int,
    q: PosetSpec,
    cap: int | None = None,
) -> list[SetFamily]:
    """All q-saturated families over [n] for n <= 4 (complete); for larger n
    a cap is required and the first ``cap`` families of the saturated walk
    are returned."""
    if cap is not None and cap < 1:
        raise UsageError(f"cap must be at least 1, got {cap}")
    ground = GroundSet(n)
    if n > _EXHAUSTIVE_LIMIT:
        if cap is None:
            raise UsageError(
                f"exhaustive enumeration is limited to n <= {_EXHAUSTIVE_LIMIT}; "
                "pass a cap for larger ground sets"
            )
        return list(islice(_saturated_walk(ground, q), cap))
    found = _bit_positions(_saturated_bitmap(n, q))[:cap]
    return [SetFamily.from_masks(ground, _bit_positions(fam)) for fam in found]


class _BudgetExpired(Exception):
    pass


def _dual(q: PosetSpec) -> PosetSpec:
    """The poset with its order reversed."""
    m = q.size
    less = tuple(tuple(q.less[b][a] for b in range(m)) for a in range(m))
    return PosetSpec(m, less, q.labels)


def _swap_bits(s: int, i: int, j: int) -> int:
    """The mask with elements i+1 and j+1 of the ground set exchanged."""
    if (s >> i ^ s >> j) & 1:
        return s ^ (1 << i | 1 << j)
    return s


def _lattice_maps(n: int, q: PosetSpec, deadline: float | None = None) -> list[tuple[int, ...]]:
    """Symmetries of the Boolean lattice that send q-saturated families to
    q-saturated families, each a table from the canonical position of a set
    to the canonical position of its image: the n(n-1)/2 transpositions of
    [n], and when q is isomorphic to its dual, complementation alone and
    composed with each transposition. Permuting [n] keeps inclusions;
    complementation reverses them, so it sends copies of q to copies of the
    dual of q. Raises ``_BudgetExpired`` once ``deadline`` has passed,
    checked before each table: at n = 15 one table takes about 5 ms."""
    order = GroundSet(n).all_masks()
    pos = {s: i for i, s in enumerate(order)}

    def table(images) -> tuple[int, ...]:
        if deadline is not None and time.perf_counter() > deadline:
            raise _BudgetExpired
        return tuple(images)

    maps = [
        table(pos[_swap_bits(s, i, j)] for s in order)
        for i, j in combinations(range(n), 2)
    ]
    if poset_isomorphic(q, _dual(q)):
        complement = table(pos[s ^ ((1 << n) - 1)] for s in order)
        maps += [complement] + [table(complement[p] for p in g) for g in maps]
    return maps


def _grown_images(images: list[int], maps, pos: int, chosen: int) -> list[int] | None:
    """Per map, the image of the ``chosen`` positions, bit p for position p,
    grown from ``images`` by ``pos``; None when one sorts first. Of two sets
    of one size, the one holding the least position in just one of them
    sorts first, as its sorted list does."""
    grown = []
    for image, g in zip(images, maps):
        image |= 1 << g[pos]
        differ = image ^ chosen
        if differ & -differ & image:
            return None
        grown.append(image)
    return grown


def _saturated_walk(
    ground: GroundSet,
    q: PosetSpec,
    size: int | None = None,
    maps: Sequence[tuple[int, ...]] = (),
    deadline: float | None = None,
) -> Iterator[SetFamily]:
    """The q-saturated families with exactly ``size`` members (any number
    when ``size`` is None), in lexicographic order of the canonical
    positions of their members.

    The depth-first search adds one member per level, at a canonical
    position after the last member, so it recurses as deep as the family is
    large. One tracked family follows the search: append on the way down,
    pop on the way back. It keeps ``open``, the missing sets whose addition
    keeps the family free, so a child is a set in ``open``, and a family is
    saturated exactly when ``open`` is empty.

    When ``_tracked_family`` gives a ``_LatticeFamily``, a node ends its
    branch when it is hopeless. Its pending sets, the open
    sets at positions before the next child's, join no family below it, so
    each must be blocked by a copy of q in the family it ends at. That
    family lies between this one and this one plus the open sets at later
    positions (a set once closed stays closed), so a pending set that no
    copy in that union blocks ends the branch, and so does any pending set
    once the family has ``size`` members. Only saturation is used. A
    ``_FamilyIndex`` holds regions for members only, and ends no branch.

    A child is pruned when some map in ``maps`` sends its chosen positions
    to a sorted list that is lexicographically smaller (``_grown_images``).
    This skips families, but never a prefix of the first saturated family F
    of a size: a map that made a prefix P of F smaller would make the image
    of F smaller than F, since the image of F contains the image
    of P, so its k-th smallest position is at most that of the image of P
    for every k up to |P|, and every member of F outside P comes after P.
    That image is saturated and of the same size, so F would not be first.
    """
    order = ground.all_masks()
    total = len(order)
    family = _tracked_family(ground.n, q)
    after = None
    if isinstance(family, _LatticeFamily):
        after = [0] * (total + 1)  # the sets at canonical positions i onward
        for i in range(total - 1, -1, -1):
            after[i] = after[i + 1] | 1 << order[i]

    def walk(start: int, chosen: int, images: list[int]) -> Iterator[SetFamily]:
        # chosen: the canonical positions of family.bits, as a bitmask
        # checked at every node: at n = 15 one node scans ~32k positions
        if deadline is not None and time.perf_counter() > deadline:
            raise _BudgetExpired
        depth = len(family.bits)
        if after is not None:
            pending = family.open[-1] & ~after[start]
            if pending and (depth == size
                            or family.hopeless(pending, family.open[-1] & after[start])):
                return
        if size is None:
            stop = total
        elif depth < size:
            stop = total - (size - depth) + 1
        else:
            stop = start
        for idx in range(start, stop):
            if not family.open[-1] >> order[idx] & 1:
                continue
            # pruned when some map sends the chosen positions lower
            child = chosen | 1 << idx
            grown = _grown_images(images, maps, idx, child)
            if grown is not None:
                family.append(order[idx])
                yield from walk(idx + 1, child, grown)
                family.pop()
        if (size is None or depth == size) and not family.open[-1]:
            yield SetFamily.from_masks(ground, family.bits)

    try:
        yield from walk(0, 0, [0] * len(maps))
    finally:
        del walk  # it refers to itself; unbound, it leaves no garbage cycle


def _bound_discrepancy_check(n: int, result: "SolveResult") -> None:
    """Exact values must respect the proved lower bounds; a violation is a
    halt-worthy discrepancy, never silently reported."""
    if not result.exact:
        return
    if result.poset == "B" and result.value < n + 1:
        raise ContractViolationError(
            f"exact sat*({n}, B) = {result.value} violates the n+1 lower bound",
            detail={"certificate": [list(m.elements()) for m in result.certificate]},
        )
    if result.poset == "N" and result.value ** 2 < n:
        raise ContractViolationError(
            f"exact sat*({n}, N) = {result.value} violates the sqrt(n) lower bound",
            detail={"certificate": [list(m.elements()) for m in result.certificate]},
        )


def exact_sat_star(
    n: int,
    q: PosetSpec,
    budget_s: float | None = None,
    method: str = "auto",
) -> SolveResult:
    """sat*(n, q): exact for n <= 4, otherwise exact if the budget allows and
    the best greedy certificate with ``exact=False`` when it expires.

    ``method="enumerate"`` (n <= 4 only) takes the minimum over the complete
    enumeration instead of the branch-and-bound search; the two paths
    cross-check each other.
    """
    t0 = time.perf_counter()
    ground = GroundSet(n)
    if method not in ("auto", "enumerate"):
        raise UsageError(f"unknown method {method!r}")
    if budget_s is not None and not budget_s >= 0:
        raise UsageError(f"budget must be a non-negative number of seconds, got {budget_s}")
    exact = True
    enumerated_count = None
    if method == "enumerate":
        if n > _EXHAUSTIVE_LIMIT:
            raise UsageError(f"method 'enumerate' requires n <= {_EXHAUSTIVE_LIMIT}")
        if budget_s is not None:
            raise UsageError("method 'enumerate' takes no budget")
        families = enumerate_saturated_families(n, q)
        best = min(families, key=lambda f: (len(f), f.bit_list))
        enumerated_count = len(families)
    else:
        best = greedy_saturate(SetFamily.from_masks(ground, []), q)
        named = _named_seed(n, q)
        if named is not None:
            closed = greedy_saturate(named, q)
            if (len(closed), closed.bit_list) < (len(best), best.bit_list):
                best = closed
        deadline = None if budget_s is None else t0 + budget_s
        try:
            maps = _lattice_maps(n, q, deadline)
            for size in range(1, len(best)):
                found = next(_saturated_walk(ground, q, size, maps, deadline), None)
                if found is not None:
                    best = found
                    break
        except _BudgetExpired:
            exact = False
    result = _result(n, q, best, exact, t0, count=enumerated_count)
    _bound_discrepancy_check(n, result)
    return result


def _named_seed(n: int, q: PosetSpec) -> SetFamily | None:
    """The construction or seed family matching a recognised poset."""
    shape = _bipartite_shape(q)
    if shape == (2, 2):
        return butterfly_construction(n) if n >= 2 else None
    if poset_isomorphic(q, n_poset()):
        return n_construction(n) if n >= 2 else None
    if shape is not None:
        bottoms, tops = shape
        if tops == 2 and bottoms >= 2 and n > bottoms:
            return k2k_seed(n, bottoms)
        if tops == bottoms and bottoms >= 2 and n >= 2 * bottoms:
            return kkk_seed(n, bottoms)
    return None


_RANDOM_SEED_MAX_SIZE = 3


def upper_bound_via_random_greedy(
    n: int,
    q: PosetSpec,
    trials: int,
    rng_seed: int,
) -> SolveResult:
    """Best saturated family over ``trials`` greedy closures: the first
    closes the recognised construction (the empty family when none
    matches), the rest random free seeds under random candidate orders.
    Fully reproducible from ``rng_seed``."""
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    t0 = time.perf_counter()
    named = _named_seed(n, q)
    seed = named if named is not None else SetFamily.from_masks(GroundSet(n), [])
    closed = [greedy_saturate(seed, q)]
    if trials > 1:
        closed += sample_saturated_families(n, q, trials - 1, rng_seed)
    best = min(closed, key=lambda f: (len(f), f.bit_list))
    return _result(n, q, best, False, t0)


def sample_saturated_families(
    n: int,
    q: PosetSpec,
    count: int,
    rng_seed: int,
) -> list[SetFamily]:
    """``count`` greedy-closed saturated families from random free seeds and
    random candidate orders; deterministic in ``rng_seed``. Duplicates are
    possible and harmless.

    Each family grows on one ``_tracked_family``: a seed of up to
    ``_RANDOM_SEED_MAX_SIZE`` random sets that keep it free, then every
    subset in a shuffled order, each added when its bit in ``open`` is set.
    A seed member is never open, so the second pass is greedy closure of
    the seed under that order."""
    if count < 1:
        raise UsageError(f"count must be at least 1, got {count}")
    ground = GroundSet(n)
    rng = random.Random(rng_seed)
    out = []
    for _ in range(count):
        target = rng.randint(0, _RANDOM_SEED_MAX_SIZE)
        family = _tracked_family(n, q)
        for _ in range(4 * _RANDOM_SEED_MAX_SIZE):
            if len(family.bits) >= target:
                break
            s = rng.randrange(1 << n)
            if family.open[-1] >> s & 1:
                family.append(s)
        order = list(range(1 << n))
        rng.shuffle(order)
        for s in order:
            if family.open[-1] >> s & 1:
                family.append(s)
        out.append(SetFamily.from_masks(ground, family.bits))
    return out
