"""Exact saturation numbers at desk scale and enumeration of saturated
families.

The exhaustive enumerator (n <= 4) iterates every subfamily of the power set
against a precomputed table of forbidden member subsets: a family contains an
induced copy of q exactly when some |q|-subset of its members is order-
isomorphic to q, and the isomorphism test here is a deliberately naive
permutation check so the enumerator stays independent of the backtracking
embedder it cross-checks.

One depth-first walk over families in canonical order serves both other
paths. It holds one incremental search index, which keeps as a bitmap the
missing sets whose addition keeps the family free, so each candidate costs
one bit test and a family is saturated when the bitmap is empty. It yields
saturated families in lexicographic order of their members' canonical
positions. Larger n enumerate the first families of that walk, up to a
cap. The exact solver (``method="auto"``) closes greedy upper bounds first,
then takes the first family of each smaller size from the walk, which also
prunes a partial family when a symmetry of the Boolean lattice (a
transposition of [n], or complementation when q is self-dual) sends its
members to an earlier family. The pruning keeps the certificate that the
search without it would return. Randomised greedy closure gives upper
bounds beyond that.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, islice, permutations
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
from .embedding import _FamilyIndex
from .errors import ContractViolationError, UsageError
from .saturation import (
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


def _naive_has_copy(bits: tuple[int, ...], q: PosetSpec) -> bool:
    """All-tuples oracle: some ordered |q|-tuple of ``bits`` reproduces the
    strict order of q exactly. Shares no code with the backtracking search."""
    m = q.size
    for tup in permutations(bits, m):
        ok = True
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                below = tup[a] != tup[b] and tup[a] & tup[b] == tup[a]
                if q.less[a][b] != below:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _forbidden_tables(n: int, q: PosetSpec):
    """All member subsets of size |q| isomorphic to q, as subfamily masks,
    plus per-set lists of the remaining members of each such subset."""
    nsets = 1 << n
    copies = []
    for combo in combinations(range(nsets), q.size):
        if _naive_has_copy(combo, q):
            copies.append(sum(1 << s for s in combo))
    rest: list[list[int]] = [[] for _ in range(nsets)]
    for cmask in copies:
        probe = cmask
        while probe:
            low = probe & -probe
            probe ^= low
            rest[low.bit_length() - 1].append(cmask ^ low)
    return copies, rest


def _free_bitmap(nsets: int, copies: list[int]) -> bytearray:
    free = bytearray([1]) * (1 << nsets)
    full = (1 << nsets) - 1
    for cmask in copies:
        sup = cmask
        while True:
            free[sup] = 0
            if sup == full:
                break
            sup = (sup + 1) | cmask
    return free


def _saturated_masks(nsets: int, free: bytearray, rest: list[list[int]]) -> Iterator[int]:
    """Every free subfamily mask that blocks each missing set, ascending."""
    for fam in range(1 << nsets):
        if not free[fam]:
            continue
        ok = True
        for s in range(nsets):
            if fam >> s & 1:
                continue
            blockers = rest[s]
            hit = False
            for r in blockers:
                if r & fam == r:
                    hit = True
                    break
            if not hit:
                ok = False
                break
        if ok:
            yield fam


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
    nsets = 1 << n
    copies, rest = _forbidden_tables(n, q)
    free = _free_bitmap(nsets, copies)
    found = []
    for fam in _saturated_masks(nsets, free, rest):
        found.append(fam)
        if cap is not None and len(found) >= cap:
            break
    out = []
    for fam in found:
        masks = [s for s in range(nsets) if fam >> s & 1]
        out.append(SetFamily.from_masks(ground, masks))
    return out


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


def _lattice_maps(n: int, q: PosetSpec) -> list[tuple[int, ...]]:
    """Symmetries of the Boolean lattice that send q-saturated families to
    q-saturated families, each a table from the canonical position of a set
    to the canonical position of its image: the n(n-1)/2 transpositions of
    [n], and when q is isomorphic to its dual, complementation alone and
    composed with each transposition. Permuting [n] keeps inclusions;
    complementation reverses them, so it sends copies of q to copies of the
    dual of q."""
    order = GroundSet(n).all_masks()
    pos = {s: i for i, s in enumerate(order)}
    maps = [
        tuple(pos[_swap_bits(s, i, j)] for s in order)
        for i, j in combinations(range(n), 2)
    ]
    if poset_isomorphic(q, _dual(q)):
        complement = tuple(pos[s ^ ((1 << n) - 1)] for s in order)
        maps += [complement] + [tuple(complement[p] for p in g) for g in maps]
    return maps


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
    large. One index follows the search: append on the way down, pop on the
    way back. It keeps ``open``, the missing sets whose addition keeps the
    family free, so a child is a set in ``open``, and a family is saturated
    exactly when ``open`` is empty.

    A child is pruned when some map in ``maps``
    sends its chosen positions to a sorted list that is lexicographically
    smaller. This skips families, but never a prefix of the first saturated
    family F of a size: a map that made a prefix P of F smaller would make
    the image of F smaller than F, since the image of F contains the image
    of P, so its k-th smallest position is at most that of the image of P
    for every k up to |P|, and every member of F outside P comes after P.
    That image is saturated and of the same size, so F would not be first.
    """
    order = ground.all_masks()
    total = len(order)
    index = _FamilyIndex([], ground.n)
    index.track(q)
    chosen: list[int] = []  # canonical positions of index.bits
    ticks = 0

    def walk(start: int) -> Iterator[SetFamily]:
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % 256 == 0 and time.perf_counter() > deadline:
            raise _BudgetExpired
        if size is None:
            stop = total
        elif len(chosen) < size:
            stop = total - (size - len(chosen)) + 1
        else:
            stop = start
        for idx in range(start, stop):
            if not index.open[-1] >> order[idx] & 1:
                continue
            chosen.append(idx)
            # pruned when some map sends the chosen positions lower
            if all(sorted([g[p] for p in chosen]) >= chosen for g in maps):
                index.append(order[idx])
                yield from walk(idx + 1)
                index.pop()
            chosen.pop()
        if (size is None or len(chosen) == size) and not index.open[-1]:
            yield SetFamily.from_masks(ground, index.bits)

    return walk(0)


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
        maps = _lattice_maps(n, q)
        try:
            for size in range(1, len(best)):
                found = next(_saturated_walk(ground, q, size, maps, deadline), None)
                if found is not None:
                    best = found
                    break
        except _BudgetExpired:
            exact = False
    result = SolveResult(
        n=n,
        poset=poset_name(q),
        value=len(best),
        exact=exact,
        certificate=best,
        enumerated_count=enumerated_count,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
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


def _random_free_seed(ground: GroundSet, q: PosetSpec, rng: random.Random) -> SetFamily:
    target = rng.randint(0, _RANDOM_SEED_MAX_SIZE)
    index = _FamilyIndex([], ground.n)
    index.track(q)
    for _ in range(4 * _RANDOM_SEED_MAX_SIZE):
        if len(index.bits) >= target:
            break
        s = rng.randrange(1 << ground.n)
        if index.open[-1] >> s & 1:
            index.append(s)
    return SetFamily.from_masks(ground, index.bits)


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
    return SolveResult(
        n=n,
        poset=poset_name(q),
        value=len(best),
        exact=False,
        certificate=best,
        enumerated_count=None,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def sample_saturated_families(
    n: int,
    q: PosetSpec,
    count: int,
    rng_seed: int,
) -> list[SetFamily]:
    """``count`` greedy-closed saturated families from random free seeds and
    random candidate orders; deterministic in ``rng_seed``. Duplicates are
    possible and harmless."""
    if count < 1:
        raise UsageError(f"count must be at least 1, got {count}")
    ground = GroundSet(n)
    rng = random.Random(rng_seed)
    out = []
    for _ in range(count):
        seed = _random_free_seed(ground, q, rng)
        order = list(range(1 << n))
        rng.shuffle(order)
        out.append(greedy_saturate(seed, q, order=order))
    return out
