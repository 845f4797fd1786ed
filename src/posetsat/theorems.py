"""Empirical verifiers for the lower-bound arguments on saturated families.

Each verifier re-derives its hypothesis (saturation of the input family)
before checking the structural claims, and reports counterexamples instead of
aborting: a failure here means either an implementation bug or a genuine
discrepancy, and both need to be inspectable. The butterfly verifiers (lemma
1, theorems 2 and 3) share one saturation verdict: the last one is cached,
so the three run back to back on one family make one saturation report.

The chevron machinery mirrors the injection arguments: a missing singleton
{i} (or a missing pair with exactly one singleton present) must complete a
butterfly whose two tops and remaining bottom form a chevron (A, B, C) with C
below both tops and the tops incomparable; taking |C| maximal makes the map
i -> C u {i} injective into the family. One chevron map serves both
theorems: theorem 2 runs it over the missing singletons, theorem 3 over the
qualifying missing pairs. It raises at the first item with no chevron or
with an image outside the family, and both verifiers check injectivity the
same way, with the members that map to themselves added to the images. The
chevron search reads the element columns and the ``above`` and ``incomp``
rows of one untracked ``_FamilyIndex`` over the family.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

from .core import SetFamily, SubsetMask, butterfly_poset, n_poset
from .embedding import _FamilyIndex
from .errors import ContractViolationError, UsageError
from .saturation import saturation_report


@dataclass(frozen=True)
class Chevron:
    """Triple (a, b, c) of subsets with c strictly inside both a and b while
    a and b are incomparable."""

    a: SubsetMask
    b: SubsetMask
    c: SubsetMask

    def __post_init__(self):
        ca, cb, cc = self.a.bits, self.b.bits, self.c.bits
        if not (cc & ca == cc and cc != ca and cc & cb == cc and cc != cb):
            raise UsageError("chevron bottom must be a proper subset of both tops")
        if ca & cb == ca or cb & ca == cb:
            raise UsageError("chevron tops must be incomparable")


@dataclass(frozen=True)
class ChevronAssignment:
    """Injective assignment built by the singleton/pair analysis.

    ``domain`` holds the missing singletons (or qualifying missing pairs),
    ``chevrons`` the chevron chosen for each, and ``images`` the family member
    each domain item maps to.
    """

    domain: tuple[SubsetMask, ...]
    chevrons: dict
    images: dict

    def to_tsv(self) -> str:
        lines = ["domain\tA\tB\tC\timage"]
        for item in self.domain:
            ch = self.chevrons[item.bits]
            img = self.images[item.bits]
            lines.append(f"{item}\t{ch.a}\t{ch.b}\t{ch.c}\t{img}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verifier run."""

    theorem: str
    n: int
    hypotheses_hold: bool
    bound_value: int
    family_size: int
    passed: bool
    counterexample: dict | None = None
    k: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "k": self.k,
            "bound": self.bound_value,
            "size": self.family_size,
            "hypotheses_hold": self.hypotheses_hold,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


_SMALL_GROUND = "ground sets of size 1 are outside the analysed range"


def _report(
    theorem: str,
    family: SetFamily,
    bound: int,
    counterexample: dict | None,
    k: int | None = None,
    hold: bool = True,
) -> TheoremReport:
    """Verifier report; it passes iff the hypotheses hold and no
    counterexample was found. It enforces the size bound itself: a family
    smaller than ``bound`` with no other counterexample reports "size below
    bound", checked last."""
    if counterexample is None and len(family) < bound:
        counterexample = {"reason": "size below bound", "bound": bound}
    return TheoremReport(
        theorem=theorem,
        n=family.ground.n,
        hypotheses_hold=hold,
        bound_value=bound,
        family_size=len(family),
        passed=hold and counterexample is None,
        counterexample=counterexample,
        k=k,
    )


def _refused(
    theorem: str, family: SetFamily, reason: str, bound: int = 0, k: int | None = None
) -> TheoremReport:
    """Report for a family outside the verifier's hypotheses."""
    return _report(theorem, family, bound, {"reason": reason}, k, hold=False)


@lru_cache(maxsize=1)
def _butterfly_saturated(family: SetFamily) -> bool:
    """Whether ``family`` is butterfly-saturated. A family is immutable and
    hashable, so the last verdict serves every verifier called next on an
    equal family."""
    return saturation_report(family, butterfly_poset()).saturated


def _singleton_bits(family: SetFamily) -> list[int]:
    return [b for b in family.bit_list if b.bit_count() == 1]


def _missing_singleton_pair(family: SetFamily, singles: list[int]) -> list[int] | None:
    """First pair [i, j] (lexicographic) whose singletons are both members
    while {i, j} is not, or None."""
    for x, s in enumerate(singles):
        for t in singles[x + 1:]:
            if not family.has_mask(s | t):
                return [s.bit_length(), t.bit_length()]
    return None


@lru_cache(maxsize=1)
def _chevron_tables(family: SetFamily) -> tuple[_FamilyIndex, list[int]]:
    """An untracked search index over the members of ``family``, and the
    member indices by falling size, then value. The last one is cached, so
    theorems 2 and 3 share one build per family; no caller may append to,
    pop from or track the cached index."""
    bits = family.bit_list
    order = sorted(range(len(bits)), key=lambda i: (-bits[i].bit_count(), bits[i]))
    return _FamilyIndex(bits, family.ground.n), order


def _max_chevron_through(family: SetFamily, probe: int) -> Chevron | None:
    """Best chevron completing a butterfly with ``probe`` as a minimal
    element: bottom C incomparable to the probe with |C| maximal, tops two
    incomparable members containing both; canonical tie-break on (C, A, B).
    The probe is not inside C, so every member holding C u probe lies
    strictly above C. A member equal to C u probe lies inside every other
    holder, so it is never a top."""
    index, bottoms = _chevron_tables(family)
    ground = family.ground
    holding = -1
    for e, column in enumerate(index.has):
        if probe >> e & 1:
            holding &= column
    for c in bottoms:
        bottom = index.bits[c]
        # the other bottom must be incomparable to the probe (for a singleton
        # probe that means disjoint and nonempty; a pair may share an element)
        if bottom & probe == bottom or bottom & probe == probe:
            continue
        holders = index.above[c] & holding
        while holders:
            a = (holders & -holders).bit_length() - 1
            holders &= holders - 1
            pair = index.incomp[a] & holders  # the later holders incomparable to a
            if pair:
                b = (pair & -pair).bit_length() - 1
                return Chevron(*(SubsetMask(index.bits[i], ground) for i in (a, b, c)))
    return None


def _chevron_map(family: SetFamily, domain: list[int]) -> ChevronAssignment:
    """Largest chevron through each missing singleton or pair in ``domain``,
    in domain order, and its image C u item. The first item with no chevron,
    or whose image is not a member, breaks the injection argument and raises
    with ``detail == {"singleton": [i]}`` or ``{"pair": [i, j]}``."""
    ground = family.ground
    chevrons = {}
    images = {}
    for item in domain:
        mask = SubsetMask(item, ground)
        kind = "singleton" if item.bit_count() == 1 else "pair"
        detail = {kind: list(mask.elements())}
        chevron = _max_chevron_through(family, item)
        if chevron is None:
            raise ContractViolationError(
                f"no butterfly through the missing {kind} {mask}; "
                "the family cannot be butterfly-saturated",
                detail,
            )
        image = SubsetMask(chevron.c.bits | item, ground)
        if not family.has_mask(image.bits):
            raise ContractViolationError(
                f"chevron image {image} for {kind} {mask} is not a family member", detail
            )
        chevrons[item] = chevron
        images[item] = image
    return ChevronAssignment(tuple(SubsetMask(b, ground) for b in domain), chevrons, images)


def theorem2_assignment(family: SetFamily) -> ChevronAssignment:
    """Chevron map over all missing singletons (assumes butterfly-saturation)."""
    missing = [1 << i for i in range(family.ground.n) if not family.has_mask(1 << i)]
    return _chevron_map(family, missing)


def theorem3_assignment(family: SetFamily) -> ChevronAssignment:
    """Chevron map over missing pairs having exactly one singleton in the
    family (assumes butterfly-saturation)."""
    n = family.ground.n
    pairs = [
        1 << i | 1 << j
        for i in range(n)
        for j in range(i + 1, n)
        if not family.has_mask(1 << i | 1 << j)
        and family.has_mask(1 << i) != family.has_mask(1 << j)
    ]
    return _chevron_map(family, pairs)


def lemma1_check(family: SetFamily) -> TheoremReport:
    """Pair closure on singletons: if {i} and {j} are members of a
    butterfly-saturated family, so is {i,j}. The closure scan runs even when
    the saturation hypothesis fails, so the report carries both facts."""
    if family.ground.n < 2:
        return _refused("L1", family, _SMALL_GROUND)
    saturated = _butterfly_saturated(family)
    singles = _singleton_bits(family)
    missing = _missing_singleton_pair(family, singles)
    counterexample = None if missing is None else {"missing_pair": missing}
    if counterexample is None and not saturated:
        counterexample = {"reason": "family is not butterfly-saturated"}
    return _report("L1", family, 0, counterexample, len(singles), hold=saturated)


def _injection_failure(family: SetFamily, assign, fixed: list[int]) -> dict | None:
    """Counterexample to the injection ``assign(family)`` extended by the
    members ``fixed`` that map to themselves, or None: the chevron map's own
    failure, or a set hit twice."""
    try:
        assignment = assign(family)
    except ContractViolationError as exc:
        return {**exc.detail, "reason": str(exc)}
    images = fixed + [img.bits for img in assignment.images.values()]
    if len(set(images)) != len(images):
        return {"reason": "map is not injective"}
    return None


def verify_theorem2(family: SetFamily) -> TheoremReport:
    """Size bound |F| >= n+1 for butterfly-saturated families, via the
    injective singleton/chevron map and the membership of the empty set."""
    n = family.ground.n
    if n < 2:
        return _refused("T2", family, _SMALL_GROUND)
    bound = n + 1
    if not _butterfly_saturated(family):
        return _refused("T2", family, "family is not butterfly-saturated", bound)
    # present singletons map to themselves
    counterexample = _injection_failure(family, theorem2_assignment, _singleton_bits(family))
    if counterexample is None and not family.has_mask(0):
        counterexample = {"reason": "empty set missing from the family"}
    return _report("T2", family, bound, counterexample)


def verify_theorem3(family: SetFamily) -> TheoremReport:
    """Size bound |F| >= C(k,2) + k(n-k) for butterfly-saturated families with
    k >= 1 singletons, via the injective pair/chevron map."""
    n = family.ground.n
    if n < 2:
        return _refused("T3", family, _SMALL_GROUND)
    singles = _singleton_bits(family)
    k = len(singles)
    bound = comb(k, 2) + k * (n - k)
    if not _butterfly_saturated(family):
        return _refused("T3", family, "family is not butterfly-saturated", bound, k)
    if k == 0:
        return _refused("T3", family, "no singletons present; the bound is vacuous", bound, k)
    missing = _missing_singleton_pair(family, singles)
    if missing is not None:
        counterexample = {
            "pair": missing,
            "reason": "both singletons present but the pair is missing",
        }
    else:
        # present pairs through a present singleton map to themselves
        singles_mask = sum(singles)
        fixed = [b for b in family.bit_list if b.bit_count() == 2 and b & singles_mask]
        counterexample = _injection_failure(family, theorem3_assignment, fixed)
    return _report("T3", family, bound, counterexample, k)


def _difference_pairs(bits) -> Iterator[tuple[int, int, int]]:
    """Every ordered member pair (F, G) whose difference F minus G is one
    element, as (F, G, F minus G), in the order of ``bits`` for F, then G,
    made as they are read."""
    return ((f, g, d) for f in bits for g in bits if (d := f & ~g).bit_count() == 1)


def difference_pair_cover(family: SetFamily) -> dict:
    """For every ground element i, an ordered member pair (F, G) with
    F minus G = {i}. Assumes N-saturation; an uncovered element breaks the
    guarantee and raises. The scan stops once every element is covered."""
    ground = family.ground
    cover: dict = {}
    for f, g, d in _difference_pairs(family.bit_list):
        i = d.bit_length()
        if i not in cover:
            cover[i] = (SubsetMask(f, ground), SubsetMask(g, ground))
            if len(cover) == ground.n:
                break
    uncovered = [i for i in range(1, ground.n + 1) if i not in cover]
    if uncovered:
        raise ContractViolationError(
            f"no member pair isolates element(s) {uncovered}",
            detail={"uncovered": uncovered},
        )
    return cover


def _strong_difference_check(family: SetFamily) -> dict | None:
    """Per-member claim: for each member F and each i in F there are members
    A, B with A inside F and A minus B = {i}. Returns a counterexample (the
    first member in order, and its least uncovered element) or None."""
    bits = family.bit_list
    isolated = dict.fromkeys(bits, 0)  # member A -> the elements A minus B isolates
    for a, _, d in _difference_pairs(bits):
        isolated[a] |= d
    for f in bits:
        covered = 0
        for a, d in isolated.items():
            if a & f == a:
                covered |= d
        uncovered = f & ~covered
        if uncovered:
            return {
                "member": list(SubsetMask(f, family.ground).elements()),
                "element": (uncovered & -uncovered).bit_length(),
                "reason": "no inner difference pair",
            }
    return None


def verify_prop4(family: SetFamily, strong: bool = False) -> TheoremReport:
    """Size bound |F|^2 >= n for N-saturated families via the difference-pair
    cover; ``strong`` additionally checks the per-member inner claim."""
    n = family.ground.n
    if n < 2:
        return _refused("P4", family, _SMALL_GROUND)
    bound = isqrt(n - 1) + 1
    rep = saturation_report(family, n_poset())
    if not rep.saturated:
        return _refused("P4", family, "family is not N-saturated", bound)
    counterexample = None
    try:
        difference_pair_cover(family)
    except ContractViolationError as exc:
        counterexample = {"reason": str(exc), **(exc.detail or {})}
    if counterexample is None and strong:
        counterexample = _strong_difference_check(family)
    return _report("P4", family, bound, counterexample)
