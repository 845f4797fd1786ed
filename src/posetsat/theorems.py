"""Empirical verifiers for the lower-bound arguments on saturated families.

Each verifier re-derives its hypothesis (saturation of the input family)
before checking the structural claims, and reports counterexamples instead of
aborting: a failure here means either an implementation bug or a genuine
discrepancy, and both need to be inspectable. The butterfly verifiers (lemma
1, theorems 2 and 3) take one saturation verdict, which the claim battery
computes once per family for all three.

The chevron machinery mirrors the injection arguments: a missing singleton
{i} (or a missing pair with exactly one singleton present) must complete a
butterfly whose two tops and remaining bottom form a chevron (A, B, C) with C
below both tops and the tops incomparable; taking |C| maximal makes the map
i -> C u {i} injective into the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .core import SetFamily, SubsetMask, butterfly_poset, n_poset
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
    counterexample was found."""
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


def _butterfly_saturated(family: SetFamily) -> bool:
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


def _max_chevron_through(family: SetFamily, probe: int) -> Chevron | None:
    """Best chevron completing a butterfly with ``probe`` as a minimal
    element: bottom C incomparable to the probe with |C| maximal, tops two
    incomparable members containing both; canonical tie-break on (C, A, B)."""
    bits = family.bit_list
    ground = family.ground
    for c in sorted(bits, key=lambda b: (-b.bit_count(), b)):
        # the other bottom must be incomparable to the probe (for a singleton
        # probe that means disjoint and nonempty; a pair may share an element)
        if c & probe == c or c & probe == probe:
            continue
        need = c | probe
        ups = [m for m in bits if m & need == need and m != need]
        for i, a in enumerate(ups):
            for b in ups[i + 1:]:
                if a & b != a and b & a != b:
                    return Chevron(
                        SubsetMask(a, ground), SubsetMask(b, ground), SubsetMask(c, ground)
                    )
    return None


def assign_chevron_to_singleton(family: SetFamily, i: int) -> Chevron:
    """Chevron assigned to the missing singleton {i} of a butterfly-saturated
    family. The family is assumed saturated; a missing chevron is then a
    broken contract, not a usage error."""
    n = family.ground.n
    if not 1 <= i <= n:
        raise UsageError(f"element {i} outside ground set 1..{n}")
    s = 1 << (i - 1)
    if family.has_mask(s):
        raise UsageError(f"singleton {{{i}}} is already a family member")
    chevron = _max_chevron_through(family, s)
    if chevron is None:
        raise ContractViolationError(
            f"no butterfly through the missing singleton {{{i}}}; "
            "the family cannot be butterfly-saturated"
        )
    return chevron


def assign_chevron_to_pair(family: SetFamily, pair: SubsetMask) -> Chevron:
    """Chevron assigned to a missing pair {i,j} with exactly one of its
    singletons in the family; also requires the image C u {i,j} to be a
    member, as the injection argument guarantees. A broken guarantee raises
    with ``detail == {"pair": [i, j]}``."""
    if pair.ground != family.ground:
        raise UsageError("pair over a different ground set")
    if pair.cardinality != 2:
        raise UsageError(f"expected a 2-element set, got {pair}")
    if family.has_mask(pair.bits):
        raise UsageError(f"pair {pair} is already a family member")
    present = sum(1 for e in pair.elements() if family.has_mask(1 << (e - 1)))
    if present != 1:
        raise UsageError(
            f"pair {pair} must have exactly one singleton in the family, found {present}"
        )
    detail = {"pair": list(pair.elements())}
    chevron = _max_chevron_through(family, pair.bits)
    if chevron is None:
        raise ContractViolationError(
            f"no butterfly through the missing pair {pair}; "
            "the family cannot be butterfly-saturated",
            detail,
        )
    image = chevron.c.bits | pair.bits
    if not family.has_mask(image):
        raise ContractViolationError(
            f"chevron image {SubsetMask(image, family.ground)} for pair {pair} "
            "is not a family member",
            detail,
        )
    return chevron


def _chevron_assignment(family: SetFamily, domain: list[int], assign) -> ChevronAssignment:
    """Chevron ``assign(item)`` and image C u item for each domain mask, in
    domain order."""
    ground = family.ground
    chevrons = {}
    images = {}
    for item in domain:
        ch = assign(item)
        chevrons[item] = ch
        images[item] = SubsetMask(ch.c.bits | item, ground)
    return ChevronAssignment(tuple(SubsetMask(b, ground) for b in domain), chevrons, images)


def theorem2_assignment(family: SetFamily) -> ChevronAssignment:
    """Chevron map over all missing singletons (assumes butterfly-saturation)."""
    missing = [1 << i for i in range(family.ground.n) if not family.has_mask(1 << i)]
    return _chevron_assignment(
        family, missing, lambda s: assign_chevron_to_singleton(family, s.bit_length())
    )


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
    return _chevron_assignment(
        family, pairs, lambda p: assign_chevron_to_pair(family, SubsetMask(p, family.ground))
    )


def lemma1_check(family: SetFamily) -> TheoremReport:
    """Pair closure on singletons: if {i} and {j} are members of a
    butterfly-saturated family, so is {i,j}. The closure scan runs even when
    the saturation hypothesis fails, so the report carries both facts."""
    return _lemma1(family, _butterfly_saturated(family))


def verify_theorem2(family: SetFamily) -> TheoremReport:
    """Size bound |F| >= n+1 for butterfly-saturated families, via the
    injective singleton/chevron map and the membership of the empty set."""
    return _theorem2(family, _butterfly_saturated(family))


def verify_theorem3(family: SetFamily) -> TheoremReport:
    """Size bound |F| >= C(k,2) + k(n-k) for butterfly-saturated families with
    k >= 1 singletons, via the injective pair/chevron map."""
    return _theorem3(family, _butterfly_saturated(family))


def _lemma1(family: SetFamily, saturated: bool) -> TheoremReport:
    if family.ground.n < 2:
        return _refused("L1", family, _SMALL_GROUND)
    singles = _singleton_bits(family)
    missing = _missing_singleton_pair(family, singles)
    counterexample = None if missing is None else {"missing_pair": missing}
    if counterexample is None and not saturated:
        counterexample = {"reason": "family is not butterfly-saturated"}
    return _report("L1", family, 0, counterexample, len(singles), hold=saturated)


def _theorem2(family: SetFamily, saturated: bool) -> TheoremReport:
    n = family.ground.n
    if n < 2:
        return _refused("T2", family, _SMALL_GROUND)
    bound = n + 1
    if not saturated:
        return _refused("T2", family, "family is not butterfly-saturated", bound)
    counterexample = None
    images = {}
    try:
        assignment = theorem2_assignment(family)
    except ContractViolationError as exc:
        assignment = None
        counterexample = {"reason": str(exc)}
    if assignment is not None:
        for i in range(1, n + 1):
            s = 1 << (i - 1)
            if family.has_mask(s):
                images[i] = s
                continue
            image = assignment.images[s]
            chev = assignment.chevrons[s]
            if chev.c.bits & s:
                counterexample = {"singleton": i, "reason": "chevron bottom contains i"}
                break
            if not family.has_mask(image.bits):
                counterexample = {
                    "singleton": i,
                    "reason": "image is not a family member",
                    "image": list(image.elements()),
                }
                break
            images[i] = image.bits
        else:
            if len(set(images.values())) != n:
                collisions = sorted(
                    [i for i in images if list(images.values()).count(images[i]) > 1]
                )
                counterexample = {"reason": "map is not injective", "elements": collisions}
            elif not family.has_mask(0):
                counterexample = {"reason": "empty set missing from the family"}
    size_ok = len(family) >= bound
    if counterexample is None and not size_ok:
        counterexample = {"reason": "size below bound", "bound": bound}
    return _report("T2", family, bound, counterexample)


def _theorem3(family: SetFamily, saturated: bool) -> TheoremReport:
    n = family.ground.n
    if n < 2:
        return _refused("T3", family, _SMALL_GROUND)
    singles = _singleton_bits(family)
    k = len(singles)
    bound = comb(k, 2) + k * (n - k)
    if not saturated:
        return _refused("T3", family, "family is not butterfly-saturated", bound, k)
    if k == 0:
        return _refused("T3", family, "no singletons present; the bound is vacuous", bound, k)
    # the first offending pair in lexicographic order is reported
    counterexample = None
    missing = _missing_singleton_pair(family, singles)
    try:
        assignment = theorem3_assignment(family)
    except ContractViolationError as exc:
        pair = exc.detail["pair"]
        if missing is None or pair < missing:
            counterexample = {"pair": pair, "reason": str(exc)}
    if counterexample is None and missing is not None:
        counterexample = {
            "pair": missing,
            "reason": "both singletons present but the pair is missing",
        }
    if counterexample is None:
        # present pairs through a present singleton map to themselves
        singles_mask = sum(singles)
        images = [b for b in family.bit_list if b.bit_count() == 2 and b & singles_mask]
        images += [img.bits for img in assignment.images.values()]
        if len(set(images)) != len(images):
            counterexample = {"reason": "pair map is not injective"}
        elif len(family) < bound:
            counterexample = {"reason": "size below bound", "bound": bound}
    return _report("T3", family, bound, counterexample, k)


def difference_pair_cover(family: SetFamily) -> dict:
    """For every ground element i, an ordered member pair (F, G) with
    F minus G = {i}. Assumes N-saturation; an uncovered element breaks the
    guarantee and raises."""
    ground = family.ground
    bits = family.bit_list
    cover: dict = {}
    for f in bits:
        for g in bits:
            d = f & ~g
            if d and d & (d - 1) == 0:
                i = d.bit_length()
                if i not in cover:
                    cover[i] = (SubsetMask(f, ground), SubsetMask(g, ground))
    uncovered = [i for i in range(1, ground.n + 1) if i not in cover]
    if uncovered:
        raise ContractViolationError(
            f"no member pair isolates element(s) {uncovered}",
            detail={"uncovered": uncovered},
        )
    return cover


def _strong_difference_check(family: SetFamily) -> dict | None:
    """Per-member claim: for each member F and each i in F there are members
    A, B with A inside F and A minus B = {i}. Returns a counterexample or None."""
    bits = family.bit_list
    for f in bits:
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            found = False
            for a in bits:
                if a & f != a or not a & low:
                    continue
                for b in bits:
                    if a & ~b == low:
                        found = True
                        break
                if found:
                    break
            if not found:
                ground = family.ground
                return {
                    "member": list(SubsetMask(f, ground).elements()),
                    "element": low.bit_length(),
                    "reason": "no inner difference pair",
                }
    return None


def verify_prop4(family: SetFamily, strong: bool = False) -> TheoremReport:
    """Size bound |F|^2 >= n for N-saturated families via the difference-pair
    cover; ``strong`` additionally checks the per-member inner claim."""
    n = family.ground.n
    if n < 2:
        return _refused("P4", family, _SMALL_GROUND)
    s = isqrt(n)
    bound = s if s * s == n else s + 1
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
    if counterexample is None and len(family) ** 2 < n:
        counterexample = {"reason": "size below bound", "bound": bound}
    return _report("P4", family, bound, counterexample)
