import io
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from posetsat import (
    Chevron,
    ContractViolationError,
    GroundSet,
    SetFamily,
    SubsetMask,
    UsageError,
    butterfly_construction,
    difference_pair_cover,
    enumerate_saturated_families,
    lemma1_check,
    n_construction,
    sample_saturated_families,
    theorem2_assignment,
    theorem3_assignment,
    verify_prop4,
    verify_theorem2,
    verify_theorem3,
)

from posetsat import saturation, suite, theorems

from conftest import family
from oracles import naive_strong_difference


@pytest.fixture(scope="module")
def saturated_n4(butterfly):
    return enumerate_saturated_families(4, butterfly)


@pytest.fixture(scope="module")
def sampled_n5(butterfly):
    return sample_saturated_families(5, butterfly, 24, rng_seed=1005)


def drop_one(fam):
    """A saturated family with one member removed stays free but loses
    maximality."""
    return SetFamily.from_masks(fam.ground, fam.bit_list[:-1])


class TestChevron:
    def test_invariants_enforced(self):
        g = GroundSet(4)

        def m(*e):
            return SubsetMask.from_elements(g, e)

        Chevron(m(1, 2, 3), m(1, 2, 4), m(1, 2))
        with pytest.raises(UsageError):
            Chevron(m(1, 2, 3), m(1, 2), m(1))  # tops comparable
        with pytest.raises(UsageError):
            Chevron(m(1, 2, 3), m(1, 2, 4), m(1, 3))  # bottom not below both


class TestLemma1:
    def test_construction_has_all_pairs(self):
        rep = lemma1_check(butterfly_construction(5))
        assert rep.passed and rep.hypotheses_hold

    def test_unsaturated_family_reported_not_thrown(self):
        fam = family(3, [], [1], [2], [1, 2], [1, 2, 3])
        rep = lemma1_check(fam)
        assert not rep.hypotheses_hold
        assert not rep.passed
        # the closure information itself was still computed: {1,2} is present
        assert rep.counterexample == {"reason": "family is not butterfly-saturated"}

    def test_all_saturated_n4_families_pass(self, saturated_n4):
        assert all(lemma1_check(fam).passed for fam in saturated_n4)

    def test_n1_refused(self):
        rep = lemma1_check(family(1, []))
        assert not rep.hypotheses_hold and not rep.passed


class TestSingletonChevrons:
    def test_chevron_properties_on_enumerated_families(self, saturated_n4):
        checked = 0
        for fam in saturated_n4:
            chevrons = theorem2_assignment(fam).chevrons
            for i in range(1, 5):
                if fam.has_mask(1 << (i - 1)):
                    continue
                ch = chevrons[1 << (i - 1)]
                checked += 1
                # probe is below both tops, the bottom avoids i, image present
                assert not (ch.c.bits >> (i - 1)) & 1
                assert fam.has_mask(ch.a.bits) and fam.has_mask(ch.b.bits)
                assert fam.has_mask(ch.c.bits)
                assert fam.has_mask(ch.c.bits | 1 << (i - 1))
        assert checked > 0


class TestTheorem2:
    def test_construction_passes(self):
        rep = verify_theorem2(butterfly_construction(5))
        assert rep.passed and rep.bound_value == 6 and rep.family_size == 19

    def test_all_saturated_n4_families_pass(self, saturated_n4):
        for fam in saturated_n4:
            rep = verify_theorem2(fam)
            assert rep.passed and rep.family_size >= 5
            assert fam.has_mask(0)

    def test_hypothesis_gate(self):
        rep = verify_theorem2(drop_one(butterfly_construction(4)))
        assert not rep.hypotheses_hold and not rep.passed

    def test_n1_refused(self):
        rep = verify_theorem2(family(1, [], [1]))
        assert not rep.hypotheses_hold and not rep.passed

    def test_assignment_export(self, saturated_n4):
        fam = next(
            f
            for f in saturated_n4
            if any(not f.has_mask(1 << i) for i in range(4))
        )
        assignment = theorem2_assignment(fam)
        tsv = assignment.to_tsv()
        lines = tsv.strip().splitlines()
        assert lines[0] == "domain\tA\tB\tC\timage"
        assert len(lines) == 1 + len(assignment.domain)


class TestPairChevrons:
    def test_valid_pair_on_greedy_instance(self, butterfly):
        fam = sample_saturated_families(5, butterfly, 1, rng_seed=1005)[0]
        chevrons = theorem3_assignment(fam).chevrons
        done = False
        for i in range(1, 6):
            for j in range(i + 1, 6):
                pair = (1 << (i - 1)) | (1 << (j - 1))
                if fam.has_mask(pair):
                    continue
                present = (1 if fam.has_mask(1 << (i - 1)) else 0) + (
                    1 if fam.has_mask(1 << (j - 1)) else 0
                )
                if present != 1:
                    continue
                assert fam.has_mask(chevrons[pair].c.bits | pair)
                done = True
        assert done


def incomparable(a, b):
    return a & b != a and a & b != b


def first_chevron(fam, probe):
    """The chevron (C, A, B) through ``probe`` by brute force: C a member
    incomparable to the probe, largest first, then the least mask; A before
    B the first two incomparable members strictly above C u probe, in
    family order. None when there is none."""
    for c in sorted(fam.bit_list, key=lambda b: (-b.bit_count(), b)):
        need = c | probe
        ups = [m for m in fam.bit_list if m & need == need and m != need]
        pairs = [(a, b) for x, a in enumerate(ups) for b in ups[x + 1:] if incomparable(a, b)]
        if incomparable(c, probe) and pairs:
            return (c,) + pairs[0]
    return None


class TestMaximalChevrons:
    """Theorems 2 and 3 map each item of their domain, a missing singleton or
    a missing pair with one singleton present, to C u item for a chevron
    (A, B, C) through it with |C| maximal."""

    @pytest.mark.parametrize(
        "assign", [theorem2_assignment, theorem3_assignment], ids=["singletons", "pairs"]
    )
    def test_maximality_of_bottom(self, assign, saturated_n4, sampled_n5):
        # against a brute-force first chevron; no saturated family at n = 4
        # has a pair in the domain of theorem 3
        checked = 0
        for fam in saturated_n4 + sampled_n5:
            assignment = assign(fam)
            for item in assignment.domain:
                probe = item.bits
                ch = assignment.chevrons[probe]
                a, b, c = ch.a.bits, ch.b.bits, ch.c.bits
                need = c | probe
                assert incomparable(c, probe)
                for top in (a, b):  # members strictly above C u item
                    assert fam.has_mask(top) and top & need == need and top != need
                assert incomparable(a, b)
                assert assignment.images[probe].bits == need and fam.has_mask(need)
                assert (c, a, b) == first_chevron(fam, probe)
                checked += 1
        assert checked > 0


class TestTheorem3:
    def test_construction_passes(self):
        rep = verify_theorem3(butterfly_construction(6))
        assert rep.passed
        assert rep.k == 6
        assert rep.bound_value == comb(6, 2)
        assert rep.family_size == 26

    def test_all_saturated_n4_families_pass(self, saturated_n4):
        for fam in saturated_n4:
            if any(m.cardinality == 1 for m in fam):
                assert verify_theorem3(fam).passed

    def test_vacuous_without_singletons(self, butterfly):
        fam = sample_saturated_families(7, butterfly, 1, rng_seed=7007)[0]
        assert not any(m.cardinality == 1 for m in fam)
        rep = verify_theorem3(fam)
        assert not rep.hypotheses_hold and rep.k == 0
        assert "vacuous" in rep.counterexample["reason"]

    def test_hypothesis_gate(self):
        rep = verify_theorem3(drop_one(butterfly_construction(4)))
        assert not rep.hypotheses_hold and not rep.passed

    def test_pair_assignment_export(self, butterfly):
        fam = sample_saturated_families(5, butterfly, 1, rng_seed=1005)[0]
        assignment = theorem3_assignment(fam)
        tsv = assignment.to_tsv()
        assert tsv.startswith("domain\tA\tB\tC\timage")


class TestDifferencePairCover:
    def test_construction_cover(self):
        cover = difference_pair_cover(n_construction(4))
        assert set(cover) == {1, 2, 3, 4}
        for i, (f, g) in cover.items():
            assert f.bits & ~g.bits == 1 << (i - 1)
        # deterministic first hit for element 1 is ({1}, {})
        f, g = cover[1]
        assert f.elements() == (1,) and g.elements() == ()

    def test_uncovered_element_raises(self):
        fam = family(3, [], [1, 2, 3])
        with pytest.raises(ContractViolationError) as exc:
            difference_pair_cover(fam)
        assert exc.value.detail["uncovered"] == [1, 2, 3]

    def test_greedy_instances_fully_covered(self, nposet):
        for n in (5, 8):
            for fam in sample_saturated_families(n, nposet, 3, rng_seed=n):
                cover = difference_pair_cover(fam)
                assert set(cover) == set(range(1, n + 1))
                # the first pair per element, F then G in family order
                for i, (f, g) in cover.items():
                    assert (f.bits, g.bits) == next(
                        (a, b) for a in fam.bit_list for b in fam.bit_list if a & ~b == 1 << (i - 1)
                    )


class TestProp4:
    def test_construction_passes(self):
        rep = verify_prop4(n_construction(9))
        assert rep.passed and rep.family_size == 18 and rep.bound_value == 3

    def test_hypothesis_gate(self):
        rep = verify_prop4(drop_one(n_construction(5)))
        assert not rep.hypotheses_hold and not rep.passed

    def test_strong_variant(self):
        assert verify_prop4(n_construction(6), strong=True).passed

    def test_strong_on_greedy_instance(self, nposet):
        fam = sample_saturated_families(6, nposet, 1, rng_seed=66)[0]
        assert verify_prop4(fam, strong=True).passed

    def test_n1_refused(self):
        rep = verify_prop4(family(1, [], [1]))
        assert not rep.hypotheses_hold and not rep.passed

    def test_report_json_keys(self):
        obj = verify_prop4(n_construction(4)).to_json_obj()
        assert set(obj) == {
            "theorem",
            "n",
            "k",
            "bound",
            "size",
            "hypotheses_hold",
            "passed",
            "counterexample",
        }


NOT_B = {"reason": "family is not butterfly-saturated"}
NOT_N = {"reason": "family is not N-saturated"}
SMALL = {"reason": "ground sets of size 1 are outside the analysed range"}


def _pinned(theorem, n, k, bound, size, held, cex=None):
    return {
        "theorem": theorem,
        "n": n,
        "k": k,
        "bound": bound,
        "size": size,
        "hypotheses_hold": held,
        "passed": held and cex is None,
        "counterexample": cex,
    }


def _pinned_families():
    b4 = butterfly_construction(4)
    return {
        "butterfly-4": b4,
        "n-4": n_construction(4),
        "free-unsaturated": drop_one(b4),
        "has-copy": family(4, [], [1], [2], [1, 2, 3], [1, 2, 4]),
        "greedy-5": family(
            5, [], [2], [4], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4], [2, 5], [3, 5],
            [4, 5], [1, 2, 3], [1, 3, 4], [1, 2, 5], [1, 3, 5], [2, 3, 5], [1, 4, 5],
            [2, 4, 5], [3, 4, 5], [1, 2, 3, 5], [1, 2, 4, 5], [1, 2, 3, 4, 5],
        ),
        "ground-1": family(1, [], [1]),
    }


PINNED_REPORTS = {
    "butterfly-4": (
        _pinned("L1", 4, 4, 0, 13, True),
        _pinned("T2", 4, None, 5, 13, True),
        _pinned("T3", 4, 4, 6, 13, True),
        _pinned("P4", 4, None, 2, 13, False, NOT_N),
    ),
    "n-4": (
        _pinned("L1", 4, 4, 0, 8, False, {"missing_pair": [1, 3]}),
        _pinned("T2", 4, None, 5, 8, False, NOT_B),
        _pinned("T3", 4, 4, 6, 8, False, NOT_B),
        _pinned("P4", 4, None, 2, 8, True),
    ),
    "free-unsaturated": (
        _pinned("L1", 4, 4, 0, 12, False, NOT_B),
        _pinned("T2", 4, None, 5, 12, False, NOT_B),
        _pinned("T3", 4, 4, 6, 12, False, NOT_B),
        _pinned("P4", 4, None, 2, 12, False, NOT_N),
    ),
    "has-copy": (
        _pinned("L1", 4, 2, 0, 5, False, {"missing_pair": [1, 2]}),
        _pinned("T2", 4, None, 5, 5, False, NOT_B),
        _pinned("T3", 4, 2, 5, 5, False, NOT_B),
        _pinned("P4", 4, None, 2, 5, False, NOT_N),
    ),
    "greedy-5": (
        _pinned("L1", 5, 2, 0, 22, True),
        _pinned("T2", 5, None, 6, 22, True),
        _pinned("T3", 5, 2, 7, 22, True),
        _pinned("P4", 5, None, 3, 22, False, NOT_N),
    ),
    "ground-1": (
        _pinned("L1", 1, None, 0, 2, False, SMALL),
        _pinned("T2", 1, None, 0, 2, False, SMALL),
        _pinned("T3", 1, None, 0, 2, False, SMALL),
        _pinned("P4", 1, None, 0, 2, False, SMALL),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
@pytest.mark.parametrize(
    "position,verifier",
    list(enumerate((lemma1_check, verify_theorem2, verify_theorem3, verify_prop4))),
    ids=["L1", "T2", "T3", "P4"],
)
def test_pinned_reports(name, position, verifier):
    fam = _pinned_families()[name]
    assert verifier(fam).to_json_obj() == PINNED_REPORTS[name][position]


def test_battery_makes_one_butterfly_verdict_per_family(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return saturation.saturation_report(*args, **kwargs)

    monkeypatch.setattr(suite, "saturation_report", counted)
    monkeypatch.setattr(theorems, "saturation_report", counted)
    out, err = io.StringIO(), io.StringIO()
    assert suite.run_paper_suite(1, out, err)
    golden = (Path(__file__).parent / "paper_battery_seed1.txt").read_text()
    assert out.getvalue() == golden
    # one verdict for each of the 62 butterfly instances serves lemma 1 and
    # theorems 2 and 3; a verdict per verifier call would make 383 reports
    assert len(calls) == 267


def test_verifiers_share_one_verdict_per_family(monkeypatch):
    calls = []

    def counted(fam, q):
        calls.append(fam)
        return saturation.saturation_report(fam, q)

    monkeypatch.setattr(theorems, "saturation_report", counted)
    first, second = butterfly_construction(5), butterfly_construction(6)
    for fam in (first, second):
        for verify in (lemma1_check, verify_theorem2, verify_theorem3):
            assert verify(fam).passed
    assert calls == [first, second]


class TestStrongDifferenceOracle:
    """``_strong_difference_check`` agrees with the definition, on passing
    families and, through the counterexample's member and element, on
    failing ones."""

    @staticmethod
    def assert_agrees(fam):
        got = theorems._strong_difference_check(fam)
        want = naive_strong_difference(fam.bit_list, fam.ground.n)
        if want is None:
            assert got is None
        else:
            member, element = want
            assert got == {
                "member": list(SubsetMask(member, fam.ground).elements()),
                "element": element,
                "reason": "no inner difference pair",
            }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_n_saturated_family(self, nposet, n):
        for fam in enumerate_saturated_families(n, nposet):
            self.assert_agrees(fam)

    @given(
        st.sampled_from([4, 5]).flatmap(
            lambda n: st.builds(
                SetFamily.from_masks,
                st.just(GroundSet(n)),
                st.sets(st.integers(0, (1 << n) - 1), max_size=10),
            )
        )
    )
    def test_any_family(self, fam):
        self.assert_agrees(fam)


NO_CHEVRON = "no butterfly through the missing {} {}; the family cannot be butterfly-saturated"
NOT_MEMBER = "chevron image {} for {} {} is not a family member"


def _fake_chevrons(monkeypatch, n, table):
    """Make the chevron search answer from ``table``, which maps a probe's
    elements to the elements of the chevron (A, B, C) through it."""
    g = GroundSet(n)

    def fake(family, probe):
        a, b, c = table[SubsetMask(probe, g).elements()]
        return Chevron(*(SubsetMask.from_elements(g, e) for e in (a, b, c)))

    monkeypatch.setattr(theorems, "_max_chevron_through", fake)


def _empty_assignment(family):
    return theorems.ChevronAssignment((), {}, {})


class TestInjectionFailures:
    """Each failure branch of theorems 2 and 3. No saturated family reaches
    them, so the saturation verdict is replaced, the families are built by
    hand and, where the paper's argument rules a branch out, the chevron
    search or the map is replaced."""

    @pytest.fixture(autouse=True)
    def _saturated(self, monkeypatch):
        monkeypatch.setattr(theorems, "_butterfly_saturated", lambda fam: True)

    def test_t2_no_chevron(self):
        rep = verify_theorem2(family(3, [], [1, 2, 3]))
        assert rep.counterexample == {
            "singleton": [1], "reason": NO_CHEVRON.format("singleton", "{1}"),
        }
        assert rep.hypotheses_hold and not rep.passed

    def test_t2_image_not_a_member(self):
        fam = family(4, [], [2], [1, 2, 3], [1, 2, 4])
        assert verify_theorem2(fam).counterexample == {
            "singleton": [1], "reason": NOT_MEMBER.format("{1,2}", "singleton", "{1}"),
        }
        with pytest.raises(ContractViolationError) as exc:
            theorem2_assignment(fam)
        assert exc.value.detail == {"singleton": [1]}

    def test_t2_not_injective(self, monkeypatch):
        # {1} and {2} both map to {1,2}
        _fake_chevrons(monkeypatch, 3, {
            (1,): ((1, 2), (2, 3), (2,)),
            (2,): ((1, 2), (1, 3), (1,)),
        })
        rep = verify_theorem2(family(3, [], [3], [1, 2]))
        assert rep.counterexample == {"reason": "map is not injective"}

    def test_t2_empty_set_missing(self):
        rep = verify_theorem2(family(2, [1], [2], [1, 2]))
        assert rep.counterexample == {"reason": "empty set missing from the family"}

    def test_t2_size_below_bound(self, monkeypatch):
        # an injective map into the family forces the bound, so the map is
        # replaced by one that assigns nothing
        monkeypatch.setattr(theorems, "theorem2_assignment", _empty_assignment)
        rep = verify_theorem2(family(3, [], [1, 2, 3]))
        assert rep.counterexample == {"reason": "size below bound", "bound": 4}

    def test_t3_lemma1_pair_comes_first(self):
        # {1,2} has no chevron, but the missing pair of lemma 1 is reported
        rep = verify_theorem3(family(3, [], [2], [3], [1, 2, 3]))
        assert rep.counterexample == {
            "pair": [2, 3], "reason": "both singletons present but the pair is missing",
        }
        assert rep.k == 2 and rep.hypotheses_hold and not rep.passed

    def test_t3_no_chevron(self):
        rep = verify_theorem3(family(3, [], [1], [1, 2, 3]))
        assert rep.counterexample == {
            "pair": [1, 2], "reason": NO_CHEVRON.format("pair", "{1,2}"),
        }

    def test_t3_image_not_a_member(self):
        fam = family(6, [], [1], [3, 4], [1, 2, 3, 4, 5], [1, 2, 3, 4, 6])
        assert verify_theorem3(fam).counterexample == {
            "pair": [1, 2], "reason": NOT_MEMBER.format("{1,2,3,4}", "pair", "{1,2}"),
        }

    def test_t3_not_injective(self, monkeypatch):
        # {1,2} and {1,3} both map to {1,2,3}
        _fake_chevrons(monkeypatch, 3, {
            (1, 2): ((1, 3), (2, 3), (3,)),
            (1, 3): ((1, 2), (2, 3), (2,)),
        })
        rep = verify_theorem3(family(3, [], [1], [1, 2, 3]))
        assert rep.counterexample == {"reason": "map is not injective"}

    def test_t3_size_below_bound(self, monkeypatch):
        monkeypatch.setattr(theorems, "theorem3_assignment", _empty_assignment)
        rep = verify_theorem3(family(3, [1]))
        assert rep.counterexample == {"reason": "size below bound", "bound": 2}


class TestProp4Failures:
    """Each failure branch of proposition 4. An N-saturated family reaches
    none of them, so the saturation verdict is replaced and, where the
    difference-pair cover forces the bound, the cover too."""

    @pytest.fixture(autouse=True)
    def _saturated(self, monkeypatch):
        verdict = saturation.SaturationReport(True, None, (), True)
        monkeypatch.setattr(theorems, "saturation_report", lambda fam, q: verdict)

    def test_uncovered_elements(self):
        rep = verify_prop4(family(3, [], [1, 2, 3]))
        assert rep.counterexample == {
            "reason": "no member pair isolates element(s) [1, 2, 3]",
            "uncovered": [1, 2, 3],
        }
        assert rep.hypotheses_hold and not rep.passed

    def test_no_inner_difference_pair(self):
        fam = family(3, [1], [1, 2], [2, 3])
        assert verify_prop4(fam).passed
        assert verify_prop4(fam, strong=True).counterexample == {
            "member": [2, 3], "element": 2, "reason": "no inner difference pair",
        }

    def test_size_below_bound(self, monkeypatch):
        # k members isolate at most k(k-1) elements, so the cover is replaced
        monkeypatch.setattr(theorems, "difference_pair_cover", lambda fam: {})
        rep = verify_prop4(family(5, [], [1]))
        assert rep.counterexample == {"reason": "size below bound", "bound": 3}
        assert rep.bound_value == 3 and not rep.passed
