import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from posetsat import (
    GroundSet,
    SetFamily,
    UsageError,
    butterfly_construction,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    enumerate_saturated_families,
    exact_sat_star,
    greedy_saturate,
    k2k_seed,
    kkk_seed,
    n_construction,
    n_poset,
    saturation_report,
)
from posetsat import embedding
from posetsat.core import SubsetMask, mask_key
from posetsat.embedding import (
    EmbeddingWitness,
    _FamilyIndex,
    _LatticeFamily,
    _lattice_search,
    _tracked_family,
    find_induced_copy,
)
from posetsat.solver import _saturated_walk

from conftest import CROSS_CHECK_POSETS, family
from oracles import naive_has_copy, naive_is_saturated, naive_unsaturated_sets


class TestIsFree:
    def test_construction_is_free(self, butterfly):
        assert find_induced_copy(butterfly_construction(4), butterfly) is None

    def test_chain_has_no_n(self, nposet):
        assert find_induced_copy(family(3, [], [1], [1, 2]), nposet) is None

    def test_explicit_butterfly(self, butterfly):
        assert find_induced_copy(family(4, [1], [2], [1, 2, 3], [1, 2, 4]), butterfly) is not None


class TestSaturationReport:
    def test_n_construction_saturated(self, nposet):
        rep = saturation_report(n_construction(5), nposet)
        assert rep.free and rep.saturated and not rep.unsaturated_sets

    def test_tiny_family_unsaturated(self, butterfly):
        fam = family(4, [])
        rep = saturation_report(fam, butterfly)
        assert rep.free and not rep.saturated
        unsat = {s.bits for s in rep.unsaturated_sets}
        assert 0b1 in unsat

    def test_butterfly_construction_saturated(self, butterfly):
        rep = saturation_report(butterfly_construction(4), butterfly)
        assert rep.saturated

    def test_non_free_family(self, butterfly):
        rep = saturation_report(family(4, [1], [2], [1, 2, 3], [1, 2, 4]), butterfly)
        assert not rep.free and not rep.saturated
        assert rep.witness_if_not_free is not None
        assert rep.witness_if_not_free.verify()
        assert rep.unsaturated_sets == ()

    def test_report_json_shape(self, nposet):
        obj = saturation_report(n_construction(4), nposet).to_json_obj()
        assert set(obj) == {"free", "saturated", "unsaturated", "witness"}
        assert obj["saturated"] is True and obj["unsaturated"] == []


class TestGreedySaturate:
    def test_from_k2k_seed_adds_only_small_sets(self, butterfly):
        seed = k2k_seed(6, 2)
        closed = greedy_saturate(seed, butterfly)
        assert saturation_report(closed, butterfly).saturated
        added = [b for b in closed.bit_list if not seed.has_mask(b)]
        assert added and all(b.bit_count() <= 2 for b in added)

    def test_empty_seed_n3_closes_to_power_set(self, butterfly):
        closed = greedy_saturate(family(3), butterfly)
        assert closed.bit_list == tuple(sorted(range(8), key=lambda b: (b.bit_count(), b)))

    def test_non_free_seed_rejected_with_witness(self, butterfly):
        seed = family(4, [1], [2], [1, 2, 3], [1, 2, 4])
        with pytest.raises(UsageError) as exc:
            greedy_saturate(seed, butterfly)
        assert exc.value.witness is not None
        assert exc.value.witness.verify(seed)

    def test_result_contains_seed(self, nposet):
        seed = family(5, [1], [2, 3])
        closed = greedy_saturate(seed, nposet)
        assert all(closed.has_mask(b) for b in seed.bit_list)
        assert saturation_report(closed, nposet).saturated

    def test_custom_order_still_saturates(self, butterfly):
        order = list(reversed(range(16)))
        closed = greedy_saturate(family(4), butterfly, order=order)
        assert saturation_report(closed, butterfly).saturated

    def test_incomplete_order_rejected(self, butterfly):
        with pytest.raises(UsageError):
            greedy_saturate(family(4), butterfly, order=[1, 2, 3])

    @pytest.mark.parametrize("bad", [-1, 0.5, "x", 8, 99, True, None])
    def test_candidate_outside_the_ground_set_rejected(self, butterfly, bad):
        # the order covers every subset of [3], plus one entry that is not
        # a subset mask
        with pytest.raises(UsageError, match="is not a subset mask of 1..3"):
            greedy_saturate(family(3), butterfly, order=[*range(8), bad])


class TestConstructions:
    @pytest.mark.parametrize(
        "n,size", [(3, 8), (4, 13), (5, 19), (6, 26)]
    )
    def test_butterfly_sizes(self, n, size):
        assert len(butterfly_construction(n)) == size

    def test_butterfly_n3_is_power_set(self):
        assert butterfly_construction(3).bit_list == tuple(
            sorted(range(8), key=lambda b: (b.bit_count(), b))
        )

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_n_construction_size_2n(self, n):
        assert len(n_construction(n)) == 2 * n

    def test_n_construction_members(self):
        fam = n_construction(4)
        expected = {0, 0b1, 0b10, 0b100, 0b1000, 0b11, 0b111, 0b1111}
        assert set(fam.bit_list) == expected

    def test_n_construction_saturated(self, nposet):
        assert saturation_report(n_construction(6), nposet).saturated

    def test_k2k_seed_members(self):
        fam = k2k_seed(5, 3)
        assert len(fam) == 10
        assert fam.has_mask(0) and fam.has_mask(0b11111)

    def test_k2k_seed_is_free(self, butterfly):
        assert find_induced_copy(k2k_seed(6, 2), butterfly) is None

    def test_k2k_seed_free_for_k3(self):
        q = complete_bipartite_poset(3, 2)
        assert find_induced_copy(k2k_seed(6, 3), q) is None

    def test_kkk_seed_members_explicit(self):
        fam = kkk_seed(5, 3)
        chain1 = [set(), {2}, {2, 3}, {2, 3, 4}, {2, 3, 4, 5}, {1, 2, 3, 4, 5}]
        chain2 = [set(), {1}, {1, 3}, {1, 3, 4}, {1, 3, 4, 5}, {1, 2, 3, 4, 5}]
        singletons = [{i} for i in range(1, 6)]
        expected = {frozenset(s) for s in chain1 + chain2 + singletons}
        assert {frozenset(m.elements()) for m in fam} == expected
        assert len(fam) == 13

    def test_kkk_seed_is_free(self):
        q = complete_bipartite_poset(3, 3)
        assert find_induced_copy(kkk_seed(6, 3), q) is None

    @pytest.mark.parametrize(
        "builder,args",
        [
            (butterfly_construction, (1,)),
            (n_construction, (1,)),
            (k2k_seed, (3, 3)),
            (k2k_seed, (4, 1)),
            (kkk_seed, (4, 3)),
            (kkk_seed, (5, 1)),
        ],
    )
    def test_parameter_validation(self, builder, args):
        with pytest.raises(UsageError):
            builder(*args)


class TestIrregularPatterns:
    """Patterns beyond the two headline posets keep the machinery honest."""

    @pytest.mark.parametrize(
        "pairs,size",
        [
            ([(0, 1), (0, 2), (1, 3), (2, 3)], 4),  # diamond
            ([(0, 1), (0, 2)], 3),                  # one bottom, two tops
        ],
    )
    def test_full_agreement_with_definition_over_3(self, pairs, size):
        from posetsat.core import _build_poset

        q = _build_poset(pairs, size)
        for fam_mask in range(256):
            bits = [s for s in range(8) if fam_mask >> s & 1]
            fam = SetFamily.from_masks(GroundSet(3), bits)
            assert saturation_report(fam, q).saturated == naive_is_saturated(bits, 3, q)


class TestSaturatedEqualsMaximalFree:
    @given(fam_mask=st.integers(0, 255))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_definition_over_3(self, fam_mask, butterfly, nposet):
        bits = [s for s in range(8) if fam_mask >> s & 1]
        fam = SetFamily.from_masks(GroundSet(3), bits)
        for q in (butterfly, nposet):
            assert saturation_report(fam, q).saturated == naive_is_saturated(bits, 3, q)

    @given(fam_mask=st.integers(0, 2**16 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_definition_over_4(self, fam_mask, nposet):
        bits = [s for s in range(16) if fam_mask >> s & 1]
        if len(bits) > 9:
            return
        fam = SetFamily.from_masks(GroundSet(4), bits)
        assert saturation_report(fam, nposet).saturated == naive_is_saturated(bits, 4, nposet)


@st.composite
def cross_check_cases(draw):
    """A cross-check poset and a family over [n], n = 2..5: random, closed
    greedily under a random order, or closed with one member removed. The
    5-element posets take closed families only up to n = 4: at n = 5 the
    all-tuples oracle spends over 10 s on one of them."""
    q = CROSS_CHECK_POSETS[draw(st.sampled_from(sorted(CROSS_CHECK_POSETS)))]
    kind = draw(st.sampled_from(["random", "closed", "removed"]))
    n = draw(st.integers(2, 5 if kind == "random" or q.size < 5 else 4))
    ground = GroundSet(n)
    if kind == "random":
        masks = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))
        return q, SetFamily.from_masks(ground, masks)
    order = draw(st.permutations(ground.all_masks()))
    fam = greedy_saturate(SetFamily.from_masks(ground, []), q, order=order)
    if kind == "removed":
        drop = draw(st.sampled_from(fam.bit_list))
        fam = SetFamily.from_masks(ground, [b for b in fam.bit_list if b != drop])
    return q, fam


class TestReportAgainstDefinition:
    @given(case=cross_check_cases())
    @settings(max_examples=80, deadline=None)
    def test_unsaturated_sets_match_oracle(self, case):
        q, fam = case
        rep = saturation_report(fam, q)
        assert rep.free == (not naive_has_copy(list(fam.bit_list), q))
        expected = naive_unsaturated_sets(fam.bit_list, fam.ground.n, q)
        assert [s.bits for s in rep.unsaturated_sets] == sorted(expected, key=mask_key)
        assert rep.saturated == (rep.free and not expected)


class TestOneIndexPerCall:
    """Up to the lattice limit a report or a closure of a free family builds
    no search index, since its freeness search runs on the lattice tables,
    and one of a family with a copy builds one, for its witness. Above the
    limit each builds one index, which the scan or closure then tracks."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        init = _FamilyIndex.__init__

        def counting_init(self, bits, n):
            count[0] += 1
            init(self, bits, n)

        monkeypatch.setattr(_FamilyIndex, "__init__", counting_init)
        return count

    @pytest.mark.parametrize(
        "fam,indexes",
        [
            (butterfly_construction(5), 0),
            (family(4, [1], [2], [3], [1, 2]), 0),
            (butterfly_construction(embedding._LATTICE_LIMIT), 0),
            (family(4, [1], [2], [1, 2, 3], [1, 2, 4]), 1),
            (butterfly_construction(11), 1),
        ],
        ids=["saturated", "unsaturated", "lattice-limit", "not-free", "member-index"],
    )
    def test_saturation_report_builds_an_index_only_when_needed(self, builds, butterfly,
                                                                fam, indexes):
        saturation_report(fam, butterfly)
        assert builds[0] == indexes

    def test_greedy_saturate_builds_no_index(self, builds, butterfly):
        greedy_saturate(k2k_seed(6, 2), butterfly)
        assert builds[0] == 0

    def test_member_index_greedy_saturate_builds_one_index(self, builds, butterfly):
        greedy_saturate(n_construction(11), butterfly)
        assert builds[0] == 1

    def test_rejected_greedy_seed_builds_one_index(self, builds, butterfly):
        with pytest.raises(UsageError):
            greedy_saturate(family(4, [1], [2], [1, 2, 3], [1, 2, 4]), butterfly)
        assert builds[0] == 1


class TestMemberIndexBelowTheLimit:
    """With the lattice limit at 0 every report and closure tracks on a
    member index, so that tracker stays tested at the sizes where the
    lattice tracker runs; both must give identical results."""

    @pytest.mark.parametrize("name", sorted(CROSS_CHECK_POSETS))
    def test_reports_and_closures_agree(self, monkeypatch, name):
        q = CROSS_CHECK_POSETS[name]
        rng = random.Random(name)
        cases = []  # (family, candidate order for a free one, else None)
        for n in range(1, 5):
            ground = GroundSet(n)
            for _ in range(4):
                seed = []
                for s in rng.sample(range(1 << n), min(5, 1 << n)):
                    if not naive_has_copy(seed + [s], q):
                        seed.append(s)
                order = rng.sample(range(1 << n), 1 << n)
                cases.append((SetFamily.from_masks(ground, seed), order))
                masks = [s for s in range(1 << n) if rng.random() < 0.5]
                cases.append((SetFamily.from_masks(ground, masks), None))

        def run():
            out = []
            for fam, order in cases:
                out.append(saturation_report(fam, q).to_json_obj())
                if order is not None:
                    out.append(greedy_saturate(fam, q).bit_list)
                    out.append(greedy_saturate(fam, q, order).bit_list)
            return out

        lattice = run()
        monkeypatch.setattr(embedding, "_LATTICE_LIMIT", 0)
        assert isinstance(_tracked_family(1, q), _FamilyIndex)
        assert run() == lattice

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("name", ["B", "N"])
    def test_agree_at_the_sizes_that_changed_tracker(self, monkeypatch, name, n):
        """Reports and closures at n = 9 and 10, which ran on a member index
        while the limit was 8: the construction, it less {1, 2, 3}, and it
        plus a set that makes a copy; closures of the empty family in
        canonical and in a random order, and of the construction less its
        unsaturated prefix."""
        q = CROSS_CHECK_POSETS[name]
        fam = (butterfly_construction if name == "B" else n_construction)(n)
        ground, empty = fam.ground, SetFamily.from_masks(fam.ground, [])
        minus = SetFamily.from_masks(ground, [b for b in fam.bit_list if b != 0b111])
        extra = next(s for s in range(1 << n) if not fam.has_mask(s))
        plus = SetFamily.from_masks(ground, [*fam.bit_list, extra])
        order = random.Random(f"{name}:{n}").sample(range(1 << n), 1 << n)

        def run():
            reports = [saturation_report(f, q).to_json_obj() for f in (fam, minus, plus)]
            closures = [greedy_saturate(empty, q).bit_list, greedy_saturate(empty, q, order).bit_list,
                        greedy_saturate(minus, q, order).bit_list]
            return reports, closures

        lattice = run()
        assert isinstance(_tracked_family(n, q), _LatticeFamily)
        assert lattice[0][0]["saturated"] and not lattice[0][1]["saturated"]
        assert lattice[0][2]["witness"] is not None
        monkeypatch.setattr(embedding, "_LATTICE_LIMIT", n - 1)
        assert isinstance(_tracked_family(n, q), _FamilyIndex)
        assert run() == lattice


class TestLatticeFreenessSearch:
    """Up to the lattice limit the freeness search of reports and closures
    runs on the lattice tables, with the members as one bitmap of masks."""

    @pytest.mark.parametrize("name", sorted(CROSS_CHECK_POSETS))
    def test_lattice_search_matches_the_oracle(self, name):
        q = CROSS_CHECK_POSETS[name]
        rng = random.Random(name)
        verdicts = set()
        for n in range(1, 6):
            ground = GroundSet(n)
            for trial in range(12):
                bits = rng.sample(range(1 << n), rng.randint(0, min(10, 1 << n)))
                if trial % 2 and q.size <= n:
                    # plant a copy: x goes to the elements at or below x,
                    # relabelled at random
                    perm = rng.sample(range(n), n)
                    planted = [sum(1 << perm[y] for y in range(q.size) if y == x or q.less[y][x])
                               for x in range(q.size)]
                    bits = planted + [s for s in bits if s not in planted][:10 - q.size]
                found = _lattice_search(q, n, sum(1 << s for s in bits))
                expected = naive_has_copy(bits, q)
                assert (found is not None) == expected
                verdicts.add(expected)
                if found is not None:
                    witness = EmbeddingWitness(q, tuple(SubsetMask(s, ground) for s in found))
                    assert witness.verify(SetFamily.from_masks(ground, bits))
        assert verdicts == {False, True}

    @pytest.mark.parametrize("n", [5, 8, 9, 10])
    @pytest.mark.parametrize("name", ["B", "N"])
    def test_non_free_witness_matches_find_induced_copy(self, name, n):
        """A construction plus sets that each make a copy: the report's
        witness, and the one a rejected closure seed carries, are the first
        copy of the member-index search."""
        q = CROSS_CHECK_POSETS[name]
        fam = (butterfly_construction if name == "B" else n_construction)(n)
        rng = random.Random(f"{name}:{n}")
        missing = [s for s in range(1 << n) if not fam.has_mask(s)]
        for extra in rng.sample(missing, 4):
            plus = SetFamily.from_masks(fam.ground, [*fam.bit_list, extra])
            expected = find_induced_copy(plus, q)
            assert expected is not None
            report = saturation_report(plus, q)
            assert not report.free
            assert report.witness_if_not_free.to_json_obj() == expected.to_json_obj()
            with pytest.raises(UsageError) as raised:
                greedy_saturate(plus, q)
            assert raised.value.witness.to_json_obj() == expected.to_json_obj()


@st.composite
def small_families(draw):
    q = CROSS_CHECK_POSETS[draw(st.sampled_from(sorted(CROSS_CHECK_POSETS)))]
    n = draw(st.integers(1, 4))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=1 << n))
    return q, SetFamily.from_masks(GroundSet(n), masks)


class TestReportWitness:
    @given(case=small_families())
    @settings(max_examples=150, deadline=None)
    def test_witness_matches_find_induced_copy(self, case):
        q, fam = case
        witness = saturation_report(fam, q).witness_if_not_free
        expected = find_induced_copy(fam, q)
        assert (witness is None) == (expected is None)
        if expected is not None:
            assert witness.to_json_obj() == expected.to_json_obj()


class TestScanWideConstructions:
    """The constructions of the benchmark's scan-wide part, and each without
    the prefix {1..5}, against one forced search per missing set."""

    @pytest.mark.parametrize("negative", [False, True], ids=["whole", "minus-prefix"])
    @pytest.mark.parametrize(
        "build,q,n",
        [
            (butterfly_construction, butterfly_poset(), 12),
            (butterfly_construction, butterfly_poset(), 13),
            (n_construction, n_poset(), 13),
            (n_construction, n_poset(), 14),
        ],
        ids=["B12", "B13", "N13", "N14"],
    )
    def test_report_matches_probe_loop(self, build, q, n, negative):
        fam = build(n)
        if negative:
            fam = SetFamily.from_masks(fam.ground, [b for b in fam.bit_list if b != 0b11111])
        index = _FamilyIndex(fam.bit_list, n)
        expected = []
        missing = [b for b in fam.ground.all_masks() if not fam.has_mask(b)]
        for s in missing:  # one forced search per missing set
            index.append(s)
            if index.search(q, forced_index=len(fam)) is None:
                expected.append(s)
            index.pop()
        rep = saturation_report(fam, q)
        assert rep.free
        assert [s.bits for s in rep.unsaturated_sets] == expected
        assert (0b11111 in expected) == negative


OPEN_REGION_POSETS = sorted(CROSS_CHECK_POSETS.items()) + [("chain1", chain_poset(1))]


class TestOpenRegion:
    """``open[-1]`` of a tracking index equals the oracle's unsaturated sets
    after ``track`` and after every append and pop."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_open_matches_oracle(self, data):
        _, q = data.draw(st.sampled_from(OPEN_REGION_POSETS))
        n = data.draw(st.integers(1, 4))
        seed: list[int] = []
        for s in data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4, unique=True)):
            if not naive_has_copy(seed + [s], q):
                seed.append(s)
        index = _FamilyIndex(seed, n)

        def assert_open_is_exact():
            expected = naive_unsaturated_sets(index.bits, n, q)
            assert index.open[-1] == sum(1 << s for s in expected)

        index.track(q)
        assert_open_is_exact()
        added = 0
        for grow in data.draw(st.lists(st.booleans(), max_size=8)):
            if grow and index.open[-1]:
                opened = [s for s in range(1 << n) if index.open[-1] >> s & 1]
                index.append(data.draw(st.sampled_from(opened)))
                added += 1
            elif added:
                index.pop()
                added -= 1
            assert_open_is_exact()


class TestNoGarbageCycles:
    """A closure, a report and the saturated walk free all they allocate by
    reference counting: the nested recursive searches leave no cycle for the
    collector, whether they run out, stop early or raise."""

    def test_closure_and_report_leave_nothing_to_collect(self):
        gc.collect()
        gc.disable()
        try:
            greedy_saturate(kkk_seed(7, 3), complete_bipartite_poset(3, 3))
            assert gc.collect() == 0
            saturation_report(butterfly_construction(8), butterfly_poset())
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("run", [
        lambda: list(_saturated_walk(GroundSet(3), butterfly_poset())),
        lambda: exact_sat_star(4, butterfly_poset()),
        lambda: enumerate_saturated_families(5, butterfly_poset(), cap=3),
        # the budget stops the walk with an exception deep in its recursion
        lambda: exact_sat_star(6, butterfly_poset(), budget_s=0.05),
    ], ids=["walk-3", "exact-4", "capped-5", "expired-6"])
    def test_walks_leave_nothing_to_collect(self, run):
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()
