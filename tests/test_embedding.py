import pytest
from hypothesis import given, settings, strategies as st

from posetsat import (
    GroundSet,
    SetFamily,
    SubsetMask,
    UsageError,
    antichain_poset,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    count_induced_copies,
    find_induced_copy,
    n_poset,
    poset_isomorphic,
    validate_poset,
)
from posetsat.embedding import _automorphism_orbits

from conftest import family
from oracles import naive_has_copy, naive_witnesses

small_family = st.builds(
    lambda masks: SetFamily.from_masks(GroundSet(4), masks),
    st.sets(st.integers(0, 15), max_size=10),
)


class TestFindInducedCopy:
    def test_butterfly_witness(self, butterfly):
        fam = family(4, [1], [2], [1, 2, 3], [1, 2, 4])
        w = find_induced_copy(fam, butterfly)
        assert w is not None
        assert w.verify(fam)
        assert w.image_bits() == {0b0001, 0b0010, 0b0111, 0b1011}
        # bottoms land on the singletons, tops on the triples
        bottoms = {w.assignment[0].bits, w.assignment[1].bits}
        assert bottoms == {0b0001, 0b0010}

    def test_power_set_of_3_is_butterfly_free(self, butterfly):
        fam = SetFamily.from_masks(GroundSet(3), range(8))
        assert find_induced_copy(fam, butterfly) is None

    def test_n_witness_is_the_unique_one(self, nposet):
        fam = family(3, [], [1], [2], [1, 2], [2, 3])
        w = find_induced_copy(fam, nposet)
        assert w is not None
        by_label = {nposet.labels[i]: s.elements() for i, s in enumerate(w.assignment)}
        assert by_label == {"a": (1,), "b": (1, 2), "c": (2,), "d": (2, 3)}

    def test_required_must_be_member(self, butterfly):
        fam = family(4, [1], [2], [1, 2, 3], [1, 2, 4])
        with pytest.raises(UsageError):
            find_induced_copy(fam, butterfly, required=SubsetMask.from_elements(fam.ground, [3]))

    def test_required_appears_in_image(self, butterfly):
        fam = family(4, [1], [2], [3], [1, 2, 3], [1, 2, 4])
        req = SubsetMask.from_elements(fam.ground, [2])
        w = find_induced_copy(fam, butterfly, required=req)
        assert w is not None
        assert req.bits in w.image_bits()

    def test_no_copy_in_empty_or_tiny_families(self, butterfly):
        assert find_induced_copy(family(4), butterfly) is None
        assert find_induced_copy(family(4, [1], [2]), butterfly) is None

    def test_deterministic(self, nposet):
        fam = family(4, [], [1], [2], [1, 2], [2, 3], [2, 4], [1, 2, 3])
        w1 = find_induced_copy(fam, nposet)
        w2 = find_induced_copy(fam, nposet)
        assert w1 == w2


class TestAgainstNaiveOracle:
    @given(fam=small_family)
    @settings(max_examples=60, deadline=None)
    def test_presence_agrees(self, fam, butterfly, nposet, two_chain, two_antichain):
        for q in (butterfly, nposet, two_chain, two_antichain):
            fast = find_induced_copy(fam, q) is not None
            assert fast == naive_has_copy(fam.bit_list, q)

    @given(fam=small_family, required=st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_required_member_contract(self, fam, required, butterfly, nposet):
        if not fam.has_mask(required):
            return
        req = SubsetMask(required, fam.ground)
        for q in (butterfly, nposet):
            got = find_induced_copy(fam, q, required=req)
            expected = any(required in tup for tup in naive_witnesses(fam.bit_list, q))
            assert (got is not None) == expected
            if got is not None:
                assert required in got.image_bits()
                assert got.verify(fam)

    @given(fam=small_family, extra=st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_additions(self, fam, extra, butterfly, nposet):
        for q in (butterfly, nposet):
            if find_induced_copy(fam, q) is not None:
                assert find_induced_copy(fam.with_member(extra), q) is not None


class TestCountInducedCopies:
    def test_single_image(self, butterfly):
        fam = family(4, [1], [2], [1, 2, 3], [1, 2, 4])
        assert count_induced_copies(fam, butterfly, cap=10) == 1

    def test_free_family_counts_zero(self, butterfly):
        fam = SetFamily.from_masks(GroundSet(3), range(8))
        assert count_induced_copies(fam, butterfly, cap=10) == 0

    def test_cap_truncates(self, butterfly):
        fam = SetFamily.from_masks(GroundSet(4), range(16))
        assert count_induced_copies(fam, butterfly, cap=1) == 1

    def test_cap_must_be_positive(self, butterfly):
        with pytest.raises(UsageError):
            count_induced_copies(family(4), butterfly, cap=0)

    @given(fam=small_family)
    @settings(max_examples=40, deadline=None)
    def test_counts_distinct_images_of_naive_witnesses(self, fam, nposet):
        expected = len({frozenset(t) for t in naive_witnesses(fam.bit_list, nposet)})
        assert count_induced_copies(fam, nposet, cap=10_000) == expected


# poset -> one representative per automorphism orbit (smallest element)
ORBITS = {
    "B": (butterfly_poset(), (0, 2)),
    "bipartite(2,3)": (complete_bipartite_poset(2, 3), (0, 2)),
    "bipartite(3,2)": (complete_bipartite_poset(3, 2), (0, 3)),
    "N": (n_poset(), (0, 1, 2, 3)),
    "chain-3": (chain_poset(3), (0, 1, 2)),
    "antichain-3": (antichain_poset(3), (0,)),
}


class TestAutomorphismOrbits:
    @pytest.mark.parametrize("name", list(ORBITS))
    def test_representatives(self, name):
        q, reps = ORBITS[name]
        assert _automorphism_orbits(q) == reps

    @given(name=st.sampled_from(list(ORBITS)), data=st.data())
    def test_relabelling_is_isomorphic(self, name, data):
        q, reps = ORBITS[name]
        perm = data.draw(st.permutations(range(q.size)))
        less = [[False] * q.size for _ in range(q.size)]
        for a, b in q.strict_pairs():
            less[perm[a]][perm[b]] = True
        relabelled = validate_poset(less)
        assert poset_isomorphic(q, relabelled)
        assert poset_isomorphic(relabelled, q)
        assert len(_automorphism_orbits(relabelled)) == len(reps)
