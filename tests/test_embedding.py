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
    find_induced_copy,
    n_poset,
    poset_isomorphic,
    validate_poset,
)
from posetsat.core import _transitive_closure
from posetsat.embedding import _automorphism_orbits, _poset_tables

from conftest import family
from oracles import naive_has_copy, naive_orbit_representatives, naive_witnesses

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

    def test_twin_classes_collapse(self):
        # 2 * (8!)^2 automorphisms; one bottom and one top represent them all
        assert _automorphism_orbits(complete_bipartite_poset(8, 8)) == (0, 8)

    @given(
        size=st.integers(1, 6),
        pairs=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
        perm=st.permutations(range(6)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_orbits(self, size, pairs, perm):
        # relations only from lower to higher rank, then a relabelling
        less = [[False] * size for _ in range(size)]
        for a, b in pairs:
            if a < b < size:
                less[a][b] = True
        closed = _transitive_closure(less)
        rank = [p for p in perm if p < size]
        relabelled = [[closed[rank.index(a)][rank.index(b)] for b in range(size)]
                      for a in range(size)]
        q = validate_poset(relabelled)
        assert _automorphism_orbits(q) == naive_orbit_representatives(q)


def twin_chains(q, forced=None):
    """Twin classes (elements with identical relation rows) with at least two
    members, each in the search order of ``_poset_tables``, the forced
    element placed first and left out."""
    rel, order = _poset_tables(q)[:2]
    if forced is not None:
        order = (forced,) + tuple(x for x in order if x != forced)
    classes = {}
    for x in order:
        if x != forced:
            classes.setdefault(rel[x], []).append(x)
    return tuple(tuple(c) for c in classes.values() if len(c) > 1)


# poset -> twin chains of the unforced search, then of the search forced at
# each orbit representative
TWIN_CHAINS = {
    "B": {None: ((0, 1), (2, 3)), 0: ((2, 3),), 2: ((0, 1),)},
    "N": {None: (), 0: (), 1: (), 2: (), 3: ()},
    "K33": {None: ((0, 1, 2), (3, 4, 5)), 0: ((1, 2), (3, 4, 5)), 3: ((0, 1, 2), (4, 5))},
    "bipartite(2,3)": {None: ((0, 1), (2, 3, 4)), 0: ((2, 3, 4),), 2: ((0, 1), (3, 4))},
    "chain-3": {None: (), 0: (), 1: (), 2: ()},
    "antichain-3": {None: ((0, 1, 2),), 0: ((1, 2),)},
}
TWIN_POSETS = {
    "B": butterfly_poset(),
    "N": n_poset(),
    "K33": complete_bipartite_poset(3, 3),
    "bipartite(2,3)": complete_bipartite_poset(2, 3),
    "chain-3": chain_poset(3),
    "antichain-3": antichain_poset(3),
}


class TestTwinOrdering:
    @pytest.mark.parametrize("name", list(TWIN_CHAINS))
    def test_twin_chains_pinned(self, name):
        q = TWIN_POSETS[name]
        expected = TWIN_CHAINS[name]
        assert set(expected) == {None, *_automorphism_orbits(q)}
        for forced, chains in expected.items():
            assert twin_chains(q, forced) == chains

    @pytest.mark.parametrize("name", list(TWIN_CHAINS))
    def test_search_plan_follows_twin_chains(self, name):
        from posetsat.embedding import _search_plan

        q = TWIN_POSETS[name]
        for forced, chains in TWIN_CHAINS[name].items():
            order, _, prev = _search_plan(q, forced)
            links = {(p, x) for p, x in zip(prev, order) if p >= 0}
            assert links == {pair for chain in chains for pair in zip(chain, chain[1:])}

    @given(fam=small_family)
    @settings(max_examples=80, deadline=None)
    def test_witness_is_first_in_search_order(self, fam, butterfly, nposet):
        for q in (butterfly, nposet):
            order = _poset_tables(q)[1]
            keyed = [
                tuple(fam.bit_list.index(tup[x]) for x in order)
                for tup in naive_witnesses(fam.bit_list, q)
            ]
            w = find_induced_copy(fam, q)
            if not keyed:
                assert w is None
                continue
            first = min(keyed)
            assert [fam.bit_list.index(s.bits) for s in w.assignment] == [
                first[order.index(x)] for x in range(q.size)
            ]


def pinned(labels, sets):
    return [{"poset_element": lab, "set": list(s)} for lab, s in zip(labels, sets)]


# (poset, family, required set, image of each poset element or None). The
# required member is often not the newest index, and is sometimes a twin that
# must take a larger index than its partner.
REQUIRED_WITNESSES = [
    ("B", family(4, [1], [2], [3], [1, 2, 3], [1, 2, 4]), [2],
     [(2,), (1,), (1, 2, 3), (1, 2, 4)]),
    ("B", family(4, [1], [2], [3], [1, 2, 3], [1, 2, 4]), [1, 2, 4],
     [(1,), (2,), (1, 2, 4), (1, 2, 3)]),
    ("B", family(4, [1], [2], [3], [1, 2, 3], [1, 2, 4]), [3], None),
    ("N", family(4, [], [1], [2], [1, 2], [2, 3], [2, 4], [1, 2, 3]), [2, 4],
     [(1,), (1, 2), (2,), (2, 4)]),
    ("N", family(4, [], [1], [2], [1, 2], [2, 3], [2, 4], [1, 2, 3]), [], None),
    ("K33", family(6, [1], [2], [3], [4], [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 2, 3, 4, 5]),
     [2], [(2,), (1,), (3,), (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)]),
    ("K33", family(6, [1], [2], [3], [4], [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 2, 3, 4, 5]),
     [1, 2, 3, 5], [(1,), (2,), (3,), (1, 2, 3, 5), (1, 2, 3, 4), (1, 2, 3, 6)]),
    ("K33", family(6, [1], [2], [3], [4], [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 2, 3, 4, 5]),
     [4], None),
]


class TestRequiredWitnessPinned:
    @pytest.mark.parametrize("case", range(len(REQUIRED_WITNESSES)))
    def test_json(self, case):
        name, fam, required, sets = REQUIRED_WITNESSES[case]
        q = TWIN_POSETS[name]
        w = find_induced_copy(fam, q, required=SubsetMask.from_elements(fam.ground, required))
        if sets is None:
            assert w is None
        else:
            assert w.to_json_obj() == pinned(q.labels, sets)
