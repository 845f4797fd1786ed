import io
import random
import tokenize
import tracemalloc
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from posetsat import (
    EmbeddingWitness,
    GroundSet,
    SetFamily,
    SubsetMask,
    UsageError,
    antichain_poset,
    butterfly_construction,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    exact_sat_star,
    find_induced_copy,
    n_poset,
    poset_isomorphic,
    validate_poset,
)
from posetsat import embedding
from posetsat.core import _transitive_closure
from posetsat.embedding import (
    _FamilyIndex,
    _completing_sets,
    _completion_plan,
    _completion_walks,
    _height,
    _poset_tables,
    _regions,
    _search_kernel,
    _search_plan,
)
from posetsat.hasse import cover_edges
from posetsat.saturation import saturation_report

from conftest import CROSS_CHECK_POSETS, family
from oracles import (
    naive_has_copy,
    naive_has_copy_up_to_twins,
    naive_orbit_representatives,
    naive_unsaturated_sets,
    naive_witnesses,
    tuple_matches,
)

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
        assert {s.bits for s in w.assignment} == {0b0001, 0b0010, 0b0111, 0b1011}
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
        assert req in w.assignment

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
                assert req in got.assignment
                assert got.verify(fam)

    @given(fam=small_family, extra=st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_additions(self, fam, extra, butterfly, nposet):
        for q in (butterfly, nposet):
            if find_induced_copy(fam, q) is not None:
                bigger = SetFamily.from_masks(fam.ground, fam.bit_list + (extra,))
                assert find_induced_copy(bigger, q) is not None


# poset -> the least element of each twin class
TWIN_HEADS = {
    "B": (butterfly_poset(), (0, 2)),
    "bipartite(2,3)": (complete_bipartite_poset(2, 3), (0, 2)),
    "bipartite(3,2)": (complete_bipartite_poset(3, 2), (0, 3)),
    "N": (n_poset(), (0, 1, 2, 3)),
    "chain-3": (chain_poset(3), (0, 1, 2)),
    "antichain-3": (antichain_poset(3), (0,)),
}


def twin_heads(q):
    """The least element of each class of elements with equal rows and
    columns in ``q.less``."""
    rows = [(q.less[x], tuple(row[x] for row in q.less)) for x in range(q.size)]
    return tuple(x for x in range(q.size) if rows.index(rows[x]) == x)


def relabelled_poset(size, pairs, perm):
    """The order on ``range(size)`` generated by the pairs (a, b) with
    a < b, with element a renamed to the a-th entry of ``perm`` below
    ``size``."""
    less = [[False] * size for _ in range(size)]
    for a, b in pairs:
        if a < b < size:
            less[a][b] = True
    closed = _transitive_closure(less)
    rank = [p for p in perm if p < size]
    return validate_poset(
        [[closed[rank.index(a)][rank.index(b)] for b in range(size)] for a in range(size)]
    )


@st.composite
def small_posets(draw):
    """Relabelled posets of at most five elements: disjoint chains, whose
    automorphisms need not be twin swaps, or random orders."""
    if draw(st.booleans()):
        lengths = draw(
            st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ls: sum(ls) <= 5)
        )
        size, pairs = 0, set()
        for k in lengths:
            pairs |= {(size + i, size + i + 1) for i in range(k - 1)}
            size += k
    else:
        size = draw(st.integers(1, 5))
        pairs = draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4))))
    return relabelled_poset(size, pairs, draw(st.permutations(range(size))))


@st.composite
def posets_with_families(draw):
    """A poset from ``small_posets`` and a family over {1..m}, m its size:
    the principal down-sets of some of its elements, which form a copy of
    the order they induce, plus up to two other sets."""
    q = draw(small_posets())
    m = q.size
    downsets = [sum(1 << y for y in range(m) if y == x or q.less[y][x]) for x in range(m)]
    keep = draw(st.sets(st.integers(0, m - 1)))
    extra = draw(st.sets(st.integers(0, (1 << m) - 1), max_size=2))
    return q, SetFamily.from_masks(GroundSet(m), {downsets[x] for x in keep} | extra)


class TestTwinClassHeads:
    @pytest.mark.parametrize("name", list(TWIN_HEADS))
    def test_representatives(self, name):
        q, reps = TWIN_HEADS[name]
        assert _poset_tables(q)[1] == reps

    @given(name=st.sampled_from(list(TWIN_HEADS)), data=st.data())
    def test_relabelling_is_isomorphic(self, name, data):
        q, reps = TWIN_HEADS[name]
        perm = data.draw(st.permutations(range(q.size)))
        less = [[False] * q.size for _ in range(q.size)]
        for a, b in q.strict_pairs():
            less[perm[a]][perm[b]] = True
        relabelled = validate_poset(less)
        assert poset_isomorphic(q, relabelled)
        assert poset_isomorphic(relabelled, q)
        assert len(_poset_tables(relabelled)[1]) == len(reps)

    def test_twin_classes_collapse(self):
        # 2 * (8!)^2 automorphisms; one bottom and one top represent them all
        assert _poset_tables(complete_bipartite_poset(8, 8))[1] == (0, 8)

    @given(
        size=st.integers(1, 6),
        pairs=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
        perm=st.permutations(range(6)),
    )
    # two disjoint 2-chains: orbits {0, 2} and {1, 3}, but no twins
    @example(size=4, pairs={(0, 1), (2, 3)}, perm=[0, 1, 2, 3, 4, 5])
    @settings(max_examples=150, deadline=None)
    def test_heads_cover_naive_orbits(self, size, pairs, perm):
        # each automorphism orbit is a union of twin classes, so the least
        # element of an orbit heads its own twin class
        q = relabelled_poset(size, pairs, perm)
        heads = _poset_tables(q)[1]
        assert heads == twin_heads(q)
        assert set(naive_orbit_representatives(q)) <= set(heads)


class TestPosetIsomorphic:
    @given(p=small_posets(), q=small_posets(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_every_permutation(self, p, q, data):
        m = p.size
        # half the draws compare p with a relabelling of itself
        if data.draw(st.booleans()):
            perm = data.draw(st.permutations(range(m)))
            q = validate_poset([[p.less[perm[a]][perm[b]] for b in range(m)] for a in range(m)])
        expected = m == q.size and any(
            all(p.less[a][b] == q.less[perm[a]][perm[b]] for a in range(m) for b in range(m))
            for perm in permutations(range(m))
        )
        assert poset_isomorphic(p, q) == expected


def comparability_first(q, forced=()):
    """The search order, restated from its rule: the ``forced`` elements,
    then at each step the unplaced element comparable to the most placed
    ones, ties going to the element comparable to the most elements, then
    to the smaller label."""

    def comparable(x, ys):
        return sum(q.less[x][y] or q.less[y][x] for y in ys)

    order = list(forced)
    while len(order) < q.size:
        order.append(min(
            (x for x in range(q.size) if x not in order),
            key=lambda x: (-comparable(x, order), -comparable(x, range(q.size)), x),
        ))
    return tuple(order)


def twin_chains(q, forced=None):
    """Twin classes (elements with identical relation rows) with at least two
    members, each in comparability-first search order, the forced element
    placed first and left out."""
    rows = [(q.less[x], tuple(row[x] for row in q.less)) for x in range(q.size)]
    classes = {}
    for x in comparability_first(q, () if forced is None else (forced,)):
        if x != forced:
            classes.setdefault(rows[x], []).append(x)
    return tuple(tuple(c) for c in classes.values() if len(c) > 1)


# poset -> twin chains of the unforced search, then of the search forced at
# each orbit representative
TWIN_CHAINS = {
    "B": {None: ((0, 1), (2, 3)), 0: ((2, 3),), 2: ((0, 1),)},
    "N": {None: (), 0: (), 1: (), 2: (), 3: ()},
    "K33": {None: ((0, 1, 2), (3, 4, 5)), 0: ((3, 4, 5), (1, 2)), 3: ((0, 1, 2), (4, 5))},
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


# poset -> search order of the unforced search, then of the search forced at
# each twin class head; the bottoms and tops of K_{s,t} alternate
SEARCH_ORDERS = {
    "B": {None: (0, 2, 1, 3), 0: (0, 2, 1, 3), 2: (2, 0, 1, 3)},
    "N": {None: (1, 2, 0, 3), 0: (0, 1, 2, 3), 1: (1, 2, 0, 3), 2: (2, 1, 0, 3), 3: (3, 2, 1, 0)},
    "K33": {None: (0, 3, 1, 4, 2, 5), 0: (0, 3, 1, 4, 2, 5), 3: (3, 0, 1, 4, 2, 5)},
    "bipartite(2,3)": {None: (0, 2, 1, 3, 4), 0: (0, 2, 1, 3, 4), 2: (2, 0, 1, 3, 4)},
    "chain-3": {None: (0, 1, 2), 0: (0, 1, 2), 1: (1, 0, 2), 2: (2, 0, 1)},
}


@st.composite
def planted_k33_families(draw):
    """A family over [6] with the sets of a relabelled copy of K_{3,3}
    (three singletons below three 4-sets), but for at most one, and up to
    three others; at most nine members, so the naive oracle stays fast."""
    perm = draw(st.permutations(range(6)))
    low = sum(1 << perm[i] for i in range(3))
    planted = {1 << perm[i] for i in range(3)} | {low | 1 << perm[i] for i in range(3, 6)}
    dropped = draw(st.sets(st.sampled_from(sorted(planted)), max_size=1))
    extra = draw(st.sets(st.integers(0, 63), max_size=3))
    return SetFamily.from_masks(GroundSet(6), planted - dropped | extra)


class TestTwinOrdering:
    @pytest.mark.parametrize("name", list(TWIN_CHAINS))
    def test_twin_chains_pinned(self, name):
        q = TWIN_POSETS[name]
        expected = TWIN_CHAINS[name]
        assert set(expected) == {None, *_poset_tables(q)[1]}
        for forced, chains in expected.items():
            assert twin_chains(q, forced) == chains

    @pytest.mark.parametrize("name", list(TWIN_CHAINS))
    def test_search_plan_follows_twin_chains(self, name):
        q = TWIN_POSETS[name]
        for forced, chains in TWIN_CHAINS[name].items():
            order, _, prev = _search_plan(q, () if forced is None else (forced,))
            links = {(p, x) for p, x in zip(prev, order) if p >= 0}
            assert links == {pair for chain in chains for pair in zip(chain, chain[1:])}

    @pytest.mark.parametrize("name", list(SEARCH_ORDERS))
    def test_search_orders_pinned(self, name):
        q = TWIN_POSETS[name]
        expected = SEARCH_ORDERS[name]
        assert set(expected) == {None, *_poset_tables(q)[1]}
        for forced, order in expected.items():
            forced = () if forced is None else (forced,)
            assert comparability_first(q, forced) == order
            assert _search_plan(q, forced)[0] == order

    @given(name=st.sampled_from([*CROSS_CHECK_POSETS, "K33"]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_witness_is_first_in_search_order(self, name, data):
        """The unforced search returns the first copy among all copies in
        comparability-first order: forward checking drops none of them."""
        if name == "K33":
            q, fam = TWIN_POSETS[name], data.draw(planted_k33_families())
        else:
            q, fam = CROSS_CHECK_POSETS[name], data.draw(small_family)
        order = comparability_first(q)
        keyed = [
            tuple(fam.bit_list.index(tup[x]) for x in order)
            for tup in naive_witnesses(fam.bit_list, q)
        ]
        w = find_induced_copy(fam, q)
        if not keyed:
            assert w is None
            return
        assert w.verify(fam)
        first = min(keyed)
        assert [fam.bit_list.index(s.bits) for s in w.assignment] == [
            first[order.index(x)] for x in range(q.size)
        ]

    @given(fam=small_family)
    @settings(max_examples=200, deadline=None)
    def test_forced_witness_is_first_in_search_order(self, fam, butterfly, nposet):
        """With every member required in turn, the witness comes from the
        first twin class head p that has a copy through the member at p,
        and is the first such copy in the search order forced at p."""
        for q in (butterfly, nposet, complete_bipartite_poset(2, 3)):
            witnesses = list(naive_witnesses(fam.bit_list, q))
            for required in fam.members:
                expected = first_forced_copy(fam, q, witnesses, required.bits, _poset_tables(q)[1])
                assert forced_copy_indices(fam, q, required) == expected

    @given(case=posets_with_families())
    @settings(max_examples=200, deadline=None)
    def test_posets_with_more_symmetry_than_twins(self, case):
        """On posets whose automorphisms need not be twin swaps, saturation
        reports match the naive scan, and forced witnesses follow the
        first-witness rule over the twin class heads, which picks the same
        copy as the rule over one element per automorphism orbit."""
        q, fam = case
        report = saturation_report(fam, q)
        assert sorted(s.bits for s in report.unsaturated_sets) == naive_unsaturated_sets(
            fam.bit_list, fam.ground.n, q
        )
        witnesses = list(naive_witnesses(fam.bit_list, q))
        for required in fam.members:
            expected = first_forced_copy(fam, q, witnesses, required.bits, twin_heads(q))
            assert expected == first_forced_copy(
                fam, q, witnesses, required.bits, naive_orbit_representatives(q)
            )
            assert forced_copy_indices(fam, q, required) == expected


def first_forced_copy(fam, q, witnesses, required, reps):
    """Member indices per poset element of the copy that the forced search
    should return: the first p in ``reps`` with a copy among ``witnesses``
    that has ``required`` at p, and its first such copy in the search order
    forced at p; None when no p has one."""
    for p in reps:
        forced_order = comparability_first(q, (p,))
        keyed = [
            tuple(fam.bit_list.index(tup[x]) for x in forced_order)
            for tup in witnesses
            if tup[p] == required
        ]
        if keyed:
            first = min(keyed)
            return [first[forced_order.index(x)] for x in range(q.size)]
    return None


def forced_copy_indices(fam, q, required):
    """Member indices per poset element of ``find_induced_copy`` through
    ``required``, or None."""
    w = find_induced_copy(fam, q, required=required)
    return None if w is None else [fam.bit_list.index(s.bits) for s in w.assignment]


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


@lru_cache(maxsize=None)
def _copies(name, n):
    """Every copy of a cross-check poset among the subsets of [n]."""
    return list(naive_witnesses(range(1 << n), CROSS_CHECK_POSETS[name]))


def witness(q, n, *sets):
    g = GroundSet(n)
    return EmbeddingWitness(q, tuple(SubsetMask.from_elements(g, e) for e in sets))


class TestWitnessVerify:
    """``verify`` is the independent recheck of every witness the search
    returns, so each way a hand-built witness can be wrong must fail it."""

    def test_valid_witness_passes(self, two_chain):
        assert witness(two_chain, 2, [1], [1, 2]).verify()
        assert witness(two_chain, 2, [1], [1, 2]).verify(family(2, [1], [1, 2]))

    # the long one is a copy plus a repeat of one of its sets: it has as many
    # distinct sets as the poset has elements, and its first two are a copy
    @pytest.mark.parametrize("sets", [[[1]], [[1], [1, 2], [1]]], ids=["short", "long"])
    def test_wrong_length(self, two_chain, sets):
        assert not witness(two_chain, 2, *sets).verify()

    def test_repeated_set(self, two_antichain):
        # the same set twice relates to itself as incomparable elements do
        assert not witness(two_antichain, 2, [1], [1]).verify()

    def test_set_outside_the_family(self, two_chain):
        w = witness(two_chain, 2, [1], [1, 2])
        assert not w.verify(family(2, [1], [2]))

    @pytest.mark.parametrize(
        "q, sets",
        [
            (chain_poset(2), [[1], [2]]),  # below, but mapped to incomparable sets
            (chain_poset(2), [[1, 2], [1]]),  # below, but mapped to a superset
            (antichain_poset(2), [[1], [1, 2]]),  # incomparable, but mapped to a subset
            (antichain_poset(2), [[1, 2], [2]]),  # incomparable, but mapped to a superset
        ],
        ids=["chain-incomparable", "chain-reversed", "antichain-subset", "antichain-superset"],
    )
    def test_wrong_relation(self, q, sets):
        assert not witness(q, 2, *sets).verify()

    @given(name=st.sampled_from(sorted(CROSS_CHECK_POSETS)), n=st.integers(1, 3), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_tuple_oracle(self, name, n, data):
        q = CROSS_CHECK_POSETS[name]
        subsets = st.integers(0, (1 << n) - 1)
        tuples = st.lists(subsets, min_size=q.size - 1, max_size=q.size + 1).map(tuple)
        copies = _copies(name, n)
        if copies:  # real copies too, so both verdicts come up often
            tuples = tuples | st.sampled_from(copies)
        tup = data.draw(tuples)
        members = data.draw(st.none() | st.sets(subsets))
        g = GroundSet(n)
        w = EmbeddingWitness(q, tuple(SubsetMask(b, g) for b in tup))
        fam = None if members is None else SetFamily.from_masks(g, members)
        expected = (
            len(tup) == q.size
            and len(set(tup)) == q.size
            and tuple_matches(tup, q)
            and (members is None or set(tup) <= members)
        )
        assert w.verify(fam) == expected



class TestRegions:
    """A tracked index builds each member's region bitmaps once, when the
    member is there at ``track`` or joins; an untracked index builds none."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_regions_match_their_definition(self, n):
        everything = (1 << (1 << n)) - 1
        for u in range(1 << n):
            incomp, inside, containing = _regions(u, n)
            assert incomp & everything == sum(
                1 << s for s in range(1 << n) if s & u not in (s, u)
            )
            assert inside == sum(1 << s for s in range(1 << n) if s & u == s)
            assert containing == sum(1 << s for s in range(1 << n) if s & u == u)

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]

        def counting_regions(u, n):
            count[0] += 1
            return _regions(u, n)

        monkeypatch.setattr(embedding, "_regions", counting_regions)
        return count

    def test_one_build_per_member_and_append(self, builds, butterfly):
        index = _FamilyIndex([0b000, 0b001, 0b010], 3)
        assert builds[0] == 0
        index.track(butterfly)
        assert builds[0] == 3
        appended = 0
        for _ in range(2):
            while index.open[-1]:
                index.append((index.open[-1] & -index.open[-1]).bit_length() - 1)
                appended += 1
            for _ in range(2):
                index.pop()
            index.completing_sets(index.open[-1])
            assert builds[0] == 3 + appended
        assert len(index.regions) == len(index.bits)

    def test_untracked_searches_hold_no_regions(self, builds, butterfly):
        fam = butterfly_construction(18)
        for run in (lambda: find_induced_copy(fam, butterfly), lambda: cover_edges(fam)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the regions of all 188 members would take about 14 MB
            assert peak < 2 << 20
        assert builds[0] == 0


class TestLazyWalkBinding:
    """A tracked index runs its completion walks, one plan per class head and
    per (head, twin-class head) pair, built once per poset, only once the
    family plus one set can hold a copy of the poset."""

    @pytest.fixture
    def plans(self, monkeypatch):
        calls = []

        def counting_plan(q, fixed):
            calls.append(fixed)
            return _completion_plan(q, fixed)

        _completion_walks.cache_clear()
        monkeypatch.setattr(embedding, "_completion_plan", counting_plan)
        yield calls
        _completion_walks.cache_clear()

    def test_small_family_binds_no_walk(self, plans):
        # 26 sets and a 64-element chain: no copy of it fits in the family
        # plus one set, so the report needs no plan at all
        fam = butterfly_construction(6)
        report = saturation_report(fam, chain_poset(64))
        assert report.free and not report.saturated
        assert len(report.unsaturated_sets) == 64 - len(fam) == 38
        assert plans == []

    def test_walks_bind_once_a_copy_through_a_new_set_is_possible(self, plans):
        q = chain_poset(3)
        heads, pairs = _poset_tables(q)[1:]
        index = _FamilyIndex([0b000], 3)
        index.track(q)
        assert plans == []
        assert index.open[-1] == 0b11111110
        index.append(0b001)
        assert sorted(plans) == sorted([(p,) for p in heads] + list(pairs))
        assert index.open[-1] == 0b01010100  # {2}, {3} and {2, 3}
        bound = len(plans)
        index.append(0b110)
        index.pop()
        index.pop()
        index.completing_sets(index.open[-1])
        # another index over the same poset reuses the walks
        again = _FamilyIndex([0b000, 0b001], 3)
        again.track(q)
        assert again.open[-1] == 0b01010100
        assert len(plans) == bound


def longest_chain(q):
    """The most elements of q that pairwise compare, by brute force."""
    return max(
        k for k in range(1, q.size + 1) for xs in combinations(range(q.size), k)
        if all(q.less[a][b] or q.less[b][a] for a, b in combinations(xs, 2))
    )


class TestHeightGuard:
    """An induced copy maps a chain of q to a chain of sets, and a chain
    over [n] has at most n + 1 sets, so a poset with a longer chain blocks
    no set and its completion walks are never built."""

    @given(
        size=st.integers(1, 6),
        pairs=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
        perm=st.permutations(range(6)),
    )
    def test_height_is_the_longest_chain(self, size, pairs, perm):
        q = relabelled_poset(size, pairs, perm)
        assert _height(q) == longest_chain(q)

    @pytest.fixture
    def no_plans(self, monkeypatch):
        def refuse(q, fixed):
            raise AssertionError("a completion plan was built")

        _completion_walks.cache_clear()
        monkeypatch.setattr(embedding, "_completion_plan", refuse)
        yield
        _completion_walks.cache_clear()

    def test_too_tall_a_poset_builds_no_walk(self, no_plans):
        q = chain_poset(32)
        fam = SetFamily.from_masks(GroundSet(5), range(1, 32))
        report = saturation_report(fam, q)
        assert report.free and not report.saturated
        assert [s.bits for s in report.unsaturated_sets] == [0]
        result = exact_sat_star(5, q, budget_s=30)
        assert result.exact and result.value == 32


def completion_order(q, fixed):
    """The order of a completion walk, restated from its rule: the fixed
    elements, then at each step the free element comparable to the most
    placed ones other than the hole ``fixed[0]``, ties going to one
    comparable to the hole, then to the element comparable to the fewest
    elements, then to the smaller label."""

    def comparable(x, ys):
        return sum(q.less[x][y] or q.less[y][x] for y in ys)

    hole = fixed[0]
    order = list(fixed)
    while len(order) < q.size:
        order.append(min(
            (x for x in range(q.size) if x not in order),
            key=lambda x: (-comparable(x, order[1:]), -comparable(x, [hole]),
                           comparable(x, range(q.size)), x),
        ))
    return tuple(order)


class TestCompletionPlans:
    @pytest.mark.parametrize("name", ["B", "N", "K33"])
    def test_walks_follow_their_rule_and_twin_chains(self, name):
        """Every completion walk places the free elements in the order its
        rule gives, chains each twin class in that order, and checks each
        step against every placed element but the hole. A walk through a
        member x first places an element comparable to x when one is free.
        The second plan of each hole follows the search forced at it."""
        q = TWIN_POSETS[name]
        rows = [(q.less[x], tuple(row[x] for row in q.less)) for x in range(q.size)]
        rel, heads, pairs = _poset_tables(q)
        every, search_first, through = _completion_walks(q)
        walks = [((p,), every[k][2], completion_order(q, (p,))) for k, p in enumerate(heads)]
        walks += [((p,), search_first[k][2], _search_plan(q, (p,))[0]) for k, p in enumerate(heads)]
        walks += [(f, through[k][2], completion_order(q, f)) for k, f in enumerate(pairs)]
        for fixed, steps, expected in walks:
            order = fixed + tuple(x for x, *_ in steps)
            assert order == expected
            classes = {}
            for x in order[len(fixed):]:
                classes.setdefault(rows[x], []).append(x)
            links = {(prev, x) for x, _, prev, _ in steps if prev >= 0}
            assert links == {pair for c in classes.values() for pair in zip(c, c[1:])}
            for d, (x, checks, _, code) in enumerate(steps):
                # every placed element but the hole, with its relation code
                assert checks == tuple((y, rel[x][y]) for y in order[1:len(fixed) + d])
                assert code == rel[fixed[0]][x]
            if len(fixed) == 2 and steps:
                x = fixed[1]
                if any(q.less[x][y] or q.less[y][x] for y in order[2:]):
                    first = steps[0][0]
                    assert q.less[x][first] or q.less[first][x]


class TestWalkExits:
    """A completion walk's regions hold only sets not yet blocked, and each
    loop ends once its region is empty; the sets it blocks must still be
    those of a brute-force oracle."""

    @settings(max_examples=60, deadline=None)
    @given(q=small_posets(), n=st.integers(1, 5), data=st.data())
    @pytest.mark.parametrize("through_member", [False, True])
    def test_completing_sets_match_the_oracle(self, through_member, q, n, data):
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True,
                                   min_size=int(through_member), max_size=7))
        missing = [s for s in range(1 << n) if s not in masks]
        targets = data.draw(st.sets(st.sampled_from(missing), max_size=8)) if missing else set()
        through = data.draw(st.integers(0, len(masks) - 1)) if through_member else None
        index = _FamilyIndex(masks, n)
        regions = [_regions(u, n) for u in masks]
        got = _completing_sets(_completion_walks(q), (1 << len(masks)) - 1,
                               (index.incomp, index.below, index.above), regions,
                               sum(1 << t for t in targets), through)
        required = [] if through is None else [masks[through]]
        assert got == sum(1 << t for t in targets
                          if naive_has_copy_up_to_twins(masks + [t], q, required + [t]))


class TestRelationRows:
    """Each member's rows below, above and incomparable, and each element's
    column of members, through any sequence of appends and pops."""

    @staticmethod
    def check(index, n):
        bits = index.bits
        members = (1 << len(bits)) - 1
        for i, u in enumerate(bits):
            below = sum(1 << j for j, v in enumerate(bits) if v != u and v & u == v)
            above = sum(1 << j for j, v in enumerate(bits) if v != u and v & u == u)
            incomp = sum(1 << j for j, v in enumerate(bits) if v & u not in (u, v))
            assert index.below[i] & members == below
            assert index.above[i] & members == above
            assert index.incomp[i] & members == incomp
            assert not index.incomp[i] >> i & 1
        assert index.has == [sum(1 << j for j, v in enumerate(bits) if v >> e & 1) for e in range(n)]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_rows_match_a_pairwise_oracle(self, n, data):
        index = _FamilyIndex([], n)
        moves = data.draw(st.lists(st.one_of(st.just(-1), st.integers(0, (1 << n) - 1)), max_size=20))
        for move in moves:
            if move < 0:
                if not index.bits:
                    continue
                index.pop()
                fresh = _FamilyIndex(index.bits, n)
                for row in ("bits", "has", "below", "above", "incomp"):
                    assert getattr(index, row) == getattr(fresh, row)
            elif move in index.bits:
                continue
            else:
                index.append(move)
            self.check(index, n)


LAYER3 = [b for b in range(1 << 7) if b.bit_count() == 3]  # the 35 3-sets of [7]
TALL_TWINS = {
    "A23": antichain_poset(23),
    "K1,21": complete_bipartite_poset(1, 21),
    "K21,1": complete_bipartite_poset(21, 1),
}


def tall_families(name):
    """Families over [7] with and without a copy of ``TALL_TWINS[name]``.
    Each search that finds no copy stays cheap: its members hold no wide
    antichain, or no member lies below 21 others (for K21,1, above)."""
    rng = random.Random(f"tall:{name}")
    if name == "A23":
        with_copy = [0] + rng.sample(LAYER3, 23)
        # the 3-sets through element 1, and sets comparable to most of them
        without = [b for b in LAYER3 if b & 1] + [0, 1, 127] + rng.sample([127 ^ 1 << e for e in range(1, 7)], 5)
    else:
        with_copy = [0] + rng.sample(LAYER3, 22)
        without = rng.sample(LAYER3, 21) + rng.sample([b for b in range(1 << 7) if b.bit_count() == 2], 3)
    for masks in (with_copy, without):
        if name == "K21,1":
            masks = [127 ^ b for b in masks]
        yield SetFamily.from_masks(GroundSet(7), masks)


class TestKernels:
    """Every search and completion walk runs as a kernel compiled from its
    plan. Posets of 22 and 23 elements take more nested loops than CPython
    3.10 to 3.12 allow in one function, so their kernels chain functions;
    they must still agree with a brute-force oracle."""

    @pytest.mark.parametrize("name", list(TALL_TWINS))
    def test_search_past_the_nesting_limit(self, name):
        q = TALL_TWINS[name]
        found = []
        for fam in tall_families(name):
            witness = find_induced_copy(fam, q)
            assert (witness is not None) == naive_has_copy_up_to_twins(fam.bit_list, q)
            assert witness is None or witness.verify(fam)
            found.append(witness is not None)
            for member in fam.members[::7]:
                forced = find_induced_copy(fam, q, required=member)
                assert (forced is not None) == naive_has_copy_up_to_twins(fam.bit_list, q, [member.bits])
                assert forced is None or forced.verify(fam) and member in forced.assignment
        assert any(found) and not all(found)

    def test_report_past_the_nesting_limit(self):
        q = TALL_TWINS["A23"]
        rng = random.Random(22)
        fam = SetFamily.from_masks(GroundSet(7), rng.sample(LAYER3, 11) + rng.sample(
            [b for b in range(1 << 7) if b.bit_count() == 4], 11))
        report = saturation_report(fam, q)
        unsaturated = [
            s for s in range(1 << 7)
            if not fam.has_mask(s) and not naive_has_copy_up_to_twins(fam.bit_list + (s,), q, [s])
        ]
        assert report.free
        assert sorted(s.bits for s in report.unsaturated_sets) == unsaturated

    @pytest.mark.parametrize("name, masks", [
        ("A23", LAYER3[:22]),
        ("K21,1", LAYER3[:20] + [127]),
    ])
    @pytest.mark.parametrize("through", [None, 0, 5])
    def test_deep_walks_past_the_nesting_limit(self, name, masks, through):
        """Walks that place every element: the 3-sets outside the family
        complete copies at the deepest loop, and sets that relate to many
        members end their branches early."""
        q = TALL_TWINS[name]
        index = _FamilyIndex(masks, 7)
        regions = [_regions(u, 7) for u in masks]
        rest = [b for b in LAYER3 if b not in masks]
        # few targets take the walks in search order, many the other walks
        for targets in (rest, rest + [0, 127] + [1 << e for e in range(6)] + [127 ^ 1 << e for e in range(6)]):
            targets = [t for t in targets if t not in masks]
            got = _completing_sets(_completion_walks(q), (1 << len(masks)) - 1,
                                   (index.incomp, index.below, index.above), regions,
                                   sum(1 << t for t in targets), through)
            required = [] if through is None else [masks[through]]
            expected = [t for t in targets if naive_has_copy_up_to_twins(masks + [t], q, required + [t])]
            assert expected
            assert got == sum(1 << t for t in expected)

    def test_chained_walk_refreshes_outer_regions(self):
        """An antichain of 22 takes walks of 21 loops, so the last loop runs
        in a chained kernel. The family is 21 3-sets and {3,4,5,7}, which
        contains one of them, {3,4,5}, and so holds two copies of the
        antichain less one element. They differ at {3,4,5}, which the first
        kernel places. The first copy blocks 3-sets in the chained kernel;
        the first kernel's regions must drop them, or the second copy would
        block them again and, as blocking flips bits, unblock them."""
        q = antichain_poset(22)
        masks = LAYER3[:21] + [0b1011100]
        index = _FamilyIndex(masks, 7)
        regions = [_regions(u, 7) for u in masks]
        targets = [t for t in LAYER3 if t not in masks]
        got = _completing_sets(_completion_walks(q), (1 << len(masks)) - 1,
                               (index.incomp, index.below, index.above), regions,
                               sum(1 << t for t in targets))
        expected = [t for t in targets if naive_has_copy_up_to_twins(masks + [t], q, [t])]
        assert expected
        assert got == sum(1 << t for t in expected)

    def test_sources_hold_only_names_and_integers(self, monkeypatch):
        """A kernel's source is made of its plan's integers: no label or other
        string of the poset reaches ``exec``."""
        labels = ("\"'; import os", "x\ny", "{0}", "e0", "__import__('os')")
        q = validate_poset(butterfly_poset().less, labels[:4])
        r = validate_poset(n_poset().less, labels[1:])
        monkeypatch.setattr(embedding, "_KERNELS", {})
        _completion_walks.cache_clear()
        _search_kernel.cache_clear()
        try:
            for poset in (q, r):
                saturation_report(butterfly_construction(4), poset)
                find_induced_copy(butterfly_construction(4), poset, required=SubsetMask(0, GroundSet(4)))
        finally:
            _completion_walks.cache_clear()
            _search_kernel.cache_clear()
        sources = list(embedding._KERNELS)
        assert len(sources) > 4
        for source in sources:
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                assert token.type != tokenize.STRING
                if token.type == tokenize.NUMBER:
                    assert token.string.isdigit()
            assert not any(label in source for label in labels)

    def test_walks_of_one_shape_share_a_kernel(self, monkeypatch):
        """Ten disjoint 2-chains have 420 completion walks but few shapes: the
        steps with each element renamed by its place in the walk."""
        q = validate_poset([[a % 2 == 0 and b == a + 1 for b in range(20)] for a in range(20)])
        monkeypatch.setattr(embedding, "_KERNELS", {})
        _completion_walks.cache_clear()
        try:
            walks = _completion_walks(q)
        finally:
            _completion_walks.cache_clear()
        shapes = set()
        for group, fixed in zip(walks, (0, 0, 1)):
            for x, _, steps, _ in group:
                place = {y: k for k, y in enumerate([x][:fixed] + [s[0] for s in steps])}
                shapes.add((fixed, tuple(
                    (tuple((place[y], r) for y, r in checks), place.get(prev, -1), code)
                    for _, checks, prev, code in steps
                )))
        assert sum(map(len, walks)) == 420
        assert len(embedding._KERNELS) <= len(shapes) == 7
