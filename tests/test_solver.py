import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from posetsat import (
    ContractViolationError,
    GroundSet,
    SetFamily,
    UsageError,
    antichain_poset,
    butterfly_construction,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    enumerate_saturated_families,
    exact_sat_star,
    greedy_saturate,
    n_construction,
    n_poset,
    poset_isomorphic,
    sample_saturated_families,
    saturation_report,
    upper_bound_via_random_greedy,
    validate_poset,
)
from posetsat import embedding, saturation, solver
from posetsat.embedding import _LatticeFamily, _tracked_family
from posetsat.solver import (
    _copy_shapes,
    _forbidden_tables,
    _grown_images,
    _named_seed,
    _saturated_walk,
)

from conftest import CROSS_CHECK_POSETS
from oracles import naive_has_copy, naive_is_saturated


class TestEnumerate:
    def test_n2_butterfly_unique(self, butterfly):
        fams = enumerate_saturated_families(2, butterfly)
        assert len(fams) == 1
        assert fams[0].bit_list == (0, 1, 2, 3)

    def test_n3_butterfly_unique_power_set(self, butterfly):
        fams = enumerate_saturated_families(3, butterfly)
        assert len(fams) == 1
        assert set(fams[0].bit_list) == set(range(8))

    def test_n3_n_complete_list(self, nposet):
        fams = enumerate_saturated_families(3, nposet)
        assert len(fams) == 9
        assert min(len(f) for f in fams) == 6
        for fam in fams:
            assert saturation_report(fam, nposet).saturated

    def test_n4_counts(self, butterfly, nposet):
        assert len(enumerate_saturated_families(4, butterfly)) == 12
        assert len(enumerate_saturated_families(4, nposet)) == 118

    def test_cap_truncates(self, nposet):
        fams = enumerate_saturated_families(3, nposet, cap=4)
        assert len(fams) == 4

    @pytest.mark.parametrize("n, cap", [(3, 0), (5, 0), (5, -1)])
    def test_cap_must_be_positive(self, butterfly, n, cap):
        with pytest.raises(UsageError):
            enumerate_saturated_families(n, butterfly, cap=cap)

    def test_large_n_needs_cap(self, butterfly):
        with pytest.raises(UsageError):
            enumerate_saturated_families(5, butterfly)

    def test_n5_capped_walk_yields_saturated_families(self, butterfly):
        fams = enumerate_saturated_families(5, butterfly, cap=3)
        assert len(fams) == 3
        for fam in fams:
            assert saturation_report(fam, butterfly).saturated
        assert len({f.bit_list for f in fams}) == 3

    def test_n10_capped_walk_is_not_bounded_by_the_recursion_limit(self, butterfly):
        fams = enumerate_saturated_families(10, butterfly, cap=1)
        assert len(fams) == 1
        assert saturation_report(fams[0], butterfly).saturated

    @pytest.mark.parametrize(
        "n, q, expected",
        [
            (5, butterfly_poset(), [
                [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 7, 25, 31],
                [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 7, 26, 31],
                [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 7, 28, 31],
            ]),
            (6, n_poset(), [
                [0, 1, 2, 4, 8, 16, 32, 3, 12, 48, 15, 63],
                [0, 1, 2, 4, 8, 16, 32, 3, 12, 48, 51, 63],
                [0, 1, 2, 4, 8, 16, 32, 3, 12, 48, 60, 63],
                [0, 1, 2, 4, 8, 16, 32, 3, 12, 19, 44, 63],
            ]),
            (5, complete_bipartite_poset(3, 2), [
                [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24,
                 7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 15, 31],
                [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24,
                 7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 23, 31],
                [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24,
                 7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 27, 31],
            ]),
        ],
        ids=["B-5", "N-6", "K23-5"],
    )
    def test_capped_walk_pinned(self, n, q, expected):
        fams = enumerate_saturated_families(n, q, cap=len(expected))
        assert [list(f.bit_list) for f in fams] == expected


def oracle_copies(n, q):
    """Every |q|-subset of the power set of [n] that holds a copy of q, as a
    subfamily mask, by the all-tuples oracle."""
    return [
        sum(1 << s for s in combo)
        for combo in combinations(range(1 << n), q.size)
        if naive_has_copy(combo, q)
    ]


class TestForbiddenTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", list(CROSS_CHECK_POSETS))
    def test_copies_match_the_tuple_oracle(self, name, n):
        q = CROSS_CHECK_POSETS[name]
        copies, rest = _forbidden_tables(n, q)
        assert copies == oracle_copies(n, q)
        for s in range(1 << n):
            assert rest[s] == [c ^ 1 << s for c in copies if c >> s & 1]

    @pytest.mark.parametrize("q", [butterfly_poset(), n_poset()], ids=["B", "N"])
    def test_copies_at_n4_match_the_tuple_oracle(self, q):
        assert _forbidden_tables(4, q)[0] == oracle_copies(4, q)

    @pytest.mark.parametrize("q", [chain_poset(9), antichain_poset(9)], ids=["chain-9", "antichain-9"])
    def test_nine_element_chain_and_antichain_at_n4(self, q):
        """No chain or antichain of nine sets fits in the power set of [4]
        (the longest chain has five, the widest antichain six), so the only
        saturated family is the power set; the saturated walk agrees."""
        ground = GroundSet(4)
        families = enumerate_saturated_families(4, q)
        assert families == [SetFamily.from_masks(ground, range(16))]
        assert families == list(_saturated_walk(ground, q))

    def test_shapes_are_the_linear_extensions(self, butterfly, nposet):
        # B has 4 linear extensions, all equal up to swapping twins; N has 5
        assert len(_copy_shapes(chain_poset(9))) == len(_copy_shapes(antichain_poset(9))) == 1
        assert len(_copy_shapes(butterfly)) == 1
        assert len(_copy_shapes(nposet)) == 5

    def test_enumerator_runs_without_the_search(self, monkeypatch, butterfly, nposet):
        def refuse(*args, **kwargs):
            raise AssertionError("the enumerator must not use the copy search")

        monkeypatch.setattr(embedding, "_FamilyIndex", refuse)
        monkeypatch.setattr(saturation, "_witness_or_tracked", refuse)
        monkeypatch.setattr(embedding, "_search_plan", refuse)
        monkeypatch.setattr(embedding, "_search_kernel", refuse)
        monkeypatch.setattr(embedding, "_completion_plan", refuse)
        counts = [len(enumerate_saturated_families(n, q)) for n in (1, 2, 3, 4) for q in (butterfly, nposet)]
        assert counts == [1, 1, 1, 1, 1, 9, 12, 118]


@st.composite
def ordered_posets(draw):
    """Strict orders on at most four elements, with a below b only for labels
    a < b, closed under transitivity."""
    m = draw(st.integers(1, 4))
    pairs = list(combinations(range(m), 2))
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    less = [[False] * m for _ in range(m)]
    for (a, b), keep in zip(pairs, picked):
        less[a][b] = keep
    for k in range(m):
        for a in range(m):
            for b in range(m):
                less[a][b] = less[a][b] or less[a][k] and less[k][b]
    return validate_poset(less)


def family_masks(families):
    return [sum(1 << b for b in f.bit_list) for f in families]


class TestWalkAgainstDefinition:
    @settings(max_examples=80, deadline=None)
    @given(q=ordered_posets(), n=st.integers(1, 3))
    def test_walk_enumerator_and_definition_agree(self, q, n):
        defined = [
            fam for fam in range(1 << (1 << n))
            if naive_is_saturated([s for s in range(1 << n) if fam >> s & 1], n, q)
        ]
        assert family_masks(enumerate_saturated_families(n, q)) == defined
        walked = family_masks(_saturated_walk(GroundSet(n), q))
        assert len(walked) == len(set(walked))
        assert sorted(walked) == defined

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", list(CROSS_CHECK_POSETS))
    def test_member_index_walk_lists_the_same_families(self, monkeypatch, name, n):
        # above the lattice limit the walk runs on a tracked member index
        # and ends no branch early; both must list the same families
        q = CROSS_CHECK_POSETS[name]
        lattice = [f.bit_list for f in _saturated_walk(GroundSet(n), q)]
        monkeypatch.setattr(embedding, "_LATTICE_LIMIT", 0)
        assert [f.bit_list for f in _saturated_walk(GroundSet(n), q)] == lattice


class TestExactSatStar:
    def test_frozen_small_values(self, butterfly):
        assert exact_sat_star(2, butterfly).value == 4
        assert exact_sat_star(3, butterfly).value == 8

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_agreement_two_paths(self, n, butterfly, nposet):
        for q in (butterfly, nposet):
            bnb = exact_sat_star(n, q)
            enum = exact_sat_star(n, q, method="enumerate")
            assert bnb.exact and enum.exact
            assert bnb.value == enum.value
            assert enum.enumerated_count >= 1

    def test_enumerate_method_counts(self, butterfly):
        res = exact_sat_star(3, butterfly, method="enumerate")
        assert res.value == 8 and res.enumerated_count == 1

    def test_certificates_reverify(self, butterfly, nposet):
        for q in (butterfly, nposet):
            res = exact_sat_star(3, q)
            assert saturation_report(res.certificate, q).saturated

    def test_monotone_sanity_vs_constructions(self, butterfly, nposet):
        assert exact_sat_star(4, butterfly, method="enumerate").value <= len(
            butterfly_construction(4)
        )
        assert exact_sat_star(3, nposet).value <= len(n_construction(3))

    def test_budget_expiry_returns_greedy_certificate(self, butterfly):
        res = exact_sat_star(6, butterfly, budget_s=0.05)
        assert not res.exact
        assert saturation_report(res.certificate, butterfly).saturated
        assert res.value <= len(butterfly_construction(6))

    def test_budget_is_checked_at_every_walk_node(self, butterfly):
        # one walk node at n = 13 scans about 8k positions against 157
        # lattice maps, so a deadline read every 256 nodes overran by seconds
        t0 = time.perf_counter()
        res = exact_sat_star(13, butterfly, budget_s=0.2)
        assert not res.exact
        assert time.perf_counter() - t0 < 1.2

    def test_budget_bounds_the_lattice_maps(self, butterfly):
        # the 211 lattice-map tables at n = 15 take about 0.9 s, and were
        # built before the first deadline check
        t0 = time.perf_counter()
        res = exact_sat_star(15, butterfly, budget_s=0.2)
        assert not res.exact
        assert time.perf_counter() - t0 < 0.6

    @pytest.mark.parametrize("budget", [None, 0.2])
    @pytest.mark.parametrize("m, bound", [(1, 0), (2, 1)])
    def test_a_settled_bound_builds_no_lattice_maps(self, monkeypatch, m, bound, budget):
        # a greedy bound of one set or none leaves no size to refute, so it
        # is exact without the lattice maps, which at n = 14 outlast a 0.2 s
        # budget and would turn the proven value into an inexact one
        def refuse(*args, **kwargs):
            raise AssertionError("lattice maps built for a settled bound")

        monkeypatch.setattr(solver, "_lattice_maps", refuse)
        res = exact_sat_star(14, chain_poset(m), budget_s=budget)
        assert (res.value, res.exact) == (bound, True)

    def test_lattice_maps_stop_at_a_passed_deadline(self, butterfly, monkeypatch):
        built = []
        swap = solver._swap_bits
        monkeypatch.setattr(solver, "_swap_bits", lambda *args: built.append(1) or swap(*args))
        with pytest.raises(solver._BudgetExpired):
            solver._lattice_maps(6, butterfly, deadline=time.perf_counter() - 1)
        assert built == []
        assert len(solver._lattice_maps(6, butterfly, deadline=time.perf_counter() + 60)) == 31

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_budget_must_be_a_non_negative_number(self, butterfly, budget):
        # a NaN deadline never expires, so it would switch the limit off
        with pytest.raises(UsageError, match="budget"):
            exact_sat_star(3, butterfly, budget_s=budget)

    @pytest.mark.parametrize(
        "n, q, message",
        [
            (3, butterfly_poset(), "exact sat*(3, B) = 2 violates the n+1 lower bound"),
            (5, n_poset(), "exact sat*(5, N) = 2 violates the sqrt(n) lower bound"),
        ],
        ids=["B", "N"],
    )
    def test_bound_discrepancy_halts(self, monkeypatch, n, q, message):
        # no saturated family breaks the bounds, so the size search is
        # replaced by one that claims a two-member family
        small = SetFamily.from_masks(GroundSet(n), [0, 1])
        monkeypatch.setattr(solver, "_saturated_walk", lambda *args: iter([small]))
        with pytest.raises(ContractViolationError) as exc:
            exact_sat_star(n, q)
        assert str(exc.value) == message
        assert exc.value.detail == {"certificate": [[], [1]]}

    @pytest.mark.parametrize(
        "n, q, size",
        [(3, butterfly_poset(), 4), (4, n_poset(), 2), (9, n_poset(), 3)],
        ids=["B3", "N4", "N9"],
    )
    def test_a_claim_at_the_bound_stands(self, monkeypatch, n, q, size):
        # n + 1 sets for B, and sqrt(n) sets for N at a square n, meet the bound
        claim = SetFamily.from_masks(GroundSet(n), range(size))
        monkeypatch.setattr(solver, "_saturated_walk", lambda *args: iter([claim]))
        res = exact_sat_star(n, q)
        assert (res.value, res.exact, res.certificate) == (size, True, claim)

    def test_bound_discrepancy_halts_the_enumerate_path(self, monkeypatch, butterfly):
        small = SetFamily.from_masks(GroundSet(3), [0, 1])
        monkeypatch.setattr(solver, "enumerate_saturated_families", lambda *args: [small])
        with pytest.raises(ContractViolationError) as exc:
            exact_sat_star(3, butterfly, method="enumerate")
        assert str(exc.value) == "exact sat*(3, B) = 2 violates the n+1 lower bound"
        assert exc.value.detail == {"certificate": [[], [1]]}

    def test_enumerate_method_rejected_for_large_n(self, butterfly):
        with pytest.raises(UsageError):
            exact_sat_star(5, butterfly, method="enumerate")

    def test_json_shape(self, butterfly):
        obj = exact_sat_star(2, butterfly).to_json_obj()
        assert set(obj) == {
            "n",
            "poset",
            "value",
            "exact",
            "certificate",
            "enumerated_count",
            "elapsed_ms",
        }
        assert obj["poset"] == "B"


def positions(n):
    return {s: i for i, s in enumerate(GroundSet(n).all_masks())}


def expected_lattice_maps(n, q):
    """Transpositions of [n] and, for a self-dual q, complementation alone
    and after each transposition, as position tables built from scratch."""
    order = GroundSet(n).all_masks()
    pos = positions(n)
    full = (1 << n) - 1

    def transpose(s, i, j):
        bit_i, bit_j = s >> i & 1, s >> j & 1
        return s & ~(1 << i | 1 << j) | bit_i << j | bit_j << i

    funcs = [lambda s, i=i, j=j: transpose(s, i, j) for i, j in combinations(range(n), 2)]
    dual = validate_poset([[q.less[b][a] for b in range(q.size)] for a in range(q.size)])
    if poset_isomorphic(q, dual):
        funcs += [lambda s: full ^ s]
        funcs += [lambda s, i=i, j=j: full ^ transpose(s, i, j)
                  for i, j in combinations(range(n), 2)]
    return [tuple(pos[f(s)] for s in order) for f in funcs]


def first_minimum(n, q):
    """The first minimum-size q-saturated family by canonical positions of
    its members, from the complete enumeration."""
    pos = positions(n)
    families = enumerate_saturated_families(n, q)
    return min(families, key=lambda f: (len(f), [pos[b] for b in f.bit_list]))


class TestBranchAndBoundAgainstEnumerator:
    """Branch and bound against the complete enumeration: the search returns
    the first minimum-size family by canonical positions of its members, and
    when the greedy upper bound is already minimum the search refutes every
    smaller size and the greedy certificate stands."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", list(CROSS_CHECK_POSETS))
    def test_certificate_matches_enumeration(self, name, n):
        q = CROSS_CHECK_POSETS[name]
        ground = GroundSet(n)
        best = first_minimum(n, q)
        closures = [greedy_saturate(SetFamily.from_masks(ground, []), q)]
        seed = _named_seed(n, q)
        if seed is not None:
            closures.append(greedy_saturate(seed, q))
        upper = min(closures, key=lambda f: (len(f), f.bit_list))
        res = exact_sat_star(n, q)
        assert res.exact
        assert res.value == len(best)
        expected = best if len(best) < len(upper) else upper
        assert res.certificate.bit_list == expected.bit_list

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", list(CROSS_CHECK_POSETS))
    def test_size_search_finds_first_minimum(self, name, n):
        from posetsat.solver import _lattice_maps, _saturated_walk

        q = CROSS_CHECK_POSETS[name]
        ground = GroundSet(n)
        best = first_minimum(n, q)
        maps = _lattice_maps(n, q)
        found = next(_saturated_walk(ground, q, len(best), maps), None)
        assert found.bit_list == best.bit_list
        assert next(_saturated_walk(ground, q, len(best) - 1, maps), None) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", list(CROSS_CHECK_POSETS))
    def test_walk_lists_every_saturated_family_once(self, name, n):
        from posetsat.solver import _saturated_walk

        q = CROSS_CHECK_POSETS[name]
        walked = [f.bit_list for f in _saturated_walk(GroundSet(n), q)]
        assert len(walked) == len(set(walked))
        assert set(walked) == {f.bit_list for f in enumerate_saturated_families(n, q)}
        pos = positions(n)
        keys = [[pos[b] for b in fam] for fam in walked]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", list(CROSS_CHECK_POSETS))
    def test_lattice_maps_permute_saturated_families(self, name, n):
        q = CROSS_CHECK_POSETS[name]
        ground = GroundSet(n)
        order = ground.all_masks()
        pos = positions(n)
        families = {f.bit_list for f in enumerate_saturated_families(n, q)}
        for g in expected_lattice_maps(n, q):
            for fam in families:
                image = SetFamily.from_masks(ground, [order[g[pos[b]]] for b in fam])
                assert image.bit_list in families

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["B", "N", "K23", "K13", "chain3", "N-r2"])
    def test_solver_maps_match(self, name, n):
        from posetsat.solver import _lattice_maps

        q = CROSS_CHECK_POSETS[name]
        maps = _lattice_maps(n, q)
        expected = expected_lattice_maps(n, q)
        assert len(maps) == len(expected)
        assert set(maps) == set(expected)


# children of the exact walk's nodes, as counted with the symmetry test
# that sorted each map's image of the chosen positions
WALK_CHILDREN = {(4, "B"): 666, (4, "N"): 493, (5, "N"): 36661}


class TestSymmetryTest:
    """The walk tests its lattice maps on bitmasks of positions, which must
    prune exactly the children that sorted lists of positions pruned."""

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 40), data=st.data())
    def test_bitmask_rule_matches_sorted_lists(self, size, data):
        count = data.draw(st.integers(1, 3))
        maps = [tuple(data.draw(st.permutations(range(size)))) for _ in range(count)]
        chosen = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1)))
        images = [sum(1 << g[p] for p in chosen[:-1]) for g in maps]
        grown = _grown_images(images, maps, chosen[-1], sum(1 << p for p in chosen))
        if all(sorted([g[p] for p in chosen]) >= chosen for g in maps):
            assert grown == [sum(1 << g[p] for p in chosen) for g in maps]
        else:
            assert grown is None

    @pytest.mark.parametrize("n, name", sorted(WALK_CHILDREN))
    def test_walk_visits_the_same_nodes(self, monkeypatch, n, name):
        # only the walk's family counts: the greedy closures before it run
        # on lattice families too
        appended = []

        class Counting(_LatticeFamily):
            __slots__ = ()

            def append(self, new):
                appended.append(new)
                super().append(new)

        monkeypatch.setattr(solver, "_tracked_family", Counting)
        assert exact_sat_star(n, CROSS_CHECK_POSETS[name]).exact
        assert len(appended) == WALK_CHILDREN[n, name]


class TestTrackedFamily:
    @staticmethod
    def follow(lattice, index, rng):
        """Random appends of open sets and pops of appended ones keep equal
        ``open`` stacks."""
        assert isinstance(lattice, _LatticeFamily)
        assert lattice.open == index.open
        added = 0
        for _ in range(60):
            sets = [s for s in range(1 << index.n) if lattice.open[-1] >> s & 1]
            if added and (not sets or rng.random() < 0.3):
                lattice.pop()
                index.pop()
                added -= 1
            elif sets:
                s = rng.choice(sets)
                lattice.append(s)
                index.append(s)
                added += 1
            assert lattice.bits == index.bits
            assert lattice.open == index.open

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("name", ["B", "N", "K23"])
    def test_lattice_family_and_member_index_agree(self, name, n):
        q = CROSS_CHECK_POSETS[name]
        index = embedding._FamilyIndex([], n)
        index.track(q)
        self.follow(_tracked_family(n, q), index, random.Random(f"{name}:{n}"))

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("name", ["B", "N", "K23"])
    def test_trackers_agree_from_free_seeds(self, name, n):
        q = CROSS_CHECK_POSETS[name]
        rng = random.Random(f"seeded {name}:{n}")
        for _ in range(3):
            seed = []
            for s in rng.sample(range(1 << n), 10):
                if not naive_has_copy(seed + [s], q):
                    seed.append(s)
            index = embedding._FamilyIndex(seed, n)
            index.track(q)
            self.follow(_tracked_family(n, q, seed), index, rng)

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The fixed elements other than the hole of each walk kernel built
        from empty caches: () for a walk over every missing set."""
        built = []
        walk_kernel = embedding._walk_kernel

        def counting(q, order, fixed):
            built.append(tuple(order[1:fixed]))
            return walk_kernel(q, order, fixed)

        monkeypatch.setattr(embedding, "_KERNELS", {})
        monkeypatch.setattr(embedding, "_walk_kernel", counting)
        embedding._completion_walks.cache_clear()
        yield built
        embedding._completion_walks.cache_clear()

    def test_empty_family_compiles_no_walk(self, compiled, butterfly):
        assert _tracked_family(5, butterfly).open == [(1 << 32) - 1]
        assert compiled == []

    @pytest.mark.parametrize("name, kernels", [("B", 4), ("N", 12)])
    def test_sampler_compiles_only_walks_through_a_member(self, compiled, name, kernels):
        # the sampler's only pass over every missing set is at its empty
        # family, where no copy can form
        sample_saturated_families(5, CROSS_CHECK_POSETS[name], 1, 1)
        assert len(compiled) == kernels
        assert () not in compiled

    def test_member_index_above_the_lattice_limit(self, butterfly):
        family = _tracked_family(embedding._LATTICE_LIMIT + 1, butterfly)
        assert isinstance(family, embedding._FamilyIndex)
        assert family.open == [(1 << (1 << embedding._LATTICE_LIMIT + 1)) - 1]


class TestRandomGreedy:
    def test_butterfly_bound_via_construction_seed(self, butterfly):
        res = upper_bound_via_random_greedy(6, butterfly, trials=3, rng_seed=1)
        assert res.value <= len(butterfly_construction(6)) == 26
        assert not res.exact
        assert saturation_report(res.certificate, butterfly).saturated

    def test_n_bound_2n(self, nposet):
        res = upper_bound_via_random_greedy(6, nposet, trials=3, rng_seed=1)
        assert res.value <= 12

    def test_single_trial_with_saturated_seed_returns_it(self, nposet):
        seed_fam = n_construction(6)
        res = upper_bound_via_random_greedy(6, nposet, trials=1, rng_seed=7)
        assert res.certificate.bit_list == seed_fam.bit_list

    def test_trials_must_be_positive(self, nposet):
        with pytest.raises(UsageError):
            upper_bound_via_random_greedy(4, nposet, trials=0, rng_seed=1)

    @pytest.mark.parametrize(
        "n, q, trials, rng_seed, named, expected",
        [
            (5, n_poset(), 4, 11, True, [0, 1, 2, 4, 8, 16, 3, 7, 15, 31]),
            (5, n_poset(), 4, 11, False, [0, 2, 10, 7, 11, 13, 14, 21, 27, 29, 30, 31]),
            (6, butterfly_poset(), 5, 3, True, [
                0, 1, 2, 4, 8, 16, 32, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24,
                33, 34, 36, 40, 48, 7, 15, 31, 63,
            ]),
            (6, butterfly_poset(), 5, 3, False, [
                0, 4, 5, 12, 24, 33, 34, 36, 48, 7, 13, 14, 21, 22, 26, 28, 35,
                37, 38, 41, 42, 44, 49, 50, 52, 56, 23, 27, 29, 43, 46, 57, 31, 59, 63,
            ]),
        ],
        ids=["N-5-named", "N-5-random", "B-6-named", "B-6-random"],
    )
    def test_pinned_certificates(self, n, q, trials, rng_seed, named, expected):
        # "named" pins the greedy bound, whose first closure starts from the
        # recognised construction; the others pin the first smallest sampled
        # family under the same (size, members) order
        if named:
            best = upper_bound_via_random_greedy(n, q, trials=trials, rng_seed=rng_seed).certificate
        else:
            sampled = sample_saturated_families(n, q, trials, rng_seed)
            best = min(sampled, key=lambda f: (len(f), f.bit_list))
        assert list(best.bit_list) == expected

    def test_reproducible(self, nposet):
        a = upper_bound_via_random_greedy(5, nposet, trials=4, rng_seed=11)
        b = upper_bound_via_random_greedy(5, nposet, trials=4, rng_seed=11)
        assert a.value == b.value
        assert a.certificate.bit_list == b.certificate.bit_list


class TestSampling:
    def test_sampled_families_are_saturated(self, butterfly):
        fams = sample_saturated_families(5, butterfly, 4, rng_seed=3)
        assert len(fams) == 4
        for fam in fams:
            assert saturation_report(fam, butterfly).saturated

    def test_deterministic(self, nposet):
        a = sample_saturated_families(5, nposet, 3, rng_seed=9)
        b = sample_saturated_families(5, nposet, 3, rng_seed=9)
        assert [f.bit_list for f in a] == [f.bit_list for f in b]


SAMPLER_POSETS = {
    "chain3": chain_poset(3),
    "K13": complete_bipartite_poset(3, 1),
    "antichain3": antichain_poset(3),
}

# per (poset, n): the certificate of upper_bound_via_random_greedy(n, q, 20, 1)
# and the families of sample_saturated_families(n, q, 5, 3), as member masks.
# No construction is named for these posets, so the greedy bound is all
# random closures besides the closure of the empty family
SAMPLER_PINS = {
    ("chain3", 5): (
        [0, 4, 8, 16, 3],
        [
            [1, 2, 4, 8, 16, 5, 17, 24, 11, 14, 22],
            [1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24],
            [1, 2, 4, 8, 16, 5, 6, 12, 17, 18, 20, 24, 11],
            [5, 11, 13, 14, 19, 22, 25, 26, 28, 23, 27, 30],
            [1, 2, 4, 3, 5, 6, 12, 20, 24, 25, 26],
        ],
    ),
    ("chain3", 6): (
        [0, 1, 2, 4, 8, 16, 32],
        [
            [16, 3, 5, 6, 9, 12, 18, 33, 36, 42, 44, 49, 52, 56, 15, 29, 39, 43],
            [7, 11, 13, 14, 19, 21, 22, 25, 26, 35, 37, 38, 41, 42, 49, 50, 15, 23, 27, 29,
             39, 43, 45, 51, 53, 57, 60, 62],
            [2, 3, 5, 9, 12, 17, 20, 24, 33, 36, 40, 48, 13, 25, 28, 41, 46, 53, 54, 58],
            [10, 24, 33, 34, 36, 40, 48, 7, 11, 13, 19, 21, 22, 26, 35, 50, 23, 29, 45, 46,
             53, 57, 60],
            [5, 6, 12, 20, 24, 36, 40, 11, 13, 25, 44, 30, 43, 51, 58, 55],
        ],
    ),
    ("K13", 5): (
        [0, 1, 2, 6, 17, 7, 21, 15, 23, 31],
        [
            [0, 1, 4, 8, 3, 5, 6, 9, 12, 18, 24, 11, 14, 19, 21, 22, 25, 26, 28],
            [0, 1, 2, 8, 16, 5, 6, 9, 10, 17, 18, 24, 7, 13, 14, 21, 22, 28],
            [0, 1, 4, 12, 17, 11, 14, 19, 21, 28, 15, 23, 27, 29, 30],
            [0, 1, 4, 5, 6, 9, 24, 7, 11, 13, 14, 21, 25, 28, 23, 27, 30],
            [0, 1, 2, 4, 3, 5, 6, 12, 18, 11, 14, 21, 22, 26, 28, 27, 29],
        ],
    ),
    ("K13", 6): (
        [0, 1, 2, 3, 9, 19, 41, 27, 57, 59, 61, 63],
        [
            [0, 16, 32, 5, 10, 18, 20, 36, 7, 11, 21, 22, 26, 28, 37, 42, 44, 49, 50, 52,
             56, 15, 27, 29, 39, 43, 45, 46, 51, 57],
            [0, 2, 16, 3, 20, 7, 11, 21, 28, 37, 50, 15, 23, 29, 39, 43, 45, 51, 53, 54, 60,
             59, 62],
            [0, 2, 8, 3, 18, 40, 48, 7, 22, 25, 28, 42, 49, 50, 56, 15, 23, 29, 30, 46, 53,
             54, 47],
            [0, 1, 12, 33, 48, 7, 13, 35, 37, 38, 52, 56, 23, 29, 45, 46, 51, 53, 54, 57,
             31, 59],
            [0, 8, 16, 32, 5, 6, 10, 17, 20, 24, 36, 40, 7, 11, 13, 14, 19, 22, 25, 26, 28,
             37, 38, 41, 44, 50, 52, 43, 51],
        ],
    ),
    ("antichain3", 5): (
        [0, 1, 2, 3, 5, 7, 11, 15, 23, 31],
        [
            [0, 4, 8, 5, 9, 11, 21, 27, 29, 31],
            [0, 1, 16, 5, 17, 7, 21, 15, 29, 31],
            [0, 1, 4, 12, 17, 14, 21, 15, 29, 31],
            [0, 1, 4, 5, 6, 14, 21, 23, 30, 31],
            [0, 1, 4, 3, 12, 11, 14, 15, 27, 31],
        ],
    ),
    ("antichain3", 6): (
        [0, 1, 2, 3, 5, 7, 11, 15, 23, 31, 47, 63],
        [
            [0, 16, 32, 17, 36, 21, 44, 29, 46, 31, 62, 63],
            [0, 2, 16, 10, 48, 11, 50, 43, 58, 59, 62, 63],
            [0, 8, 16, 40, 48, 42, 50, 46, 54, 47, 62, 63],
            [0, 4, 16, 12, 48, 13, 56, 29, 57, 31, 59, 63],
            [0, 4, 8, 10, 36, 11, 38, 43, 54, 55, 59, 63],
        ],
    ),
}


class TestSamplerPinned:
    @pytest.mark.parametrize("name, n", sorted(SAMPLER_PINS))
    def test_greedy_certificate_and_samples(self, name, n):
        certificate, samples = SAMPLER_PINS[name, n]
        q = SAMPLER_POSETS[name]
        got = upper_bound_via_random_greedy(n, q, 20, 1).certificate
        assert list(got.bit_list) == certificate
        assert [list(f.bit_list) for f in sample_saturated_families(n, q, 5, 3)] == samples
