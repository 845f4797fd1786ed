import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from posetsat import (
    GroundSet,
    PosetSpec,
    PosetValidationError,
    SetFamily,
    SubsetMask,
    UsageError,
    antichain_poset,
    butterfly_construction,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    format_family,
    load_family,
    n_poset,
    parse_family,
    parse_poset_json,
    poset_isomorphic,
    poset_name,
    validate_poset,
)
from posetsat.core import MAX_POSET_SIZE

G4 = GroundSet(4)


def mask(*elements, ground=G4):
    return SubsetMask.from_elements(ground, elements)


class TestGroundSet:
    def test_bounds(self):
        assert GroundSet(1).n == 1
        assert GroundSet(24).full_mask == (1 << 24) - 1
        with pytest.raises(UsageError):
            GroundSet(0)
        with pytest.raises(UsageError):
            GroundSet(25)

    def test_all_masks_canonical(self):
        masks = GroundSet(3).all_masks()
        assert masks == [0, 1, 2, 4, 3, 5, 6, 7]


class TestSubsetMask:
    def test_elements_round_trip(self):
        m = mask(1, 3, 4)
        assert m.elements() == (1, 3, 4)
        assert m.bits == 0b1101
        assert len(m) == 3
        assert 3 in m and 2 not in m
        assert str(m) == "{1,3,4}"
        assert str(mask()) == "{}"

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            SubsetMask.from_elements(G4, [5])
        with pytest.raises(UsageError):
            SubsetMask(1 << 4, G4)


class TestSetFamily:
    def test_deduplicates_and_sorts(self):
        fam = SetFamily.from_masks(G4, [0b1100, 0b1, 0b1100, 0b10])
        assert fam.bit_list == (0b1, 0b10, 0b1100)

    @given(st.lists(st.integers(0, 15), max_size=12), st.randoms())
    def test_normalisation_order_independent(self, masks, rng):
        fam1 = SetFamily.from_masks(G4, masks)
        shuffled = list(masks)
        rng.shuffle(shuffled)
        fam2 = SetFamily.from_masks(G4, shuffled)
        assert fam1.bit_list == fam2.bit_list
        fam3 = SetFamily.from_masks(G4, fam1.bit_list)
        assert fam3.bit_list == fam1.bit_list

    def test_mixed_grounds_rejected(self):
        with pytest.raises(UsageError):
            SetFamily(G4, (SubsetMask.from_elements(GroundSet(5), [1]),))

    def test_membership_and_extension(self):
        fam = SetFamily.from_sets(G4, [[1], [1, 2]])
        assert mask(1) in fam
        assert fam.has_mask(0b11)
        bigger = SetFamily.from_masks(G4, fam.bit_list + (mask(3).bits,))
        assert len(bigger) == 3 and len(fam) == 2


class TestValidatePoset:
    def test_butterfly_matrix_valid(self):
        raw = [[False] * 4 for _ in range(4)]
        for a in (0, 1):
            for b in (2, 3):
                raw[a][b] = True
        spec = validate_poset(raw)
        assert spec.size == 4
        assert spec.relation_count() == 4

    def test_reflexive_violation(self):
        raw = [[True, False], [False, False]]
        with pytest.raises(PosetValidationError) as exc:
            validate_poset(raw)
        assert ("reflexivity", 0, 0) in exc.value.violations

    def test_transitivity_violation_named_at_pair(self):
        raw = [
            [False, True, False],
            [False, False, True],
            [False, False, False],
        ]
        with pytest.raises(PosetValidationError) as exc:
            validate_poset(raw)
        assert ("transitivity", 0, 2) in exc.value.violations

    def test_antisymmetry_violation(self):
        raw = [[False, True], [True, False]]
        with pytest.raises(PosetValidationError) as exc:
            validate_poset(raw)
        assert ("antisymmetry", 0, 1) in exc.value.violations

    def test_message_names_a_few_cells_and_counts_the_rest(self):
        with pytest.raises(PosetValidationError) as exc:
            validate_poset([[True] * 64 for _ in range(64)])
        violations = exc.value.violations
        assert {("reflexivity", a, a) for a in range(64)} <= set(violations)
        pairs = {("antisymmetry", a, b) for a in range(64) for b in range(a + 1, 64)}
        assert pairs <= set(violations)
        shown = PosetValidationError.SHOWN
        message = str(exc.value)
        assert message.count(" at (") == shown
        assert message.endswith(f"; and {len(violations) - shown} more")
        assert len(message) < 200

    def test_few_violations_are_all_named(self):
        with pytest.raises(PosetValidationError) as exc:
            validate_poset([[False, True], [True, False]])
        assert str(exc.value) == (
            "not a strict partial order: antisymmetry at (0,1); "
            "transitivity at (0,0); transitivity at (1,1)"
        )

    def test_non_square(self):
        with pytest.raises(UsageError):
            validate_poset([[False, True]])

    def test_empty_matrix(self):
        # an empty poset would reach the copy search with no element to place
        for build in (lambda: validate_poset([]), lambda: PosetSpec(0, ())):
            with pytest.raises(UsageError, match="^poset needs at least one element$"):
                build()


class TestBuilders:
    def test_butterfly_shape(self):
        b = complete_bipartite_poset(2, 2)
        assert b.size == 4
        assert b.relation_count() == 4

    def test_k23_shape(self):
        q = complete_bipartite_poset(3, 2)
        assert q.size == 5
        assert q.relation_count() == 6

    def test_degenerate_two_chain(self):
        q = complete_bipartite_poset(1, 1)
        assert q.size == 2
        assert q.relation_count() == 1
        assert poset_isomorphic(q, chain_poset(2))

    def test_zero_counts(self):
        with pytest.raises(UsageError):
            complete_bipartite_poset(0, 2)
        with pytest.raises(UsageError):
            complete_bipartite_poset(2, 0)

    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("t", range(1, 7))
    def test_bipartite_always_validates(self, s, t):
        # construction runs the axioms check itself
        q = complete_bipartite_poset(s, t)
        assert q.size == s + t

    def test_n_poset(self):
        q = n_poset()
        assert q.size == 4
        assert q.relation_count() == 3
        assert set(q.strict_pairs()) == {(0, 1), (2, 1), (2, 3)}
        assert q.labels == ("a", "b", "c", "d")
        # distinguishable from the butterfly by relation count alone
        assert q.relation_count() != butterfly_poset().relation_count()
        assert not poset_isomorphic(q, butterfly_poset())

    def test_poset_names(self):
        assert poset_name(butterfly_poset()) == "B"
        assert poset_name(n_poset()) == "N"
        assert poset_name(complete_bipartite_poset(3, 2)) == "K_{2,3}"
        assert poset_name(chain_poset(3)) == "chain-3"
        assert poset_name(antichain_poset(2)) == "antichain-2"


class TestFamilyFiles:
    def test_parse_forms(self):
        text = """
        # a comment line
        {1,3,4}
        1 3 4   # same set, deduplicated
        2,4
        {}
        0x3
        """
        fam = parse_family(text, GroundSet(4))
        assert fam.bit_list == (0, 0b11, 0b1010, 0b1101)

    def test_empty_set_literal_only(self):
        fam = parse_family("{}\n", GroundSet(2))
        assert fam.bit_list == (0,)

    def test_ground_inference(self):
        fam = parse_family("{1,5}\n{2}\n")
        assert fam.ground.n == 5

    def test_element_out_of_range(self):
        with pytest.raises(UsageError, match="^line 2: element 9 does not fit"):
            parse_family("{1}\n{9}\n", GroundSet(4))

    def test_element_above_the_ground_limit(self):
        with pytest.raises(UsageError, match="^line 2: element 25 is above the largest ground size 24$"):
            parse_family("{1}\n{2,25}\n")

    def test_bad_tokens(self):
        with pytest.raises(UsageError):
            parse_family("{1,x}\n", GroundSet(4))
        with pytest.raises(UsageError):
            parse_family("{1,2\n", GroundSet(4))
        with pytest.raises(UsageError):
            parse_family("0\n", GroundSet(4))

    @given(st.sets(st.integers(0, 15), max_size=16))
    def test_round_trip(self, masks):
        fam = SetFamily.from_masks(G4, masks)
        again = parse_family(format_family(fam), G4)
        assert again.bit_list == fam.bit_list

    @pytest.mark.parametrize(
        "fam",
        [butterfly_construction(5), SetFamily.from_masks(GroundSet(5), [])],
        ids=["butterfly-5", "empty"],
    )
    def test_file_round_trip(self, fam, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(fam), encoding="utf-8")
        assert load_family(path, fam.ground) == fam


class TestPosetFiles:
    def test_json_with_closure(self):
        spec = parse_poset_json(json.dumps({"size": 3, "less": [[0, 1], [1, 2]]}))
        assert spec.less[0][2] is True

    def test_cycle_rejected(self):
        with pytest.raises(PosetValidationError):
            parse_poset_json(json.dumps({"size": 2, "less": [[0, 1], [1, 0]]}))

    def test_size_limit(self):
        chain = [[i, i + 1] for i in range(MAX_POSET_SIZE)]
        spec = parse_poset_json(json.dumps({"size": MAX_POSET_SIZE, "less": chain[:-1]}))
        assert spec.size == MAX_POSET_SIZE and spec.less[0][-1]
        with pytest.raises(UsageError, match="poset size 65 exceeds the limit of 64 elements"):
            parse_poset_json(json.dumps({"size": MAX_POSET_SIZE + 1, "less": chain}))
        with pytest.raises(UsageError, match="poset size 66 exceeds"):
            complete_bipartite_poset(33, 33)
        with pytest.raises(UsageError, match="poset size 65 exceeds"):
            validate_poset([[False] * 65 for _ in range(65)])

    def test_malformed(self):
        with pytest.raises(UsageError):
            parse_poset_json("not json")
        with pytest.raises(UsageError):
            parse_poset_json(json.dumps({"size": 2}))

    @pytest.mark.parametrize("obj", [
        {"size": 2, "less": [["a", 1]]},
        {"size": 2, "less": [[None, 1]]},
        {"size": 2, "less": 5},
        {"size": 2, "less": [[0, 1]], "labels": 5},
        {"size": 2, "less": [[0, 1]], "labels": [{"a": 1}, "b"]},
        {"size": 2, "less": [[0, 1]], "labels": [1, 2]},
        {"size": 2, "less": [[0, 1.9]]},
        {"size": 3, "less": [[True, 2]]},
        {"size": 2, "less": [["0", 1]]},
        {"size": True, "less": []},
    ])
    def test_malformed_fields_are_usage_errors(self, obj):
        with pytest.raises(UsageError):
            parse_poset_json(json.dumps(obj))


def test_package_imports_only_the_standard_library():
    # compare sys.modules before and after the import: site .pth files may
    # load third-party modules at interpreter start-up
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import posetsat, posetsat.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    new = set(proc.stdout.split()) - {"posetsat"}
    assert new <= set(sys.stdlib_module_names), sorted(new - set(sys.stdlib_module_names))


def test_isomorphism_test_rejects_bipartite_dual_quickly():
    # K_{6,7} and its dual have equal size and relation count, and no
    # element of one has the up- and down-degree of a bottom of the other
    code = (
        "from posetsat import complete_bipartite_poset, poset_isomorphic\n"
        "from posetsat.solver import _dual\n"
        "q, p = complete_bipartite_poset(6, 7), complete_bipartite_poset(7, 6)\n"
        "print(poset_isomorphic(q, _dual(q)), poset_isomorphic(_dual(q), p))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=10,
        check=True,
    )
    assert proc.stdout.split() == ["False", "True"]
