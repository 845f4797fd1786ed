from hypothesis import given, settings, strategies as st

from posetsat import GroundSet, SetFamily, cover_edges, emit_hasse

from conftest import family
from oracles import naive_cover_edges


def test_chain_covers():
    fam = family(2, [], [1], [1, 2])
    edges = cover_edges(fam)
    assert len(edges) == 2
    dot = emit_hasse(fam)
    assert dot.count("->") == 2
    assert 'label="{}"' in dot and 'label="{1,2}"' in dot


def test_butterfly_shape_has_four_edges():
    fam = family(4, [1], [2], [1, 2, 3], [1, 2, 4])
    assert len(cover_edges(fam)) == 4


def test_boolean_square():
    fam = SetFamily.from_masks(GroundSet(2), range(4))
    assert len(cover_edges(fam)) == 4


def test_intermediate_member_blocks_cover():
    fam = family(3, [1], [1, 2], [1, 2, 3])
    edges = cover_edges(fam)
    # {1} -> {1,2} -> {1,2,3}; no direct {1} -> {1,2,3} edge
    assert len(edges) == 2


def test_dot_is_deterministic():
    fam = family(3, [2], [1, 2], [2, 3])
    assert emit_hasse(fam) == emit_hasse(fam)
    assert emit_hasse(fam).startswith("digraph hasse {")


def test_covers_match_oracle_on_every_family_over_3():
    for fam_mask in range(256):
        fam = SetFamily.from_masks(GroundSet(3), [s for s in range(8) if fam_mask >> s & 1])
        assert cover_edges(fam) == naive_cover_edges(fam.bit_list), fam_mask


@given(n=st.sampled_from([4, 5]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_covers_match_oracle_on_random_families(n, data):
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=1 << n))
    fam = SetFamily.from_masks(GroundSet(n), masks)
    assert cover_edges(fam) == naive_cover_edges(fam.bit_list)
