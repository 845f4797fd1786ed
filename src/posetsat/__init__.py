"""Induced poset saturation in the Boolean lattice.

Families of subsets of {1..n} as bitmask collections, induced-subposet
embedding search, saturation checks, greedy completion, verifiers for the
size lower bounds on saturated families, and an exact small-n solver.
"""

from .core import (
    GroundSet,
    PosetSpec,
    SetFamily,
    SubsetMask,
    antichain_poset,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    format_family,
    load_family,
    load_poset,
    n_poset,
    parse_family,
    parse_poset_json,
    poset_isomorphic,
    poset_name,
    validate_poset,
)
from .embedding import EmbeddingWitness, find_induced_copy
from .errors import ContractViolationError, PosetSatError, PosetValidationError, UsageError
from .hasse import cover_edges, emit_hasse
from .saturation import (
    SaturationReport,
    butterfly_construction,
    greedy_saturate,
    k2k_seed,
    kkk_seed,
    n_construction,
    saturation_report,
)
from .solver import (
    SolveResult,
    enumerate_saturated_families,
    exact_sat_star,
    sample_saturated_families,
    upper_bound_via_random_greedy,
)
from .suite import run_paper_suite
from .theorems import (
    Chevron,
    ChevronAssignment,
    TheoremReport,
    difference_pair_cover,
    lemma1_check,
    theorem2_assignment,
    theorem3_assignment,
    verify_prop4,
    verify_theorem2,
    verify_theorem3,
)

__all__ = [
    "GroundSet",
    "SubsetMask",
    "SetFamily",
    "PosetSpec",
    "validate_poset",
    "complete_bipartite_poset",
    "butterfly_poset",
    "n_poset",
    "chain_poset",
    "antichain_poset",
    "poset_isomorphic",
    "poset_name",
    "parse_family",
    "format_family",
    "load_family",
    "load_poset",
    "parse_poset_json",
    "EmbeddingWitness",
    "find_induced_copy",
    "SaturationReport",
    "saturation_report",
    "greedy_saturate",
    "butterfly_construction",
    "n_construction",
    "k2k_seed",
    "kkk_seed",
    "Chevron",
    "ChevronAssignment",
    "TheoremReport",
    "lemma1_check",
    "verify_theorem2",
    "verify_theorem3",
    "verify_prop4",
    "theorem2_assignment",
    "theorem3_assignment",
    "difference_pair_cover",
    "SolveResult",
    "enumerate_saturated_families",
    "exact_sat_star",
    "upper_bound_via_random_greedy",
    "sample_saturated_families",
    "cover_edges",
    "emit_hasse",
    "run_paper_suite",
    "PosetSatError",
    "UsageError",
    "PosetValidationError",
    "ContractViolationError",
]

__version__ = "0.1.0"
