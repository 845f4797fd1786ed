"""Claim battery: every verifiable statement the library operationalises,
bundled as one deterministic pass/fail table.

The table rows are keyed to the claim identifiers used by the verify
subcommand (lemma1, theorem2, theorem3, prop4, prop5, prop6) plus rows for
the explicit constructions, the exact small-n oracle, and the embedding
cross-check. Output is byte-stable for a fixed seed: nothing timed is
printed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb

from .core import (
    GroundSet,
    SetFamily,
    antichain_poset,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    n_poset,
)
from .embedding import find_induced_copy
from .saturation import (
    butterfly_construction,
    greedy_saturate,
    k2k_seed,
    kkk_seed,
    n_construction,
    saturation_report,
)
from .solver import (
    _naive_has_copy,
    enumerate_saturated_families,
    sample_saturated_families,
)
from .theorems import lemma1_check, verify_prop4, verify_theorem2, verify_theorem3

B_GREEDY_COUNTS = {5: 17, 6: 14, 7: 11, 8: 8}
N_GREEDY_COUNTS = {5: 15, 6: 12, 7: 9, 8: 6, 9: 4, 10: 4}


@dataclass(frozen=True)
class SuiteRow:
    key: str
    passed: bool
    detail: str


def _butterfly_size(n: int) -> int:
    return 1 + n + comb(n, 2) + (n - 2)


def _row_construction(key, q, build, expected_size, ns, claim) -> SuiteRow:
    """Each ``build(n)`` for n in ``ns`` is q-saturated of size
    ``expected_size(n)``."""
    bad = []
    for n in ns:
        fam = build(n)
        if not saturation_report(fam, q).saturated or len(fam) != expected_size(n):
            bad.append(n)
    detail = claim if not bad else f"failed at n={bad}"
    return SuiteRow(key, not bad, detail)


def _row_exact_oracle() -> tuple[SuiteRow, list[SetFamily]]:
    q = butterfly_poset()
    values = {}
    families4: list[SetFamily] = []
    for n in (2, 3, 4):
        fams = enumerate_saturated_families(n, q)
        values[n] = (min(len(f) for f in fams), len(fams))
        if n == 4:
            families4 = fams
    ok = values[2][0] == 4 and values[3][0] == 8 and values[4][0] >= 5
    detail = "; ".join(
        f"sat*({n},B)={v} [{c} saturated families]" for n, (v, c) in sorted(values.items())
    )
    return SuiteRow("exact-oracle", ok, detail), families4


def _instances(q, exhaustive, counts, rng_base) -> list[SetFamily]:
    """``exhaustive``, then ``counts[n]`` sampled q-saturated families over
    each [n], sampled with seed ``rng_base + n``."""
    instances = list(exhaustive)
    for n, count in sorted(counts.items()):
        instances.extend(sample_saturated_families(n, q, count, rng_seed=rng_base + n))
    return instances


def _row_verifier(key, verify, instances, claim) -> SuiteRow:
    """``verify`` passes on every instance; ``claim`` holds a ``{}`` for the
    instance count."""
    failures = sum(1 for fam in instances if not verify(fam).passed)
    detail = f"{claim.format(len(instances))}, {failures} counterexamples"
    return SuiteRow(key, failures == 0, detail)


def _row_theorem3(instances: list[SetFamily]) -> SuiteRow:
    evaluated = 0
    failures = 0
    skipped = 0
    for fam in instances:
        if not any(m.cardinality == 1 for m in fam):
            skipped += 1
            continue
        evaluated += 1
        if not verify_theorem3(fam).passed:
            failures += 1
    return SuiteRow(
        "theorem3",
        failures == 0,
        f"pair map injective with the binomial bound on {evaluated} families "
        f"({skipped} without singletons skipped), {failures} counterexamples",
    )


def _closure_ok(seed_fam: SetFamily, q, max_card: int, bound: int) -> bool:
    """The greedy closure of ``seed_fam`` is q-saturated, adds only sets of
    at most ``max_card`` elements, and has at most ``bound`` members."""
    closed = greedy_saturate(seed_fam, q)
    added = [b for b in closed.bit_list if not seed_fam.has_mask(b)]
    return (
        saturation_report(closed, q).saturated
        and all(b.bit_count() <= max_card for b in added)
        and len(closed) <= bound
    )


def _row_prop5() -> SuiteRow:
    bad = []
    for k in (2, 3):
        q = complete_bipartite_poset(k, 2)
        for n in range(k + 1, 9):
            bound = sum(comb(n, i) for i in range(k + 1)) + n - k
            if not _closure_ok(k2k_seed(n, k), q, k, bound):
                bad.append((n, k))
    detail = (
        "greedy closures stay below the level-k size bound for k=2,3"
        if not bad
        else f"failed at (n,k)={bad}"
    )
    return SuiteRow("prop5", not bad, detail)


def _row_prop6() -> SuiteRow:
    k = 3
    q = complete_bipartite_poset(k, k)
    bad = []
    for n in range(6, 9):
        bound = sum(comb(n, i) for i in range(2 * k - 1)) + (k - 1) * (n - 2 * k + 1)
        if not _closure_ok(kkk_seed(n, k), q, 2 * k - 2, bound):
            bad.append(n)
    detail = (
        "greedy closures stay below the level-(2k-2) size bound for k=3"
        if not bad
        else f"failed at n={bad}"
    )
    return SuiteRow("prop6", not bad, detail)


def _row_embedding_oracle() -> SuiteRow:
    ground = GroundSet(3)
    patterns = [
        butterfly_poset(),
        n_poset(),
        chain_poset(2),
        antichain_poset(2),
    ]
    mismatches = 0
    checked = 0
    for fam_mask in range(1 << 8):
        bits = tuple(s for s in range(8) if fam_mask >> s & 1)
        family = SetFamily.from_masks(ground, bits)
        for q in patterns:
            checked += 1
            fast = find_induced_copy(family, q) is not None
            slow = _naive_has_copy(bits, q)
            if fast != slow:
                mismatches += 1
    return SuiteRow(
        "embedding-oracle",
        mismatches == 0,
        f"backtracking search agrees with the all-tuples oracle on {checked} checks",
    )


def run_paper_suite(seed: int = 1, out=None, err=None) -> bool:
    """Run the full battery and print the pass/fail table; True iff all rows
    pass."""
    out = out or sys.stdout
    err = err or sys.stderr

    def progress(msg: str) -> None:
        print(msg, file=err)

    rows: list[SuiteRow] = []
    progress("checking explicit constructions")
    rows.append(
        _row_construction(
            "construction-B", butterfly_poset(), butterfly_construction, _butterfly_size,
            range(4, 9), "saturated with expected sizes at n=4..8",
        )
    )
    rows.append(
        _row_construction(
            "construction-N", n_poset(), n_construction, lambda n: 2 * n,
            range(3, 11), "saturated with size 2n at n=3..10",
        )
    )
    progress("enumerating saturated families at small n")
    oracle_row, exhaustive4 = _row_exact_oracle()
    rows.append(oracle_row)
    progress("generating butterfly-saturated instances")
    b_instances = _instances(butterfly_poset(), exhaustive4, B_GREEDY_COUNTS, seed * 1000)
    progress("running singleton and pair analyses")
    rows.append(
        _row_verifier(
            "lemma1", lemma1_check, b_instances, "pair closure on {} saturated families"
        )
    )
    rows.append(
        _row_verifier(
            "theorem2", verify_theorem2, b_instances,
            "singleton map injective with |F|>=n+1 on {} families",
        )
    )
    rows.append(_row_theorem3(b_instances))
    progress("generating N-saturated instances")
    n_small = [f for n in (2, 3, 4) for f in enumerate_saturated_families(n, n_poset())]
    n_instances = _instances(n_poset(), n_small, N_GREEDY_COUNTS, seed * 2000)
    rows.append(
        _row_verifier(
            "prop4", verify_prop4, n_instances,
            "difference-pair cover with |F|^2>=n on {} families",
        )
    )
    progress("closing bipartite seed families")
    rows.append(_row_prop5())
    rows.append(_row_prop6())
    progress("cross-checking the embedding search")
    rows.append(_row_embedding_oracle())

    width = max(len(r.key) for r in rows)
    print(f"battery seed={seed}", file=out)
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{row.key:<{width}}  {status}  {row.detail}", file=out)
    passed = sum(1 for r in rows if r.passed)
    print(f"passed {passed}/{len(rows)}", file=out)
    return passed == len(rows)
