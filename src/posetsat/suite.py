"""Claim battery: every verifiable statement the library operationalises,
bundled as one deterministic pass/fail table.

The table rows are keyed to the claim identifiers used by the verify
subcommand (lemma1, theorem2, theorem3, prop4, prop5, prop6) plus rows for
the explicit constructions, the exact small-n oracle, and the embedding
cross-check. Output is byte-stable for a fixed seed: nothing timed is
printed. Lemma 1 and theorems 2 and 3 run back to back on each
butterfly-saturated instance, so the three share one saturation verdict.
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
    _forbidden_tables,
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


def _row_verifier(key, reports, claim) -> SuiteRow:
    """Every report passes; ``claim`` holds a ``{}`` for the report count."""
    failures = sum(1 for r in reports if not r.passed)
    detail = f"{claim.format(len(reports))}, {failures} counterexamples"
    return SuiteRow(key, failures == 0, detail)


def _row_closures(key, cases, claim, where) -> SuiteRow:
    """The greedy closure of each ``(label, seed, q, max_card, bound)`` case
    is q-saturated, adds only sets of at most ``max_card`` elements, and has
    at most ``bound`` members; ``where`` names the labels of the failures."""
    bad = []
    for label, seed_fam, q, max_card, bound in cases:
        closed = greedy_saturate(seed_fam, q)
        added = [b for b in closed.bit_list if not seed_fam.has_mask(b)]
        if not (
            saturation_report(closed, q).saturated
            and all(b.bit_count() <= max_card for b in added)
            and len(closed) <= bound
        ):
            bad.append(label)
    detail = claim if not bad else f"failed at {where}={bad}"
    return SuiteRow(key, not bad, detail)


def _row_prop5() -> SuiteRow:
    cases = [
        ((n, k), k2k_seed(n, k), complete_bipartite_poset(k, 2), k,
         sum(comb(n, i) for i in range(k + 1)) + n - k)
        for k in (2, 3)
        for n in range(k + 1, 9)
    ]
    return _row_closures(
        "prop5", cases, "greedy closures stay below the level-k size bound for k=2,3", "(n,k)"
    )


def _row_prop6() -> SuiteRow:
    k = 3
    cases = [
        (n, kkk_seed(n, k), complete_bipartite_poset(k, k), 2 * k - 2,
         sum(comb(n, i) for i in range(2 * k - 1)) + (k - 1) * (n - 2 * k + 1))
        for n in range(6, 9)
    ]
    return _row_closures(
        "prop6", cases, "greedy closures stay below the level-(2k-2) size bound for k=3", "n"
    )


def _row_embedding_oracle() -> SuiteRow:
    ground = GroundSet(3)
    patterns = [
        butterfly_poset(),
        n_poset(),
        chain_poset(2),
        antichain_poset(2),
    ]
    copies = [_forbidden_tables(3, q)[0] for q in patterns]
    mismatches = 0
    checked = 0
    for fam_mask in range(1 << 8):
        bits = tuple(s for s in range(8) if fam_mask >> s & 1)
        family = SetFamily.from_masks(ground, bits)
        for q, forbidden in zip(patterns, copies):
            checked += 1
            fast = find_induced_copy(family, q) is not None
            slow = any(c & fam_mask == c for c in forbidden)
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
    # back to back on one family, the three verifiers share one butterfly verdict
    l1, t2, t3 = [], [], []
    for fam in b_instances:
        l1.append(lemma1_check(fam))
        t2.append(verify_theorem2(fam))
        if any(m.cardinality == 1 for m in fam):
            t3.append(verify_theorem3(fam))
    skipped = len(b_instances) - len(t3)
    for key, reports, claim in (
        ("lemma1", l1, "pair closure on {} saturated families"),
        ("theorem2", t2, "singleton map injective with |F|>=n+1 on {} families"),
        (
            "theorem3", t3,
            "pair map injective with the binomial bound on {} families "
            f"({skipped} without singletons skipped)",
        ),
    ):
        rows.append(_row_verifier(key, reports, claim))
    progress("generating N-saturated instances")
    n_small = [f for n in (2, 3, 4) for f in enumerate_saturated_families(n, n_poset())]
    n_instances = _instances(n_poset(), n_small, N_GREEDY_COUNTS, seed * 2000)
    rows.append(
        _row_verifier(
            "prop4", [verify_prop4(fam) for fam in n_instances],
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
