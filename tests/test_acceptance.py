"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-6 share one instance pool (every butterfly-saturated family over
[4] plus 50 greedy-closed ones over [5]..[8]); criterion 7 uses the N-poset
pool (every N-saturated family over [2]..[4] plus 50 greedy-closed ones over
[5]..[10]). Greedy pools are seeded deterministically.
"""

import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from posetsat import (
    butterfly_construction,
    butterfly_poset,
    complete_bipartite_poset,
    difference_pair_cover,
    enumerate_saturated_families,
    find_induced_copy,
    greedy_saturate,
    k2k_seed,
    kkk_seed,
    lemma1_check,
    n_construction,
    n_poset,
    sample_saturated_families,
    saturation_report,
    theorem2_assignment,
    verify_prop4,
    verify_theorem2,
    verify_theorem3,
)
from posetsat.core import GroundSet, SetFamily, antichain_poset, chain_poset

from oracles import naive_has_copy

B = butterfly_poset()
N = n_poset()

B_GREEDY_COUNTS = {5: 17, 6: 14, 7: 11, 8: 8}
N_GREEDY_COUNTS = {5: 15, 6: 12, 7: 9, 8: 6, 9: 4, 10: 4}


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def b_instances():
    instances = list(enumerate_saturated_families(4, B))
    assert len(instances) == 12
    for n, count in sorted(B_GREEDY_COUNTS.items()):
        instances.extend(sample_saturated_families(n, B, count, rng_seed=4200 + n))
    return instances


@pytest.fixture(scope="module")
def n_instances():
    instances = []
    for n in (2, 3, 4):
        instances.extend(enumerate_saturated_families(n, N))
    for n, count in sorted(N_GREEDY_COUNTS.items()):
        instances.extend(sample_saturated_families(n, N, count, rng_seed=6900 + n))
    return instances


def test_c01_constructions_are_saturated():
    bad = []
    for n in range(4, 9):
        if not saturation_report(butterfly_construction(n), B).saturated:
            bad.append(("B", n))
    for n in range(3, 11):
        if not saturation_report(n_construction(n), N).saturated:
            bad.append(("N", n))
    report("C1", not bad, f"construction saturation over both families, failures: {bad}")
    assert not bad


def test_c02_construction_sizes():
    bad = []
    for n in range(2, 11):
        if len(n_construction(n)) != 2 * n:
            bad.append(("N", n))
    for n in range(3, 9):
        if len(butterfly_construction(n)) != 1 + n + comb(n, 2) + (n - 2):
            bad.append(("B", n))
    report("C2", not bad, f"|N family| = 2n and |B family| = 1+n+C(n,2)+(n-2), failures: {bad}")
    assert not bad


def test_c03_exact_oracle_values():
    values = {}
    counts = {}
    for n in (2, 3, 4):
        fams = enumerate_saturated_families(n, B)
        values[n] = min(len(f) for f in fams)
        counts[n] = len(fams)
    ok = (
        values[2] == 4
        and values[3] == 8
        and values[4] == 13
        and values[4] >= 5
        and counts[2] == 1
        and counts[3] == 1
        and counts[4] == 12
    )
    report(
        "C3",
        ok,
        f"sat*(n,B) for n=2,3,4 = {values[2]},{values[3]},{values[4]} "
        f"with {counts[4]} saturated families at n=4",
    )
    assert ok


def test_c04_theorem2_suite(b_instances):
    failures = []
    for fam in b_instances:
        n = fam.ground.n
        rep = verify_theorem2(fam)
        if not rep.passed:
            failures.append((n, rep.counterexample))
            continue
        if not fam.has_mask(0) or len(fam) < n + 1:
            failures.append((n, "direct size/empty-set recheck"))
            continue
        assignment = theorem2_assignment(fam)
        images = set()
        for item in assignment.domain:
            ch = assignment.chevrons[item.bits]
            img = assignment.images[item.bits]
            ok = (
                ch.c.bits & item.bits == 0
                and fam.has_mask(img.bits)
                and fam.has_mask(ch.a.bits)
                and fam.has_mask(ch.b.bits)
                and fam.has_mask(ch.c.bits)
            )
            if not ok:
                failures.append((n, f"chevron recheck for {item}"))
                break
            images.add(img.bits)
        present_singletons = {b for b in fam.bit_list if b.bit_count() == 1}
        if len(images | present_singletons) != n:
            failures.append((n, "injectivity recheck"))
    report("C4", not failures, f"{len(b_instances)} instances, counterexamples: {failures}")
    assert not failures


def test_c05_lemma1_suite(b_instances):
    failures = [
        (fam.ground.n, rep.counterexample)
        for fam in b_instances
        if not (rep := lemma1_check(fam)).passed
    ]
    report("C5", not failures, f"{len(b_instances)} instances, counterexamples: {failures}")
    assert not failures


def test_c06_theorem3_suite(b_instances):
    failures = []
    evaluated = 0
    for fam in b_instances:
        if not any(b.bit_count() == 1 for b in fam.bit_list):
            continue
        evaluated += 1
        rep = verify_theorem3(fam)
        if not rep.passed:
            failures.append((fam.ground.n, rep.counterexample))
            continue
        if len(fam) < comb(rep.k, 2) + rep.k * (fam.ground.n - rep.k):
            failures.append((fam.ground.n, "direct bound recheck"))
    report(
        "C6",
        not failures,
        f"{evaluated} instances with singletons, counterexamples: {failures}",
    )
    assert not failures


def test_c07_prop4_suite(n_instances):
    failures = []
    for fam in n_instances:
        n = fam.ground.n
        rep = verify_prop4(fam)
        if not rep.passed:
            failures.append((n, rep.counterexample))
            continue
        cover = difference_pair_cover(fam)
        if set(cover) != set(range(1, n + 1)):
            failures.append((n, "cover domain recheck"))
            continue
        if any(f.bits & ~g.bits != 1 << (i - 1) for i, (f, g) in cover.items()):
            failures.append((n, "cover pair recheck"))
            continue
        if len(fam) ** 2 < n:
            failures.append((n, "size recheck"))
    report("C7", not failures, f"{len(n_instances)} instances, counterexamples: {failures}")
    assert not failures


def test_c08_k2k_greedy_properties():
    failures = []
    for k in (2, 3):
        q = complete_bipartite_poset(k, 2)
        for n in range(k + 1, 9):
            seed = k2k_seed(n, k)
            closed = greedy_saturate(seed, q)
            added = [b for b in closed.bit_list if not seed.has_mask(b)]
            bound = sum(comb(n, i) for i in range(k + 1)) + n - k
            if not saturation_report(closed, q).saturated:
                failures.append((n, k, "not saturated"))
            elif any(b.bit_count() > k for b in added):
                failures.append((n, k, "oversized addition"))
            elif len(closed) > bound:
                failures.append((n, k, f"size {len(closed)} > {bound}"))
    report("C8", not failures, f"k=2,3 with n up to 8, failures: {failures}")
    assert not failures


def test_c09_kkk_greedy_properties():
    failures = []
    k = 3
    q = complete_bipartite_poset(k, k)
    for n in range(6, 9):
        seed = kkk_seed(n, k)
        closed = greedy_saturate(seed, q)
        added = [b for b in closed.bit_list if not seed.has_mask(b)]
        bound = sum(comb(n, i) for i in range(2 * k - 1)) + (k - 1) * (n - 2 * k + 1)
        if not saturation_report(closed, q).saturated:
            failures.append((n, "not saturated"))
        elif any(b.bit_count() >= 2 * k - 1 for b in added):
            failures.append((n, "oversized addition"))
        elif len(closed) > bound:
            failures.append((n, f"size {len(closed)} > {bound}"))
    report("C9", not failures, f"k=3 with n in 6..8, failures: {failures}")
    assert not failures


def test_c10_embedding_matches_naive_enumeration():
    ground = GroundSet(3)
    patterns = [B, N, chain_poset(2), antichain_poset(2)]
    mismatches = 0
    for fam_mask in range(256):
        bits = tuple(s for s in range(8) if fam_mask >> s & 1)
        fam = SetFamily.from_masks(ground, bits)
        for q in patterns:
            if (find_induced_copy(fam, q) is not None) != naive_has_copy(bits, q):
                mismatches += 1
    report("C10", mismatches == 0, f"1024 agreement checks, mismatches: {mismatches}")
    assert mismatches == 0


def test_c11_suite_battery_is_deterministic():
    def battery():
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "posetsat.cli",
                "verify",
                "--suite",
                "paper",
                "--rng-seed",
                "1",
            ],
            capture_output=True,
        )

    first = battery()
    second = battery()
    golden = (Path(__file__).parent / "paper_battery_seed1.txt").read_bytes()
    ok = (
        first.returncode == 0
        and first.stdout == golden
        and first.stdout == second.stdout
        and first.stderr == second.stderr
        and b"passed 10/10" in first.stdout
    )
    report("C11", ok, "battery output byte-identical to the committed run and across reruns, all rows green")
    assert ok
