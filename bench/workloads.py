"""The benchmark's workloads: seeded input generation and one pass each.

A workload is a sequence of parts. Each part has a ``setup(api, seed,
workdir, sizes)`` that builds its inputs from the seed alone, and a
``run_pass(api, inputs, task)`` that hands every unit of work to
``task(label, fn, verdict)``. A task's function checks its own answers
against known values and raises ``GateFailure`` on a mismatch. Functions of
the package are looked up on ``api`` at call time, so a traced run sees its
wrappers. Sizes come from ``FULL``; the smoke test passes ``TINY``.

Why these parts (seconds per part on a 2-vCPU 2.1 GHz Xeon VM when it is
not slowed by its neighbours):

- scan-wide: 2^n cheap forced probes against ~100-set families through the
  CLI. probe_with, append and pop do the work and the 4-element search stays
  shallow; an inverted scan or a leaner append/pop shows here (~13 s).
- closure-deep: few probes (376 at n=8), each ~30 ms of backtracking for a
  6-element poset. The embedding search dominates, so twin pruning shows
  here; it is the battery's prop6 row (~15 s).
- solve-exact: ~220k one-shot ``_creates_copy`` calls, each building a fresh
  index (1.6M appends) for tiny searches. An incremental index, forced
  members or lattice symmetry shows here; search pruning barely does (~7 s).
- verify-pool: the battery's verifier pool through the public API, the only
  part that runs ``theorems``; it makes three saturation reports per B
  family and exercises greedy writes under random orders (~6.5 s).

Why two workloads of two parts each: on that VM the same computation runs
up to 1.7 times slower for stretches of 20 to 70 seconds. Runs of about
30 seconds, all that four workloads leave in the time allowed for the whole
series of runs, gave pass times whose quartile spread over five seeds was
0.20 to 0.27. Two workloads allow runs of about 50 seconds. Each pairs a
part that exercises one mechanism with one that the other workload
bypasses: scan-closure holds the probe, search and CLI work, solve-verify
the one-shot index builds, the solver and the verifiers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from math import comb

WORKLOADS = {
    "scan-closure": ("scan-wide", "closure-deep"),
    "solve-verify": ("solve-exact", "verify-pool"),
}

FULL = {
    "scan-wide": (("butterfly", 12), ("butterfly", 13), ("n", 13), ("n", 14)),
    "closure-deep": (6, 7, 8),
    "solve-exact": 4,
    "verify-pool": {
        "b_enumerate": (4,),
        "b_sample": ((5, 17), (6, 14), (7, 11), (8, 8)),
        "n_enumerate": (2, 3, 4),
        "n_sample": ((5, 15), (6, 12), (7, 9), (8, 6), (9, 4), (10, 4)),
    },
}

TINY = {
    "scan-wide": (("butterfly", 5), ("n", 5)),
    "closure-deep": (6,),
    "solve-exact": 3,
    "verify-pool": {
        "b_enumerate": (3,),
        "b_sample": ((5, 2),),
        "n_enumerate": (2, 3),
        "n_sample": ((5, 2),),
    },
}

# known answers: sat*(n, Q) and the number of Q-saturated families over [n]
SAT_STAR = {"B": {2: 4, 3: 8, 4: 13}, "N": {2: 4, 3: 6, 4: 8}}
SATURATED_COUNT = {"B": {2: 1, 3: 1, 4: 12}, "N": {2: 1, 3: 9, 4: 118}}

KKK_K = 3


class GateFailure(Exception):
    """A task's output differs from the known answer."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def permute_mask(bits: int, perm) -> int:
    out = 0
    for i, target in enumerate(perm):
        if bits >> i & 1:
            out |= 1 << target
    return out


def relabel_family(api, family, perm):
    """The family with every element i replaced by perm[i] (0-indexed)."""
    return api.pkg.SetFamily.from_masks(
        family.ground, [permute_mask(b, perm) for b in family.bit_list]
    )


def relabel_poset(api, q, perm):
    """The poset with element a renamed perm[a]; the same order type."""
    m = q.size
    less = [[False] * m for _ in range(m)]
    labels = [""] * m
    for a in range(m):
        labels[perm[a]] = q.labels[a]
        for b in range(m):
            less[perm[a]][perm[b]] = q.less[a][b]
    return api.pkg.validate_poset(less, labels)


def _mask_key(bits: int) -> tuple[int, int]:
    return (bits.bit_count(), bits)


def elements(bits: int) -> list[int]:
    return [i + 1 for i in range(bits.bit_length()) if bits >> i & 1]


def write_family_file(path: str, masks) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for b in sorted(masks, key=_mask_key):
            fh.write("{" + ",".join(map(str, elements(b))) + "}\n")


# --- scan-wide -------------------------------------------------------------


def setup_scan_wide(api, seed, workdir, sizes):
    """Relabelled constructions written to family files, each with one
    negative case: the construction minus one (relabelled) prefix {1..i}."""
    rng = random.Random(f"scan-wide:{seed}")
    builders = {"butterfly": api.pkg.butterfly_construction, "n": api.pkg.n_construction}
    cases = []
    for poset, n in sizes:
        family = builders[poset](n)
        perm = rng.sample(range(n), n)
        masks = [permute_mask(b, perm) for b in family.bit_list]
        prefix = permute_mask((1 << rng.randint(3, n)) - 1, perm)
        expected_size = 1 + n + comb(n, 2) + (n - 2) if poset == "butterfly" else 2 * n
        base = os.path.join(workdir, f"{poset}{n}")
        write_family_file(base + ".txt", masks)
        write_family_file(base + "-neg.txt", [b for b in masks if b != prefix])
        cases.append({
            "label": f"check {poset} n={n}", "poset": poset, "n": n,
            "path": base + ".txt", "saturated": True,
            "size": len(family), "expected_size": expected_size, "addable": None,
        })
        cases.append({
            "label": f"check {poset} n={n} minus prefix", "poset": poset, "n": n,
            "path": base + "-neg.txt", "saturated": False,
            "size": None, "expected_size": None, "addable": elements(prefix),
        })
    return cases


def _cli_check(api, case):
    argv = ["check", "--poset", case["poset"], "--in", case["path"], "--n", str(case["n"])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.run(argv)
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        raise GateFailure(f"exit {code}, no JSON report: {err.getvalue().strip()!r}") from None
    return code, report


def _scan_case(api, case):
    code, report = _cli_check(api, case)
    if case["saturated"]:
        gate(case["size"] == case["expected_size"],
             f"construction has {case['size']} sets, expected {case['expected_size']}")
        gate(code == 0 and report["free"] and report["saturated"] and not report["unsaturated"],
             f"expected saturated, got exit {code} {report}")
    else:
        gate(code == 1 and report["free"] and not report["saturated"],
             f"expected free and unsaturated, got exit {code}")
        gate(case["addable"] in report["unsaturated"],
             f"removed prefix {case['addable']} not reported addable")


def run_scan_wide(api, cases, task):
    for case in cases:
        task(case["label"], lambda case=case: _scan_case(api, case))


# --- closure-deep ----------------------------------------------------------


def setup_closure_deep(api, seed, workdir, sizes):
    rng = random.Random(f"closure-deep:{seed}")
    k = KKK_K
    q = api.pkg.complete_bipartite_poset(k, k)
    inputs = []
    for n in sizes:
        perm = rng.sample(range(n), n)
        seed_family = relabel_family(api, api.pkg.kkk_seed(n, k), perm)
        # Candidates in the relabelled canonical order: the closure is then
        # the relabelled image of the battery's closure, so its cost does not
        # depend on the seed (a plain canonical order over relabelled sets
        # gives a different closure per seed, and pass times that differ by
        # a third).
        order = [permute_mask(b, perm) for b in sorted(range(1 << n), key=_mask_key)]
        bound = sum(comb(n, i) for i in range(2 * k - 1)) + (k - 1) * (n - 2 * k + 1)
        inputs.append({"n": n, "seed": seed_family, "order": order, "q": q, "bound": bound})
    return inputs


def _closure(api, item):
    seed_family, q = item["seed"], item["q"]
    closed = api.pkg.greedy_saturate(seed_family, q, order=item["order"])
    report = api.pkg.saturation_report(closed, q)
    gate(report.free and report.saturated, "closure is not saturated")
    gate(all(closed.has_mask(b) for b in seed_family.bit_list), "closure lost seed members")
    added = [b for b in closed.bit_list if not seed_family.has_mask(b)]
    gate(all(b.bit_count() <= 2 * KKK_K - 2 for b in added),
         f"closure added a set with more than {2 * KKK_K - 2} elements")
    gate(len(closed) <= item["bound"],
         f"closure has {len(closed)} sets, above the bound {item['bound']}")


def run_closure_deep(api, inputs, task):
    for item in inputs:
        task(f"closure n={item['n']}", lambda item=item: _closure(api, item))


# --- solve-exact -----------------------------------------------------------


def setup_solve_exact(api, seed, workdir, n):
    rng = random.Random(f"solve-exact:{seed}")
    inputs = []
    for name, build in (("B", api.pkg.butterfly_poset), ("N", api.pkg.n_poset)):
        q = relabel_poset(api, build(), rng.sample(range(4), 4))
        inputs.append({
            "name": name, "n": n, "q": q,
            "value": SAT_STAR[name][n], "count": SATURATED_COUNT[name][n],
        })
    return inputs


def _solve(api, item):
    n, q = item["n"], item["q"]
    result = api.pkg.exact_sat_star(n, q, method="auto")
    gate(result.exact and result.value == item["value"],
         f"auto gave {result.value} (exact={result.exact}), expected {item['value']}")
    enumerated = api.pkg.exact_sat_star(n, q, method="enumerate")
    gate(enumerated.value == result.value and enumerated.enumerated_count == item["count"],
         f"enumerate gave {enumerated.value} from {enumerated.enumerated_count} families")
    cert = result.certificate
    gate(len(cert) == result.value and api.pkg.saturation_report(cert, q).saturated,
         "certificate is not a saturated family of the reported size")


def run_solve_exact(api, inputs, task):
    for item in inputs:
        task(f"solve {item['name']} n={item['n']}", lambda item=item: _solve(api, item))


# --- verify-pool -----------------------------------------------------------


def setup_verify_pool(api, seed, workdir, sizes):
    rng = random.Random(f"verify-pool:{seed}")
    return {
        "B": api.pkg.butterfly_poset(),
        "N": api.pkg.n_poset(),
        "b_enumerate": sizes["b_enumerate"],
        "n_enumerate": sizes["n_enumerate"],
        "b_sample": [(n, c, rng.randrange(1 << 31)) for n, c in sizes["b_sample"]],
        "n_sample": [(n, c, rng.randrange(1 << 31)) for n, c in sizes["n_sample"]],
    }


def _enumerate(api, name, q, n):
    families = api.pkg.enumerate_saturated_families(n, q)
    expected = SATURATED_COUNT[name][n]
    gate(len(families) == expected, f"{len(families)} {name}-saturated families, expected {expected}")
    return families


def _sample(api, q, n, count, rng_seed):
    families = api.pkg.sample_saturated_families(n, q, count, rng_seed=rng_seed)
    gate(len(families) == count and all(f.ground.n == n for f in families),
         f"sampler returned {len(families)} families, expected {count} over [{n}]")
    return families


def _held(report) -> None:
    gate(report.hypotheses_hold and report.passed,
         f"{report.theorem} failed: {report.counterexample}")


def _verify_b(api, family):
    _held(api.pkg.lemma1_check(family))
    _held(api.pkg.verify_theorem2(family))
    # without singletons the theorem 3 bound is vacuous; the battery skips it
    if any(b.bit_count() == 1 for b in family.bit_list):
        _held(api.pkg.verify_theorem3(family))


def _verify_n(api, family):
    _held(api.pkg.verify_prop4(family))


def run_verify_pool(api, inputs, task):
    for name, verify in (("B", _verify_b), ("N", _verify_n)):
        q = inputs[name]
        key = name.lower()
        families = []
        for n in inputs[f"{key}_enumerate"]:
            got = task(f"enumerate {name} n={n}", lambda n=n: _enumerate(api, name, q, n))
            families.extend(got or ())
        for n, count, rng_seed in inputs[f"{key}_sample"]:
            got = task(f"sample {name} n={n}",
                       lambda n=n, c=count, s=rng_seed: _sample(api, q, n, c, s))
            families.extend(got or ())
        for i, family in enumerate(families):
            task(f"verify {name} #{i} n={family.ground.n}",
                 lambda family=family: verify(api, family), verdict=True)


SETUP = {
    "scan-wide": setup_scan_wide,
    "closure-deep": setup_closure_deep,
    "solve-exact": setup_solve_exact,
    "verify-pool": setup_verify_pool,
}

RUN_PASS = {
    "scan-wide": run_scan_wide,
    "closure-deep": run_closure_deep,
    "solve-exact": run_solve_exact,
    "verify-pool": run_verify_pool,
}


def setup(workload, api, seed, workdir, sizes):
    """Inputs of every part of the workload, by part."""
    return {part: SETUP[part](api, seed, workdir, sizes[part]) for part in WORKLOADS[workload]}


def run_pass(workload, api, inputs, task):
    for part in WORKLOADS[workload]:
        RUN_PASS[part](api, inputs[part], task)
