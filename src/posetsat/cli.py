"""Command-line front end.

Subcommands: construct, check, embed, greedy, verify, solve, hasse. Reports
go to stdout as JSON (or the family/DOT text formats); human-readable
summaries go to stderr. Exit codes: 0 success, 1 failed check/verify (the
report is still emitted), 2 usage error, 3 broken internal contract or any
other internal error, printed as one line (``--debug`` re-raises the latter
with its traceback), and 141 (128 + SIGPIPE), silently, when the reader of
stdout has closed it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .core import (
    GroundSet,
    SetFamily,
    complete_bipartite_poset,
    butterfly_poset,
    format_family,
    load_family,
    load_poset,
    n_poset,
    parse_family,
    poset_name,
)
from .errors import ContractViolationError, UsageError
from .hasse import emit_hasse
from .saturation import (
    butterfly_construction,
    greedy_saturate,
    k2k_seed,
    kkk_seed,
    n_construction,
    saturation_report,
)
from .embedding import find_induced_copy
from .solver import exact_sat_star, upper_bound_via_random_greedy
from .suite import run_paper_suite
from .theorems import (
    lemma1_check,
    theorem2_assignment,
    theorem3_assignment,
    verify_prop4,
    verify_theorem2,
    verify_theorem3,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool stopped by a closed pipe


def _resolve_poset(selector: str | None):
    if selector is None:
        raise UsageError("a poset selector is required")
    low = selector.lower()
    if low in ("butterfly", "b"):
        return butterfly_poset()
    if low == "n":
        return n_poset()
    if low.startswith(("k2k:", "kkk:")):
        kind, _, text = low.partition(":")
        try:
            k = int(text)
        except ValueError:
            raise UsageError(f"--poset {kind}:K needs an integer K, got {text!r}") from None
        return complete_bipartite_poset(k, 2 if kind == "k2k" else k)
    try:
        return load_poset(selector)
    except OSError as exc:
        raise UsageError(f"cannot read poset file {selector}: {exc}") from None


def _load_family_arg(args) -> SetFamily:
    if args.infile is None:
        raise UsageError(f"{args.subcommand} needs --in FAMILY_FILE")
    ground = GroundSet(args.n) if args.n is not None else None
    try:
        return load_family(args.infile, ground)
    except OSError as exc:
        raise UsageError(f"cannot read family file {args.infile}: {exc}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from None


def _print_json(obj) -> None:
    print(json.dumps(obj))


def _cmd_construct(args) -> int:
    if args.family in ("k2k", "kkk") and args.k is None:
        raise UsageError(f"--family {args.family} requires --k")
    if args.family == "butterfly":
        fam = butterfly_construction(args.n)
    elif args.family == "n":
        fam = n_construction(args.n)
    elif args.family == "k2k":
        fam = k2k_seed(args.n, args.k)
    else:
        fam = kkk_seed(args.n, args.k)
    _emit(format_family(fam), args.out)
    print(f"{args.family} family over [{args.n}]: {len(fam)} sets", file=sys.stderr)
    return EXIT_OK


def _cmd_check(args) -> int:
    q = _resolve_poset(args.poset)
    fam = _load_family_arg(args)
    report = saturation_report(fam, q)
    if args.fail_fast:
        report = replace(report, unsaturated_sets=report.unsaturated_sets[:1])
    _print_json(report.to_json_obj())
    if report.saturated:
        print(f"saturated: {len(fam)} sets, no free additions", file=sys.stderr)
        return EXIT_OK
    if not report.free:
        print("not free: induced copy present", file=sys.stderr)
    else:
        print(
            f"free but unsaturated: {len(report.unsaturated_sets)} addable sets",
            file=sys.stderr,
        )
    return EXIT_FAILED


def _cmd_embed(args) -> int:
    q = _resolve_poset(args.poset)
    fam = _load_family_arg(args)
    required = None
    if args.required is not None:
        required_fam = parse_family(args.required, fam.ground)
        if len(required_fam) != 1:
            raise UsageError(f"--required must name exactly one set, got {args.required!r}")
        required = required_fam.members[0]
    witness = find_induced_copy(fam, q, required=required)
    if witness is None:
        print("none")
        print("no induced copy", file=sys.stderr)
    else:
        _print_json(witness.to_json_obj())
        print("induced copy found", file=sys.stderr)
    return EXIT_OK


def _cmd_greedy(args) -> int:
    q = _resolve_poset(args.poset)
    if args.infile is not None:
        seed = _load_family_arg(args)
    else:
        if args.n is None:
            raise UsageError("greedy needs --n when no seed file is given")
        seed = SetFamily.from_masks(GroundSet(args.n), [])
    closed = greedy_saturate(seed, q)
    _emit(format_family(closed), args.out)
    print(
        f"closed {len(seed)}-set seed to a saturated family of {len(closed)} sets",
        file=sys.stderr,
    )
    return EXIT_OK


_VERIFIERS = {
    "lemma1": lemma1_check,
    "t2": verify_theorem2,
    "t3": verify_theorem3,
    "p4": verify_prop4,
}


def _cmd_verify(args) -> int:
    if args.strong and (args.suite is not None or args.target != "p4"):
        raise UsageError("--strong applies only to verify p4")
    if args.suite is not None:
        if args.suite != "paper":
            raise UsageError(f"unknown suite {args.suite!r}")
        if args.target is not None or args.infile is not None or args.format is not None:
            raise UsageError("--suite takes no verify target, --in or --format")
        ok = run_paper_suite(seed=1 if args.rng_seed is None else args.rng_seed)
        return EXIT_OK if ok else EXIT_FAILED
    if args.rng_seed is not None:
        raise UsageError("--rng-seed applies only to verify --suite paper")
    if args.target is None:
        raise UsageError("verify needs a target (lemma1|t2|t3|p4) or --suite paper")
    fam = _load_family_arg(args)
    if args.target == "p4":
        report = verify_prop4(fam, strong=args.strong)
    else:
        report = _VERIFIERS[args.target](fam)
    if args.format == "tsv":
        if args.target not in ("t2", "t3"):
            raise UsageError("--format tsv is only available for t2 and t3")
        if not report.hypotheses_hold:
            raise UsageError(report.counterexample["reason"])
        assignment = (
            theorem2_assignment(fam) if args.target == "t2" else theorem3_assignment(fam)
        )
        sys.stdout.write(assignment.to_tsv())
    elif args.format == "text":
        status = "passed" if report.passed else "failed"
        print(f"{report.theorem}: {status} (size {report.family_size}, bound {report.bound_value})")
    else:
        _print_json(report.to_json_obj())
    print(
        f"{report.theorem} {'passed' if report.passed else 'failed'} "
        f"on a {report.family_size}-set family",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_FAILED


def _cmd_solve(args) -> int:
    q = _resolve_poset(args.poset)
    if args.method == "greedy":
        if args.budget is not None:
            raise UsageError("--budget does not apply to --method greedy")
        trials = 20 if args.trials is None else args.trials
        seed = 1 if args.rng_seed is None else args.rng_seed
        result = upper_bound_via_random_greedy(args.n, q, trials=trials, rng_seed=seed)
    else:
        if args.trials is not None:
            raise UsageError("--trials applies only to --method greedy")
        if args.rng_seed is not None:
            raise UsageError("--rng-seed applies only to --method greedy")
        result = exact_sat_star(args.n, q, budget_s=args.budget, method=args.method)
    _print_json(result.to_json_obj())
    kind = "exact" if result.exact else "upper bound"
    print(f"sat*({args.n}, {poset_name(q)}) {kind}: {result.value}", file=sys.stderr)
    return EXIT_OK


def _cmd_hasse(args) -> int:
    fam = _load_family_arg(args)
    _emit(emit_hasse(fam), args.out)
    print(f"emitted Hasse diagram of {len(fam)} sets", file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetsat",
        description="Induced poset saturation in the Boolean lattice",
    )
    parser.add_argument(
        "--debug", action="store_true", help="re-raise internal errors with a traceback"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="emit a named family")
    p.add_argument("--family", required=True, choices=["butterfly", "n", "k2k", "kkk"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="saturation report for a family")
    p.add_argument("--poset", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("embed", help="find an induced copy of a poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--required", help="set that must appear in the image, e.g. '{1,3}'")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("greedy", help="close a free seed to a saturated family")
    p.add_argument("--poset", required=True)
    p.add_argument("--in", dest="infile")
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("verify", help="run a verifier or the full battery")
    p.add_argument("target", nargs="?", choices=sorted(_VERIFIERS))
    p.add_argument("--suite", help="'paper' runs the full battery")
    p.add_argument("--in", dest="infile")
    p.add_argument("--n", type=int)
    p.add_argument("--strong", action="store_true", help="p4: also check the per-member claim")
    p.add_argument("--format", choices=["json", "tsv", "text"], help="default json")
    p.add_argument("--rng-seed", type=int, help="--suite paper: battery seed (default 1)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="exact or best-known saturation number")
    p.add_argument("--poset", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["auto", "enumerate", "greedy"], default="auto")
    p.add_argument("--budget", type=float, help="time budget in seconds")
    p.add_argument("--trials", type=int, help="greedy method: closure count (default 20)")
    p.add_argument("--rng-seed", type=int, help="greedy method: seed (default 1)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("hasse", help="DOT digraph of a family's cover relations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hasse)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send what is left to the null device, so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except Exception as exc:
        if args.debug:
            raise
        detail = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_CONTRACT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
