"""Command-line interface: solve, gen, verify, bound.

Exit codes: 0 success or verified pass, 1 verification fail, 2 input error,
3 oracle budget exceeded, 141 stdout closed early (as in `solve big.txt | head`).
The oracle node budget defaults to 10**7 and can be overridden with the
TWOVAL_ORACLE_BUDGET environment variable or --budget. Integer options and that
variable take ASCII digits with an optional sign, like instance files.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time
from fractions import Fraction

from .bounds import gb_worst_case_alpha, guarantee_report, worst_case_alpha
from .fileio import (
    FileFormatError, format_fraction, format_instance, parse_fraction, parse_instance, parse_int,
)
from .generator import random_instance
from .graph_balancing import gb_solve_two_valued
from .lenstra import lenstra_solve
from .model import Instance, is_graph_balancing, size_ratio
from .oracle import DEFAULT_NODE_BUDGET, BudgetExceeded, brute_force_opt, ratio_verdict
from .twovalued import ADDITIVE, SolveResult, pick_best, reduction_branches, solve_two_valued
from .unitk import solve_unit_k

ORACLE_BUDGET_ENV = "TWOVAL_ORACLE_BUDGET"

MODES = ("auto", "unitk", "lenstra", "gb", "two-valued")


def _value(label: str, value: Fraction) -> str:
    return f"{label} {format_fraction(value)} {float(value):.4f}"


REGIME_NOTE = "3/2 once the optimum reaches twice the big size"


def _resolve_mode(instance: Instance, mode: str) -> str:
    """The mode to solve in: auto picks gb exactly when gb mode accepts the instance."""
    if mode == "auto":
        return "gb" if is_graph_balancing(instance) else "two-valued"
    if mode == "gb" and not is_graph_balancing(instance):
        raise ValueError("gb mode requires every job to allow at most 2 machines")
    return mode


def _solve(instance: Instance, mode: str) -> SolveResult:
    """The library result for gb and two-valued; a one-branch race for unitk and lenstra.

    `mode` is one `_resolve_mode` returned, so one of those four.
    """
    if mode in ("gb", "two-valued"):
        solver = gb_solve_two_valued if mode == "gb" else solve_two_valued
        return solver(instance)
    alpha = size_ratio(instance)  # at alpha = k the unitk report's bound is 2 - 1/k
    if mode == "unitk":
        if alpha.denominator != 1:
            raise ValueError(f"non-integer ratio: small size {1 / alpha} is not a unit fraction")
        branches = reduction_branches(instance, {"flow": alpha.numerator}, solve_unit_k)
        if branches:
            return pick_best(instance, guarantee_report(alpha), branches)
    additive = lenstra_solve(instance).schedule
    return pick_best(instance, guarantee_report(alpha), {ADDITIVE: additive})


def _print_solve(result: SolveResult, mode: str, wall_time: float) -> None:
    for job, machine in enumerate(result.schedule.assignment):
        print(f"assign {job} {machine}")
    print(_value("makespan", result.makespan))
    # the additive rounding alone certifies 2
    print(_value("bound", Fraction(2) if mode == "lenstra" else result.report.constructive_bound))
    for name, value in result.branch_makespans.items():
        print("# " + _value(f"branch {name} makespan", value))
    print(f"# chosen {result.chosen}")
    if mode != "lenstra":
        g = result.report
        print(
            f"# alpha {format_fraction(g.alpha)}"
            f" f1 {format_fraction(g.f1)} f2 {format_fraction(g.f2)}"
            f" expr1 {format_fraction(g.expr1)} expr2 {format_fraction(g.expr2)}"
        )
        if g.nonconstructive_note is not None:
            print("# " + _value("nonconstructive", g.nonconstructive_note))
    if mode != "unitk":
        print(f"# bound-note {REGIME_NOTE}")
    print(f"# wall-time {wall_time:.4f}s")


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.path)
    mode = _resolve_mode(instance, args.mode)
    started = time.perf_counter()
    result = _solve(instance, mode)
    _print_solve(result, mode, time.perf_counter() - started)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.jobs < 1 or args.machines < 1:
        raise ValueError("jobs and machines must be >= 1")
    instance = random_instance(
        random.Random(args.seed),
        args.jobs,
        args.machines,
        parse_fraction(args.alpha),
        gb=args.gb,
        ensure_big=not args.allow_all_small,
    )
    sys.stdout.write(format_instance(instance))
    return 0


def _oracle_budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get(ORACLE_BUDGET_ENV)
        if env is None:
            return DEFAULT_NODE_BUDGET
        try:
            budget, source = parse_int(env), ORACLE_BUDGET_ENV
        except ValueError:
            raise ValueError(f"{ORACLE_BUDGET_ENV} must be an integer, got {env!r}") from None
    if budget < 1:
        raise ValueError(f"{source} must be at least 1, got {budget}")
    return budget


def _explicit_bound(args: argparse.Namespace) -> Fraction | None:
    if args.bound is None:
        return None
    bound = parse_fraction(args.bound)
    if bound <= 0:
        raise ValueError(f"--bound must be positive, got {args.bound}")
    return bound


def _applicable_bound(
    instance: Instance, result: SolveResult, opt: Fraction, mode: str
) -> Fraction:
    """Default verification bound: the certified bound for the regime opt lies in."""
    sizes = instance.distinct_sizes()
    big = sizes[-1] if sizes else Fraction(0)
    if mode == "unitk":
        return result.report.constructive_bound
    if mode == "lenstra":
        return Fraction(3, 2) if opt >= 2 * big else Fraction(2)
    if big > 0 and opt >= 2 * big:
        return Fraction(3, 2)
    return result.report.constructive_bound


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.path)
    budget = _oracle_budget(args)
    bound = _explicit_bound(args)
    mode = _resolve_mode(instance, args.mode)
    result = _solve(instance, mode)
    opt = brute_force_opt(instance, budget).opt_makespan  # main reports BudgetExceeded
    if bound is None:
        bound = _applicable_bound(instance, result, opt, mode)
    ratio, passed = ratio_verdict(result.makespan, opt, bound)
    print(_value("opt", opt))
    print(_value("makespan", result.makespan))
    print(_value("ratio", ratio))
    print(_value("bound", bound))
    print(f"verdict {'pass' if passed else 'fail'}")
    return 0 if passed else 1


def cmd_bound(args: argparse.Namespace) -> int:
    alpha = parse_fraction(args.alpha)
    if args.gb and alpha < 2:
        raise ValueError("gb bound table requires alpha >= 2")
    if not args.gb and alpha <= 1:
        raise ValueError("bound table requires alpha > 1")
    report = guarantee_report(alpha, graph_balancing=args.gb)
    print(_value("alpha", alpha))
    print(_value("f1", report.f1))
    print(_value("f2", report.f2))
    print(_value("expr1", report.expr1))
    print(_value("expr2", report.expr2))
    print(_value("min", min(report.expr1, report.expr2)))
    root = (gb_worst_case_alpha if args.gb else worst_case_alpha)(math.floor(alpha))
    at_root = guarantee_report(root, graph_balancing=args.gb)
    print(_value("worst-alpha", root))
    print(_value("worst-value", min(at_root.expr1, at_root.expr2)))
    if report.nonconstructive_note is not None:
        print(_value("nonconstructive", report.nonconstructive_note))
    return 0


def _integer(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoval-makespan",
        description="Approximation solvers for two-size makespan scheduling "
        "with machine eligibility constraints, with exact-rational certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file and print the schedule")
    p_solve.add_argument("path")
    p_solve.add_argument("--mode", choices=MODES, default="auto")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="emit a deterministic random instance file")
    p_gen.add_argument("--seed", type=_integer, required=True)
    p_gen.add_argument("--jobs", type=_integer, required=True)
    p_gen.add_argument("--machines", type=_integer, required=True)
    p_gen.add_argument("--alpha", default="2", help="size ratio big/small as num/den")
    p_gen.add_argument("--gb", action="store_true", help="allowed sets of size at most 2")
    p_gen.add_argument(
        "--allow-all-small", action="store_true", help="do not force at least one big job"
    )
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser(
        "verify", help="solve, then check the ratio against the exact optimum"
    )
    p_verify.add_argument("path")
    p_verify.add_argument("--mode", choices=MODES, default="auto")
    p_verify.add_argument("--bound", help="explicit ratio bound num/den (default: certified bound)")
    p_verify.add_argument("--budget", type=_integer, help="oracle node budget")
    p_verify.set_defaults(func=cmd_verify)

    p_bound = sub.add_parser("bound", help="print the ratio expressions for an alpha")
    p_bound.add_argument("--alpha", required=True)
    p_bound.add_argument("--gb", action="store_true")
    p_bound.set_defaults(func=cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _run(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader left early; what is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except BudgetExceeded:
        print("verdict budget-exceeded")
        return 3
    except (FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
