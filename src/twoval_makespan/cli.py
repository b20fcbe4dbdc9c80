"""Command-line interface: solve, gen, verify, bound.

Exit codes: 0 success or verified pass, 1 verification fail, 2 input error,
3 oracle budget exceeded. The oracle node budget defaults to 10**7 and can be
overridden with the TWOVAL_ORACLE_BUDGET environment variable or --budget.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    GuaranteeReport,
    gb_worst_case_alpha,
    guarantee_report,
    gb_ratio_expressions,
    ratio_expressions,
    worst_case_alpha,
)
from .fileio import FileFormatError, format_fraction, format_instance, parse_fraction, parse_instance
from .generator import generate_instance
from .graph_balancing import gb_solve_two_valued
from .lenstra import lenstra_solve
from .model import (
    Instance,
    Schedule,
    is_graph_balancing,
    makespan,
    normalize,
    scale_to_integer,
    validate,
)
from .oracle import DEFAULT_NODE_BUDGET, BudgetExceeded, brute_force_opt, ratio_verdict
from .twovalued import ADDITIVE, solve_two_valued
from .unitk import solve_unit_k

ORACLE_BUDGET_ENV = "TWOVAL_ORACLE_BUDGET"

MODES = ("auto", "unitk", "lenstra", "gb", "two-valued")


@dataclass
class RunReport:
    schedule: Schedule
    makespan: Fraction
    bound: Fraction
    bound_note: str | None
    branch_makespans: dict[str, Fraction]
    chosen: str
    guarantee: GuaranteeReport | None
    wall_time: float = 0.0


def _value(label: str, value: Fraction) -> str:
    return f"{label} {format_fraction(value)} {float(value):.4f}"


REGIME_NOTE = "3/2 once the optimum reaches twice the big size"


def _resolve_mode(instance: Instance, mode: str) -> str:
    if mode == "auto":
        return "gb" if is_graph_balancing(instance) else "two-valued"
    return mode


def _solve_report(instance: Instance, mode: str) -> RunReport:
    started = time.perf_counter()
    if mode in ("gb", "two-valued"):
        if mode == "gb" and not is_graph_balancing(instance):
            raise ValueError("gb mode requires every job to allow at most 2 machines")
        solver = gb_solve_two_valued if mode == "gb" else solve_two_valued
        result = solver(instance)
        report = RunReport(
            schedule=result.schedule,
            makespan=result.makespan,
            bound=result.report.constructive_bound,
            bound_note=REGIME_NOTE,
            branch_makespans=result.branch_makespans,
            chosen=result.chosen,
            guarantee=result.report,
        )
    elif mode == "lenstra":
        solution = lenstra_solve(instance)
        value = makespan(instance, solution.schedule)
        report = RunReport(
            schedule=solution.schedule,
            makespan=value,
            bound=Fraction(2),
            bound_note=REGIME_NOTE,
            branch_makespans={ADDITIVE: value},
            chosen=ADDITIVE,
            guarantee=None,
        )
    elif mode == "unitk":
        norm, alpha = normalize(instance)
        scaled = scale_to_integer(norm)  # raises on non-integer size ratio
        solution = solve_unit_k(scaled)
        if solution is not None:
            schedule = solution.schedule
            chosen = "flow"
        else:
            schedule = lenstra_solve(instance).schedule
            chosen = ADDITIVE
        value = makespan(instance, schedule)
        report = RunReport(
            schedule=schedule,
            makespan=value,
            bound=2 - Fraction(1, scaled.k),
            bound_note=None,
            branch_makespans={chosen: value},
            chosen=chosen,
            guarantee=guarantee_report(alpha),
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report.wall_time = time.perf_counter() - started
    return report


def _print_solve(report: RunReport) -> None:
    for job, machine in enumerate(report.schedule.assignment):
        print(f"assign {job} {machine}")
    print(_value("makespan", report.makespan))
    print(_value("bound", report.bound))
    for name in report.branch_makespans:
        print("# " + _value(f"branch {name} makespan", report.branch_makespans[name]))
    print(f"# chosen {report.chosen}")
    if report.guarantee is not None:
        g = report.guarantee
        print(
            f"# alpha {format_fraction(g.alpha)}"
            f" f1 {format_fraction(g.f1)} f2 {format_fraction(g.f2)}"
            f" expr1 {format_fraction(g.expr1)} expr2 {format_fraction(g.expr2)}"
        )
        if g.nonconstructive_note is not None:
            print("# " + _value("nonconstructive", g.nonconstructive_note))
    if report.bound_note:
        print(f"# bound-note {report.bound_note}")
    print(f"# wall-time {report.wall_time:.4f}s")


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    instance = parse_instance(text)
    violation = validate(instance)
    if violation is not None:
        raise FileFormatError(f"invalid instance: {violation}")
    return instance


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.path)
    report = _solve_report(instance, _resolve_mode(instance, args.mode))
    _print_solve(report)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.jobs < 1 or args.machines < 1:
        raise ValueError("jobs and machines must be >= 1")
    alpha = parse_fraction(args.alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    instance = generate_instance(
        seed=args.seed,
        jobs=args.jobs,
        machines=args.machines,
        alpha=alpha,
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
            budget, source = int(env), ORACLE_BUDGET_ENV
        except ValueError:
            raise ValueError(f"{ORACLE_BUDGET_ENV} must be an integer, got {env!r}") from None
    if budget < 1:
        raise ValueError(f"{source} must be at least 1, got {budget}")
    return budget


def _applicable_bound(instance: Instance, report: RunReport, opt: Fraction, mode: str) -> Fraction:
    """Default verification bound: the certified bound for the regime opt lies in."""
    sizes = instance.distinct_sizes()
    big = sizes[-1] if sizes else Fraction(0)
    if mode == "unitk":
        return report.bound
    if mode == "lenstra":
        return Fraction(3, 2) if opt >= 2 * big else Fraction(2)
    if big > 0 and opt >= 2 * big:
        return Fraction(3, 2)
    return report.bound


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.path)
    budget = _oracle_budget(args)
    mode = _resolve_mode(instance, args.mode)
    report = _solve_report(instance, mode)
    opt = brute_force_opt(instance, budget).opt_makespan  # main reports BudgetExceeded
    if args.bound is not None:
        bound = parse_fraction(args.bound)
    else:
        bound = _applicable_bound(instance, report, opt, mode)
    ratio, passed = ratio_verdict(report.makespan, opt, bound)
    print(_value("opt", opt))
    print(_value("makespan", report.makespan))
    print(_value("ratio", ratio))
    print(_value("bound", bound))
    print(f"verdict {'pass' if passed else 'fail'}")
    return 0 if passed else 1


def cmd_bound(args: argparse.Namespace) -> int:
    alpha = parse_fraction(args.alpha)
    if args.gb:
        if alpha < 2:
            raise ValueError("gb bound table requires alpha >= 2")
        expr1, expr2 = gb_ratio_expressions(alpha)
    else:
        if alpha <= 1:
            raise ValueError("bound table requires alpha > 1")
        expr1, expr2 = ratio_expressions(alpha)
    report = guarantee_report(alpha, graph_balancing=args.gb)
    print(_value("alpha", alpha))
    print(_value("f1", report.f1))
    print(_value("f2", report.f2))
    print(_value("expr1", expr1))
    print(_value("expr2", expr2))
    print(_value("min", min(expr1, expr2)))
    interval = math.floor(alpha)
    if args.gb:
        root = gb_worst_case_alpha(max(interval, 2))
        root_value = min(gb_ratio_expressions(root))
    else:
        root = worst_case_alpha(max(interval, 1))
        root_value = min(ratio_expressions(root))
    print(_value("worst-alpha", root))
    print(_value("worst-value", root_value))
    if report.nonconstructive_note is not None:
        print(_value("nonconstructive", report.nonconstructive_note))
    return 0


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
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--jobs", type=int, required=True)
    p_gen.add_argument("--machines", type=int, required=True)
    p_gen.add_argument("--alpha", default="2", help="size ratio big/small as num/den")
    p_gen.add_argument("--gb", action="store_true", help="allowed sets of size at most 2")
    p_gen.add_argument(
        "--allow-all-small", action="store_true", help="do not force at least one big job"
    )
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="solve, then check the ratio against the exact optimum")
    p_verify.add_argument("path")
    p_verify.add_argument("--mode", choices=MODES, default="auto")
    p_verify.add_argument("--bound", help="explicit ratio bound num/den (default: certified bound)")
    p_verify.add_argument("--budget", type=int, help="oracle node budget")
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
        return args.func(args)
    except BudgetExceeded:
        print("verdict budget-exceeded")
        return 3
    except (FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
