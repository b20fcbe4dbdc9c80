"""Best-of-branches solver for two-size instances with arbitrary rational sizes.

Normalize so sizes are {1/alpha, 1}, then race three branches and keep the
smallest makespan in original units:

  small-down  replace the small size by 1/ceil(alpha), solve the {1, k} flow
              rounding with k = ceil(alpha), lift back (factor f1)
  small-up    replace it by 1/floor(alpha), k = floor(alpha), lift back (f2)
  additive    transportation rounding on the original sizes, additive error
              at most the big size

The reductions carry the bound min(1 + f1 - 1/alpha, 1/f2 + 1 - 1/floor(alpha))
whenever the optimum is below twice the big size; outside that regime the
additive branch is a 3/2 approximation. The branches share nothing mutable
and may run concurrently; the merge is a pure argmin. Graph balancing races
its own branches through the same `reduction_branches` and `race`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .bounds import GuaranteeReport, guarantee_report, lift_factors
from .lenstra import lenstra_solve
from .model import (
    Instance,
    Job,
    ScaledInstance,
    Schedule,
    machine_loads,
    makespan,
    normalize,
    require_valid,
    scale_to_integer,
)
from .unitk import UnitKSolution, solve_unit_k

SMALL_DOWN = "small-down"  # small size lowered to 1/ceil(alpha)
SMALL_UP = "small-up"      # small size raised to 1/floor(alpha)
ADDITIVE = "additive"
UNIFORM = "uniform"        # single-size instances, solved exactly by the flow


@dataclass(frozen=True)
class SolveResult:
    schedule: Schedule
    makespan: Fraction
    report: GuaranteeReport
    branch_makespans: dict[str, Fraction]
    chosen: str


def build_reduced(normalized: Instance, alpha: Fraction, which: str) -> Instance:
    """Replace small sizes by the nearest unit fraction, up or down in size.

    The original small size is the reduced one times f1 (small-down) or f2
    (small-up), the lift factors of `bounds.lift_factors(alpha)`.
    """
    if which == SMALL_DOWN:
        denom = math.ceil(alpha)
    elif which == SMALL_UP:
        denom = math.floor(alpha)
    else:
        raise ValueError(f"unknown reduction {which!r}")
    new_small = Fraction(1, denom)
    jobs = tuple(
        job if job.size == 1 else Job(new_small, job.allowed) for job in normalized.jobs
    )
    return Instance(normalized.machine_count, jobs)


def pick_best(
    instance: Instance, branches: dict[str, Schedule]
) -> tuple[str, Fraction, dict[str, Fraction]]:
    """Argmin over branch schedules by original-unit makespan, first name wins ties."""
    branch_makespans = {name: makespan(instance, sched) for name, sched in branches.items()}
    chosen = min(branch_makespans, key=lambda name: branch_makespans[name])
    return chosen, branch_makespans[chosen], branch_makespans


def solve_two_valued(instance: Instance) -> SolveResult:
    """Race the reductions and the additive rounding; certify the branch bound."""
    require_valid(instance)
    norm, alpha = normalize(instance)
    branches = reduction_branches(norm, alpha, None, solve_unit_k)
    return race(instance, alpha, branches, lenstra_solve(instance).schedule)


def reduction_branches(
    norm: Instance,
    alpha: Fraction,
    which_list: Sequence[str] | None,
    solve: Callable[[ScaledInstance], UnitKSolution | None],
) -> dict[str, Schedule]:
    """Schedules of the {1, k} solver `solve` on each reduction in which_list.

    None picks the reductions that apply at alpha: small-up alone when alpha
    is an integer, else small-down then small-up. A reduction whose flow is
    infeasible is left out. At alpha == 1 the normalized instance is solved
    as it stands and its schedule is the uniform branch.
    """
    if alpha == 1:
        result = solve(scale_to_integer(norm))
        if result is None:  # single-size flow always meets demand at the top estimate
            raise RuntimeError("uniform-size flow unexpectedly infeasible")
        return {UNIFORM: result.schedule}
    if which_list is None:
        which_list = [SMALL_UP] if alpha.denominator == 1 else [SMALL_DOWN, SMALL_UP]
    branches: dict[str, Schedule] = {}
    for which in which_list:
        result = solve(scale_to_integer(build_reduced(norm, alpha, which)))
        if result is None:
            continue
        if which == SMALL_DOWN:
            _check_lifted_loads(norm, alpha, result)
        branches[which] = result.schedule
    return branches


def race(
    instance: Instance,
    alpha: Fraction,
    branches: dict[str, Schedule],
    additive: Schedule,
    graph_balancing: bool = False,
) -> SolveResult:
    """Append the additive branch's schedule and keep the smallest makespan.

    Reductions share the allowed sets of the original, so every branch
    schedule is valid for it and `pick_best` measures it in original units.
    """
    branches = {**branches, ADDITIVE: additive}
    chosen, best, branch_makespans = pick_best(instance, branches)
    return SolveResult(
        schedule=branches[chosen],
        makespan=best,
        report=guarantee_report(alpha, graph_balancing=graph_balancing),
        branch_makespans=branch_makespans,
        chosen=chosen,
    )


def _check_lifted_loads(norm: Instance, alpha: Fraction, result: UnitKSolution) -> None:
    """Big-job machines obey load <= 1 + (T1 - 1/ceil(alpha)) * f1 in normalized units.

    Holds for either {1, k} rounding: its slack, k - 1 or k/2, is at most
    k - 1 for k >= 2.
    """
    ceil_a = math.ceil(alpha)
    t_norm = Fraction(result.estimate, ceil_a)
    cap = 1 + (t_norm - Fraction(1, ceil_a)) * lift_factors(alpha)[0]
    loads = machine_loads(norm, result.schedule)
    for j, machine in enumerate(result.schedule.assignment):
        if norm.jobs[j].size == 1 and loads[machine] > cap:
            raise RuntimeError(
                f"machine {machine} lifted load {loads[machine]} exceeds {cap}"
            )
