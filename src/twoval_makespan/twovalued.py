"""Best-of-branches solver for two-size instances with arbitrary rational sizes.

With alpha the big size over the small one, race three branches and keep
the smallest makespan in original units:

  small-down  size big jobs k = ceil(alpha) and small jobs 1, that is the
              small size lowered to 1/ceil(alpha) of the big one, solve the
              {1, k} flow rounding and lift back (factor f1)
  small-up    the same with k = floor(alpha), the small size raised (f2)
  additive    transportation rounding on the original sizes, additive error
              at most the big size

The reductions carry the bound min(1 + f1 - 1/alpha, 1/f2 + 1 - 1/floor(alpha))
whenever the optimum is below twice the big size; outside that regime the
additive branch is a 3/2 approximation. The branches share nothing mutable
and may run concurrently; the merge is a pure argmin. `pick_best` is the one
place a winner is picked and a `SolveResult` built: graph balancing and the
CLI's one-branch modes pass it their branches too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .bounds import GuaranteeReport, guarantee_report
from .lenstra import lenstra_solve
from .model import (
    Instance, ScaledInstance, Schedule, integer_sizes, makespan, size_ratio, unit_loads,
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


def build_reduced(instance: Instance, alpha: Fraction, which: str) -> ScaledInstance:
    """The {1, k} instance with the small size rounded to 1/k of the big one.

    k is ceil(alpha) (small-down) or floor(alpha) (small-up). The original
    small size is the reduced one times f1 or f2, the lift factors of
    `bounds.lift_factors(alpha)`.
    """
    if which == SMALL_DOWN:
        return ScaledInstance.of(instance, math.ceil(alpha))
    if which == SMALL_UP:
        return ScaledInstance.of(instance, math.floor(alpha))
    raise ValueError(f"unknown reduction {which!r}")


def pick_best(
    instance: Instance, report: GuaranteeReport, branches: dict[str, Schedule]
) -> SolveResult:
    """The result keeping the first-listed branch of least makespan on the original instance."""
    branch_makespans = {name: makespan(instance, sched) for name, sched in branches.items()}
    chosen = min(branch_makespans, key=lambda name: branch_makespans[name])
    return SolveResult(
        branches[chosen], branch_makespans[chosen], report, branch_makespans, chosen
    )


def solve_two_valued(instance: Instance) -> SolveResult:
    """Race the reductions and the additive rounding; certify the branch bound."""
    alpha = size_ratio(instance)
    branches = reduction_branches(instance, alpha, None, solve_unit_k)
    branches[ADDITIVE] = lenstra_solve(instance).schedule
    return pick_best(instance, guarantee_report(alpha), branches)


def reduction_branches(
    instance: Instance,
    alpha: Fraction,
    which_list: Sequence[str] | None,
    solve: Callable[[ScaledInstance], UnitKSolution | None],
) -> dict[str, Schedule]:
    """Schedules of the {1, k} solver `solve` on each reduction in which_list.

    None picks the reductions that apply at alpha: small-up alone when alpha
    is an integer, else small-down then small-up. A reduction whose flow is
    infeasible is left out. At alpha == 1 every job has size 1 and the
    schedule is the uniform branch.
    """
    if alpha == 1:
        result = solve(ScaledInstance.of(instance, 1))
        if result is None:  # single-size flow always meets demand at the top estimate
            raise RuntimeError("uniform-size flow unexpectedly infeasible")
        return {UNIFORM: result.schedule}
    if which_list is None:
        which_list = [SMALL_UP] if alpha.denominator == 1 else [SMALL_DOWN, SMALL_UP]
    branches: dict[str, Schedule] = {}
    for which in which_list:
        result = solve(build_reduced(instance, alpha, which))
        if result is None:
            continue
        if which == SMALL_DOWN:
            _check_lifted_loads(instance, result)
        branches[which] = result.schedule
    return branches


def _check_lifted_loads(instance: Instance, result: UnitKSolution) -> None:
    """Big-job machines of a small-down schedule obey load <= b + (T - 1) * s.

    T is the {1, k} estimate and b, s the big and small sizes. The cap is
    b * (1 + (T1 - 1/ceil(alpha)) * f1) with T1 = T / ceil(alpha), the
    estimate in units of b. Holds for either {1, k} rounding: its slack,
    k - 1 or k/2, is at most k - 1 for k >= 2.
    """
    denom, units = integer_sizes(instance)  # b, s and the loads in these units
    small, big = min(units), max(units)
    cap = big + (result.estimate - 1) * small
    loads = unit_loads(instance, result.schedule)
    for j, machine in enumerate(result.schedule.assignment):
        if units[j] == big and loads[machine] > cap:
            raise RuntimeError(
                f"machine {machine} lifted load {Fraction(loads[machine], denom)}"
                f" exceeds {Fraction(cap, denom)}"
            )
