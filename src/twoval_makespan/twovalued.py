"""Best-of-branches solver for two-size instances with arbitrary rational sizes.

With alpha the big size over the small one, race the {1, k} reductions in
the table `reductions(alpha)` against the additive rounding, and keep the
smallest makespan in original units. The table maps each reduction to its k,
in race order:

  uniform     k = 1, alone at alpha = 1: every job has one size and the
              flow rounding is exact
  small-down  k = ceil(alpha) at a non-integer alpha: the small size lowered
              to 1/ceil(alpha) of the big one (lift factor f1)
  small-up    k = floor(alpha), alone at an integer alpha > 1: the small size
              raised to 1/floor(alpha) (lift factor f2)

  additive    transportation rounding on the original sizes, additive error
              at most the big size, raced after the table's branches

`reduction_branches` is the one loop that builds a {1, k} instance for each
entry of such a table and runs a {1, k} solver on it; graph balancing and the
CLI's unitk mode pass it their own tables. The reductions carry the bound
min(1 + f1 - 1/alpha, 1/f2 + 1 - 1/floor(alpha)) whenever the optimum is
below twice the big size; outside that regime the additive branch is a 3/2
approximation. The branches share nothing mutable and may run concurrently;
the merge is a pure argmin. `pick_best` is the one place a winner is picked
and a `SolveResult` built: graph balancing and the CLI's one-branch modes pass
it their branches too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

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


def reductions(alpha: Fraction) -> dict[str, int]:
    """Each {1, k} reduction that applies at alpha, mapped to its k, in race order.

    The original small size is the reduced one times f1 (small-down) or f2
    (small-up), the lift factors of `bounds.lift_factors(alpha)`.
    """
    if alpha == 1:
        return {UNIFORM: 1}
    if alpha.denominator == 1:
        return {SMALL_UP: alpha.numerator}
    return {SMALL_DOWN: math.ceil(alpha), SMALL_UP: math.floor(alpha)}


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
    branches = reduction_branches(instance, reductions(alpha), solve_unit_k)
    branches[ADDITIVE] = lenstra_solve(instance).schedule
    return pick_best(instance, guarantee_report(alpha), branches)


def reduction_branches(
    instance: Instance,
    plan: Mapping[str, int],
    solve: Callable[[ScaledInstance], UnitKSolution | None],
) -> dict[str, Schedule]:
    """Schedules of the {1, k} solver `solve` on each (name, k) of plan, in order.

    A branch whose flow is infeasible is left out; a uniform one raises
    instead, since a single-size flow always meets the demand at the top
    estimate. Small-down schedules get their lifted loads checked.
    """
    branches: dict[str, Schedule] = {}
    for name, k in plan.items():
        result = solve(ScaledInstance.of(instance, k))
        if result is None:
            if name == UNIFORM:
                raise RuntimeError("uniform-size flow unexpectedly infeasible")
            continue
        if name == SMALL_DOWN:
            _check_lifted_loads(instance, result)
        branches[name] = result.schedule
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
