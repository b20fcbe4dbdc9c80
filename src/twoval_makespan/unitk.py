"""Integral rounding for {1, k} instances.

Solve the flow at the minimum feasible estimate, keep the small jobs' integral
flow assignment, and place every big job on a machine already holding a
nonzero fraction of it. Because each job's fractions sum to 1 while each
machine's big fractions sum to at most 1, Hall's condition guarantees a
matching that gives every machine at most one big job; rounding then raises
any machine load by at most k - 1.

`round_flow` is the flow-and-check core; graph balancing reuses it with its
own big-job placement and a k/2 slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .flow import FractionalAssignment, min_feasible_T
from .matching import maximum_bipartite_matching
from .model import ScaledInstance, Schedule


@dataclass(frozen=True)
class UnitKSolution:
    schedule: Schedule
    estimate: int  # minimum feasible sink capacity the schedule was rounded from
    assignment: FractionalAssignment


def match_big_jobs(assignment: FractionalAssignment, scaled: ScaledInstance) -> dict[int, int]:
    """Match every big job to a machine holding a nonzero fraction of it.

    Failure is a bug upstream, never a normal outcome: the flow invariants
    imply Hall's condition for this bipartite graph.
    """
    bigs = scaled.big_jobs()
    adjacency = [assignment.support(j) for j in bigs]
    matched = maximum_bipartite_matching(adjacency)
    result: dict[int, int] = {}
    for job, machine in zip(bigs, matched):
        if machine is None:
            raise RuntimeError(
                f"big job {job} could not be matched; flow invariants are broken upstream"
            )
        result[job] = machine
    return result


def solve_unit_k(scaled: ScaledInstance) -> UnitKSolution | None:
    """Round a {1, k} instance to a schedule with at most one big job per machine.

    Returns None when no estimate admits a demand-meeting flow; the caller
    must then fall back to the additive rounding.
    """
    return round_flow(scaled, match_big_jobs, 2 * (scaled.k - 1))


def round_flow(
    scaled: ScaledInstance,
    place_big: Callable[[FractionalAssignment, ScaledInstance], dict[int, int]],
    slack2: int,
) -> UnitKSolution | None:
    """Round the flow the search found at the minimum feasible estimate.

    Small jobs keep their integral flow machine and `place_big` maps every big
    job to a machine. The result is checked to give each machine at most one
    big job and a load of at most the estimate plus slack2 / 2. None means no
    estimate admits a demand-meeting flow.
    """
    found = min_feasible_T(scaled)
    if found is None:
        return None
    estimate, assignment = found

    # a small job's flow sits on one machine (check_extraction_invariants)
    placed: list[int | None] = [
        None if size > 1 else next(iter(shares))
        for size, shares in zip(scaled.sizes, assignment.shares)
    ]
    for job, machine in place_big(assignment, scaled).items():
        placed[job] = machine
    schedule = Schedule(tuple(placed))  # type: ignore[arg-type]

    _check_rounding(scaled, assignment, schedule, estimate, slack2)
    return UnitKSolution(schedule=schedule, estimate=estimate, assignment=assignment)


def _check_rounding(
    scaled: ScaledInstance,
    assignment: FractionalAssignment,
    schedule: Schedule,
    estimate: int,
    slack2: int,
) -> None:
    loads = [0] * scaled.machine_count
    big_count = [0] * scaled.machine_count
    jobs = zip(schedule.assignment, scaled.sizes, assignment.shares)
    for j, (machine, size, shares) in enumerate(jobs):
        loads[machine] += size
        if size > 1:
            big_count[machine] += 1
        elif len(shares) != 1 or machine not in shares:
            raise RuntimeError(f"small job {j} moved away from its flow assignment")
    for machine in range(scaled.machine_count):
        if big_count[machine] > 1:
            raise RuntimeError(f"machine {machine} received {big_count[machine]} big jobs")
        if 2 * loads[machine] > 2 * estimate + slack2:
            raise RuntimeError(
                f"machine {machine} load {loads[machine]} exceeds estimate {estimate}"
                f" + {Fraction(slack2, 2)}"
            )
