"""Helpers shared by the test modules."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from twoval_makespan.flow import FlowNetwork, FractionalAssignment, flow_network
from twoval_makespan.lenstra import _find_support_cycle
from twoval_makespan.model import (
    Instance, ScaledInstance, Schedule, integer_sizes, makespan, normalize, scale_to_integer,
)
from twoval_makespan.oracle import DEFAULT_NODE_BUDGET, brute_force_opt, ratio_verdict


def integer_instance(scaled: ScaledInstance) -> Instance:
    """The {1, k} instance as an `Instance`: its integer sizes and machine sets."""
    return Instance.build(scaled.machine_count, zip(scaled.sizes, scaled.allowed))


def scale(machines, jobs) -> ScaledInstance:
    """The {1, k} view of the normalized instance, as the CLI's unitk mode builds it."""
    return scale_to_integer(normalize(Instance.build(machines, jobs))[0])


def scale_with_k(machines, jobs, k) -> ScaledInstance:
    """The {1, k} view at a given k.

    Keeps all-big fixtures at their intended k instead of renormalizing to 1.
    """
    return ScaledInstance.of(Instance.build(machines, jobs), k)


def transportation(instance: Instance) -> FlowNetwork:
    """The additive search's network: no throttles, capacities in units of 1/D."""
    allowed = [job.allowed for job in instance.jobs]
    return flow_network(instance.machine_count, allowed, integer_sizes(instance)[1])


def fraction(assignment: FractionalAssignment, job: int, machine: int) -> Fraction:
    """The part of the job that the assignment runs on the machine."""
    return Fraction(assignment.shares[job].get(machine, 0), assignment.sizes[job])


def schedule_of(assignment: Iterable[int]) -> Schedule:
    """The schedule placing job j on the j-th machine of `assignment`."""
    return Schedule(tuple(assignment))


def support_is_forest(assignment: FractionalAssignment) -> bool:
    """True when the bipartite support graph of fractional jobs is acyclic."""
    return _find_support_cycle(assignment.shares) is None


@dataclass(frozen=True)
class RatioCheck:
    passed: bool
    ratio: Fraction
    opt_makespan: Fraction
    witness: Schedule


def verify_ratio(
    instance: Instance,
    schedule: Schedule,
    bound: Fraction,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RatioCheck:
    """Exact-rational check that a schedule is within `bound` times the optimum."""
    value = makespan(instance, schedule)
    result = brute_force_opt(instance, node_budget)
    ratio, passed = ratio_verdict(value, result.opt_makespan, bound)
    return RatioCheck(passed, ratio, result.opt_makespan, result.witness)


def reference_violation(machine_count: int, jobs) -> str | None:
    """The first instance violation found by comparing each job's Fraction size.

    `jobs` holds (Fraction size, machine set) pairs. The checks and their
    order are the model's: machine count; per job the size, an empty set, the
    index range; then the count of distinct sizes.
    """
    if machine_count < 1:
        return "machine count must be positive"
    for idx, (size, allowed) in enumerate(jobs):
        if size <= 0:
            return f"job {idx}: nonpositive size"
        if not allowed:
            return f"job {idx}: empty allowed set"
        if min(allowed) < 0 or max(allowed) >= machine_count:
            return f"job {idx}: machine index out of range"
    if len({size for size, _ in jobs}) > 2:
        return "more than two size values"
    return None
