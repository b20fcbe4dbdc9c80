"""Helpers shared by the test modules."""

from fractions import Fraction

from twoval_makespan.flow import FractionalAssignment
from twoval_makespan.model import Instance, ScaledInstance, normalize, scale_to_integer


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


def fraction(assignment: FractionalAssignment, job: int, machine: int) -> Fraction:
    """The part of the job that the assignment runs on the machine."""
    return Fraction(assignment.shares[job].get(machine, 0), assignment.sizes[job])


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
