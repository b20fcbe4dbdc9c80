"""Helpers shared by the test modules."""

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
