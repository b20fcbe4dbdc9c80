"""Helpers shared by the test modules."""

from twoval_makespan.model import Instance, ScaledInstance


def integer_instance(scaled: ScaledInstance) -> Instance:
    """The {1, k} instance as an `Instance`: its integer sizes and machine sets."""
    return Instance.build(scaled.machine_count, zip(scaled.sizes, scaled.allowed))
