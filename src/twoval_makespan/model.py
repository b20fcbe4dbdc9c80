"""Exact-rational model of two-size scheduling instances.

An `Instance` is two columns in job order, as in the paper: `sizes`, each
job's size p_j as an exact rational, and `allowed`, each job's machine set
M_j as a frozenset. Solvers read the columns directly; there is no per-job
object. The instance derives its integer units once, when it is built: the
lcm D of the size denominators and every job's size times D
(`integer_sizes`). Validation, `distinct_sizes`, the {1, k} view
(`ScaledInstance`), `normalize` and machine loads all read those units, so
no solver does per-job Fraction work; alpha, reported loads and bounds stay
exact Fractions. The instance fixes the machine order the same way, once:
`sorted_allowed` holds each job's machines in increasing index, and every
solver walks them in that order (flow arcs, matchings, the oracle's
choices) without sorting a set again; the {1, k} view carries that column
as its `allowed`. Floating point only appears when reports are rendered for
humans. All model values are frozen dataclasses, so they can be shared
freely between concurrent solver runs.

An `Instance` is valid by construction: building an invalid one raises
`ValueError("invalid instance: <violation>")` naming the first violation, so
no solver checks its input again. A size that is no int or Fraction, a column
that is no tuple and a machine set that is no frozenset raise TypeError, so
an instance is hashable and immutable. Machine indices are ints (bools too)
in 0..m-1. Whole-column passes accept; only when one fails does a per-job
loop run, to name the first violation. `normalize` changes only the two size
values of a valid instance, so it shares `allowed` and checks no job again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable


def as_rational(value: object) -> Fraction:
    """Coerce an int or a Fraction to an exact rational; anything else raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Instance:
    """Jobs with at most two distinct sizes, each restricted to a machine subset.

    Job j has size sizes[j] (`build` makes it a Fraction) and machine set allowed[j],
    which sorted_allowed[j] lists in increasing index.
    """

    machine_count: int
    sizes: tuple[Fraction, ...]
    allowed: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        violation = self._violation()
        if violation is not None:
            raise ValueError(f"invalid instance: {violation}")

    def _violation(self) -> str | None:
        """The first violation of the instance invariants, or None; the cost does not grow with m."""
        _, units = self._integer_sizes  # raises TypeError on a size that is no rational
        m, allowed = self.machine_count, self.allowed
        if not isinstance(m, int):
            raise TypeError(f"machine count {m!r} is not an int")
        if not (isinstance(self.sizes, tuple) and isinstance(allowed, tuple)):
            raise TypeError("the sizes and allowed columns must be tuples")
        if m < 1:
            return "machine count must be positive"
        if len(allowed) != len(units):
            return f"{len(units)} sizes but {len(allowed)} allowed sets"
        if not (  # whole-column passes accept; the per-job loop names the first violation
            set(map(type, allowed)) <= {frozenset} and min(units, default=1) > 0 and all(allowed)
            and set(map(type, chain.from_iterable(allowed))) <= {int, bool}  # each index: 1.0 == 1
            and 0 <= min(union := set().union(*allowed), default=0) <= max(union, default=0) < m
        ):
            for idx, (unit, machines) in enumerate(zip(units, allowed)):
                if not isinstance(machines, frozenset):
                    raise TypeError(f"job {idx}: machine set {machines!r} is not a frozenset")
                if unit <= 0:
                    return f"job {idx}: nonpositive size"
                if not machines:
                    return f"job {idx}: empty allowed set"
                if not all(isinstance(i, int) and 0 <= i < m for i in machines):
                    return f"job {idx}: machine index out of range"
        if len(set(units)) > 2:
            return "more than two size values"
        return None

    @classmethod
    def _resized(
        cls,
        machine_count: int,
        sizes: tuple[Fraction, ...],
        allowed: tuple[frozenset[int], ...],
        integer_sizes: tuple[int, tuple[int, ...]],
    ) -> "Instance":
        """A valid instance's machine sets with new positive sizes, two at most, not checked again.

        `integer_sizes` must be what `_integer_sizes` would derive from `sizes`.
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "machine_count", machine_count)
        object.__setattr__(instance, "sizes", sizes)
        object.__setattr__(instance, "allowed", allowed)
        instance.__dict__["_integer_sizes"] = integer_sizes
        return instance

    @classmethod
    def build(cls, machine_count: int, jobs: Iterable[tuple[object, Iterable[int]]]) -> "Instance":
        """The instance of (size, machines) pairs in job order; sizes go through `as_rational`."""
        sizes, allowed = [], []
        for size, machines in jobs:
            sizes.append(as_rational(size))
            allowed.append(frozenset(machines))
        return cls(machine_count, tuple(sizes), tuple(allowed))

    @property
    def job_count(self) -> int:
        return len(self.sizes)

    def distinct_sizes(self) -> tuple[Fraction, ...]:
        return self._distinct_sizes

    # computed once per instance; cached_property writes the instance's
    # __dict__ directly, so it works on a frozen dataclass and stays out of
    # equality and hashing, which use the fields only
    @cached_property
    def _distinct_sizes(self) -> tuple[Fraction, ...]:
        denom, units = self._integer_sizes
        return tuple(Fraction(unit, denom) for unit in sorted(set(units)))

    @cached_property
    def sorted_allowed(self) -> tuple[tuple[int, ...], ...]:
        """Each job's machines in increasing index, the one order every solver walks them in."""
        return tuple(map(tuple, map(sorted, self.allowed)))

    @cached_property
    def _integer_sizes(self) -> tuple[int, tuple[int, ...]]:
        ratios = [as_rational(size).as_integer_ratio() for size in self.sizes]
        denom = math.lcm(*{den for _, den in ratios})
        return denom, tuple(num * (denom // den) for num, den in ratios)


@dataclass(frozen=True)
class Schedule:
    """Total assignment of job index to machine index."""

    assignment: tuple[int, ...]


@dataclass(frozen=True)
class ScaledInstance:
    """A {1, k} instance in integer units: every job keeps its machines and has size 1 or k.

    A job is big exactly when its size exceeds 1, so at k = 1 no job is big.
    """

    machine_count: int
    allowed: tuple[tuple[int, ...], ...]  # each job's machines in increasing index
    sizes: tuple[int, ...]
    k: int

    @classmethod
    def of(cls, instance: Instance, k: int) -> "ScaledInstance":
        """The largest-size jobs get size k, all others size 1; `allowed` is `sorted_allowed`."""
        _, units = integer_sizes(instance)
        big = max(units, default=None)
        sizes = tuple(k if unit == big else 1 for unit in units)
        return cls(instance.machine_count, instance.sorted_allowed, sizes, k)

    def big_jobs(self) -> tuple[int, ...]:
        return tuple(j for j, size in enumerate(self.sizes) if size > 1)


def unit_loads(instance: Instance, schedule: Schedule) -> list[int]:
    """Per-machine total size in the instance's integer units; rejects disallowed placements."""
    if len(schedule.assignment) != instance.job_count:
        raise ValueError(
            f"schedule covers {len(schedule.assignment)} jobs, instance has {instance.job_count}"
        )
    _, sizes = integer_sizes(instance)
    allowed = instance.allowed
    units = [0] * instance.machine_count
    for job_idx, machine in enumerate(schedule.assignment):
        if machine not in allowed[job_idx]:
            raise ValueError(f"job {job_idx} assigned to machine {machine} outside its allowed set")
        units[machine] += sizes[job_idx]
    return units


def machine_loads(instance: Instance, schedule: Schedule) -> list[Fraction]:
    """Per-machine total size under an assignment; rejects disallowed placements."""
    denom, _ = integer_sizes(instance)
    return [Fraction(load, denom) for load in unit_loads(instance, schedule)]


def makespan(instance: Instance, schedule: Schedule) -> Fraction:
    """Maximum machine load; machines with no jobs contribute 0."""
    denom, _ = integer_sizes(instance)
    return Fraction(max(unit_loads(instance, schedule)), denom)  # at least one machine


def size_ratio(instance: Instance) -> Fraction:
    """alpha, the big size over the small one; 1 for single-sized (or empty) instances."""
    sizes = instance.distinct_sizes()
    return sizes[-1] / sizes[0] if sizes else Fraction(1)


def normalize(instance: Instance) -> tuple[Instance, Fraction]:
    """Divide all sizes by the big size so sizes become {1/alpha, 1}.

    Single-sized (or empty) instances normalize to all-ones with alpha = 1.
    """
    sizes = instance.distinct_sizes()
    if not sizes:
        return instance, Fraction(1)
    small, big = sizes[0], sizes[-1]
    low, one = small / big, Fraction(1)  # one division, shared by every small job
    _, units = integer_sizes(instance)
    small_unit, big_unit = min(units), max(units)
    # with low = p/q in lowest terms, D = q and the jobs are q or p units
    p, q = low.numerator, low.denominator
    sizes = tuple(map({small_unit: low, big_unit: one}.__getitem__, units))
    scaled = tuple(map({small_unit: p, big_unit: q}.__getitem__, units))
    resized = Instance._resized(instance.machine_count, sizes, instance.allowed, (q, scaled))
    return resized, big / small


def integer_sizes(instance: Instance) -> tuple[int, tuple[int, ...]]:
    """The lcm D of the size denominators and every job's size times D, in job order.

    D is the smallest factor making every size integral; it is 1 with no jobs.
    Computed once per instance; later calls return the same tuple.
    """
    return instance._integer_sizes


def scale_to_integer(instance: Instance) -> ScaledInstance:
    """The {1, k} view of a normalized instance.

    Requires the small size to be a unit fraction 1/q; other ratios must go
    through the size-rounding reduction first. Big jobs then have size k = q
    and small ones size 1 (k = 1 when the instance has at most one size).
    """
    sizes = instance.distinct_sizes()
    if sizes and sizes[-1] != 1:
        raise ValueError("instance is not normalized: big size must be 1")
    if sizes and sizes[0].numerator != 1:
        raise ValueError(f"non-integer ratio: small size {sizes[0]} is not a unit fraction")
    return ScaledInstance.of(instance, sizes[0].denominator if sizes else 1)


def is_graph_balancing(instance: Instance | ScaledInstance) -> bool:
    """True when every job is eligible on at most two machines."""
    return all(len(machines) <= 2 for machines in instance.allowed)
