"""Exact output checks for the solve benchmark.

The checker never calls the package under test: it recomputes loads and
bounds from the generated `Spec` with its own `Fraction` arithmetic, so a
defect in the package cannot vouch for itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import Spec


class CheckError(Exception):
    """An output the checker proved wrong."""


def makespan_of(spec: Spec, assignment: tuple[int, ...]) -> Fraction:
    """Exact makespan of an assignment; rejects ineligible or missing placements."""
    if len(assignment) != spec.jobs:
        raise CheckError(f"schedule places {len(assignment)} of {spec.jobs} jobs")
    loads = [Fraction(0)] * spec.machines
    for job, machine in enumerate(assignment):
        if machine not in spec.allowed[job]:
            raise CheckError(f"job {job} placed on machine {machine} outside its allowed set")
        loads[machine] += spec.sizes[job]
    return max(loads)


def check_schedule(spec: Spec, assignment: tuple[int, ...], reported: Fraction) -> Fraction:
    """Eligibility plus an exact match of the reported makespan; returns the makespan."""
    value = makespan_of(spec, assignment)
    if reported != value:
        raise CheckError(f"reported makespan {reported} differs from recomputed {value}")
    if value < spec.lower_bound():
        raise CheckError(f"makespan {value} is below the lower bound {spec.lower_bound()}")
    return value


def check_unitk(spec: Spec, assignment: tuple[int, ...], estimate: int) -> None:
    """{1, k} rounding: at most one big job per machine, load <= estimate + k - 1.

    Sizes are generated as {1, k} integers, so spec units are the scaled units.
    """
    if spec.small_size != 1:
        raise ValueError("unitk checks need sizes {1, k}")
    k = spec.big_size
    loads = [0] * spec.machines
    bigs = [0] * spec.machines
    for job, machine in enumerate(assignment):
        loads[machine] += spec.sizes[job]
        bigs[machine] += spec.sizes[job] == k
    if max(bigs) > 1:
        raise CheckError(f"a machine received {max(bigs)} big jobs")
    if max(loads) > estimate + k - 1:
        raise CheckError(f"makespan {max(loads)} exceeds estimate {estimate} + k - 1")


def check_branches(makespan: Fraction, chosen: str, branches: dict[str, Fraction]) -> None:
    """The reported winner is the smallest branch makespan."""
    if branches.get(chosen) != makespan or makespan != min(branches.values()):
        raise CheckError(f"chosen branch {chosen} is not the minimum of {branches}")


def certified_bound(alpha: Fraction, gb: bool) -> Fraction:
    """The constructive ratio the solvers certify below OPT = 2 * big size.

    With f1 = ceil(a)/a and f2 = floor(a)/a: general eligibility gives
    min(1 + f1 - 1/a, 1/f2 + 1 - 1/floor(a)); graph balancing gives
    min(1 + f1/2, 1/f2 + 1/2) for a >= 2 and 413/250 for a in (1, 2).
    """
    if alpha <= 1:
        raise ValueError("certified bound needs alpha > 1")
    f1 = math.ceil(alpha) / alpha
    f2 = math.floor(alpha) / alpha
    if not gb:
        return min(1 + f1 - 1 / alpha, 1 / f2 + 1 - Fraction(1, math.floor(alpha)))
    if alpha < 2:
        return Fraction(413, 250)
    return min(1 + f1 / 2, 1 / f2 + Fraction(1, 2))


def check_certificate(
    spec: Spec, makespan: Fraction, opt: Fraction, witness: tuple[int, ...]
) -> Fraction:
    """Oracle witness is a valid schedule of value opt, and makespan / opt meets the bound.

    The bound is 3/2 once opt reaches twice the big size, else the certified
    bound for the instance's alpha. Returns the ratio.
    """
    if makespan_of(spec, witness) != opt:
        raise CheckError(f"oracle witness does not attain its reported optimum {opt}")
    if opt < spec.lower_bound() or makespan < opt:
        raise CheckError(f"optimum {opt} is inconsistent with makespan {makespan}")
    ratio = makespan / opt
    bound = Fraction(3, 2) if opt >= 2 * spec.big_size else certified_bound(spec.alpha, spec.gb)
    if ratio > bound:
        raise CheckError(f"ratio {ratio} exceeds the certified bound {bound}")
    return ratio
