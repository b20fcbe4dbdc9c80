"""Brute-force exact optimum, the ground truth for every ratio check.

Only meant for desk-scale instances; the search is depth-first over
job -> machine choices with load-based pruning.

The pruned search stops at the first complete schedule that meets the load
floor (`load_floor`): the smallest a*b + c*s, with a and c at most the
numbers of big and small jobs, that is at least max(b, ceil(total / m)).
Every makespan is one machine's load, so it has that form and meets both
bounds: the floor is at most the optimum, and a schedule at the floor is
optimal. Complete schedules come in lexicographic order and only ones
strictly below the incumbent are kept, so the first one at the optimum is
the witness an exhaustive search returns too. The floor needs no flow and
no solver code, so the oracle stays independent of what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Instance, Schedule, integer_sizes

DEFAULT_NODE_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """Raised when the enumeration hits its node budget."""

    def __init__(self, nodes: int):
        super().__init__(f"oracle search exceeded its budget of {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class OracleResult:
    opt_makespan: Fraction
    witness: Schedule


def load_floor(sizes: Sequence[int], machine_count: int) -> int:
    """Smallest a*b + c*s >= max(b, ceil(total / m)) over the jobs' own counts.

    b and s are the largest and smallest integer size, a is at most the
    number of size-b jobs and c at most the number of size-s jobs; a
    single-size instance uses c*s only. No makespan is below it.
    """
    if not sizes:
        return 0
    small, big = min(sizes), max(sizes)
    target = max(big, -(-sum(sizes) // machine_count))
    smalls = sizes.count(small)
    bigs = len(sizes) - smalls  # 0 for a single size
    # a big jobs need c = max(0, ceil((target - a*b) / s)) small ones; a = bigs
    # needs at most all of them, since the target is at most the total
    return min(
        a * big + c * small
        for a in range(bigs + 1)
        if (c := max(0, -((a * big - target) // small))) <= smalls
    )


def brute_force_opt(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact optimum by pruned depth-first search, deterministic in input order.

    Job idx tries its allowed machines in index order, each try counting one
    node; a try whose makespan so far reaches the incumbent is pruned. The
    search keeps one cursor per job instead of recursing, so the job count is
    not limited by the recursion limit. It returns at the first complete
    schedule that meets `load_floor`, so the budget counts nodes until then or
    until the search ends; the witness is the first optimum in input order
    either way (see the module docstring).
    """
    n = instance.job_count
    if n == 0:
        return OracleResult(Fraction(0), Schedule(()))
    denom, sizes = integer_sizes(instance)
    floor = load_floor(sizes, instance.machine_count)
    allowed = [sorted(machines) for machines in instance.allowed]
    loads = [0] * instance.machine_count
    current = [0] * n
    cursor = [0] * n  # cursor[idx]: next position in allowed[idx] to try
    maxes = [0] * n   # maxes[idx]: makespan of jobs 0..idx-1 as placed
    best_value: int | None = None
    best_assign: tuple[int, ...] | None = None
    nodes = 0
    last = n - 1
    idx = 0
    while idx >= 0:
        choices = allowed[idx]
        size = sizes[idx]
        current_max = maxes[idx]
        position = cursor[idx]
        while position < len(choices):
            machine = choices[position]
            position += 1
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(node_budget)
            new_load = loads[machine] + size
            new_max = new_load if new_load > current_max else current_max
            if best_value is not None and new_max >= best_value:
                continue
            current[idx] = machine
            if idx == last:  # a complete schedule below the incumbent
                best_value = new_max
                best_assign = tuple(current)
                if best_value == floor:  # nothing is below the floor: optimal
                    return OracleResult(Fraction(best_value, denom), Schedule(best_assign))
                continue
            loads[machine] = new_load
            cursor[idx] = position
            idx += 1
            cursor[idx] = 0
            maxes[idx] = new_max
            break
        else:  # job idx is exhausted: take back job idx-1 and try its next machine
            idx -= 1
            if idx >= 0:
                loads[current[idx]] -= sizes[idx]
    assert best_value is not None and best_assign is not None
    return OracleResult(Fraction(best_value, denom), Schedule(best_assign))


def ratio_verdict(value: Fraction, opt: Fraction, bound: Fraction) -> tuple[Fraction, bool]:
    """Ratio of a makespan to the optimum, and whether it is within `bound` of it.

    An optimum of 0 (no jobs) gives ratio 1, and only a makespan of 0 passes.
    """
    if opt == 0:
        return Fraction(1), value == 0
    return value / opt, value <= bound * opt
