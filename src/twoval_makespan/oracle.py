"""Exact optimum by search, the ground truth for every ratio check.

Only meant for desk-scale instances. Sizes are taken in integer units
(`integer_sizes`), so every makespan is a true load: a*b + c*s, with b and s
the largest and smallest size, a at most the number of size-b jobs and c at
most the number of size-s jobs.

The floor. The search uses these machine sets: each machine a job may use and
each distinct 2-machine allowed set. A job is confined to a set when its
allowed set lies inside it: a job allowed on one machine is confined to that
machine and to every listed pair holding it, a job allowed on a pair to that
pair. In every schedule the machines of a set S carry the work W_S confined to
S, and one of them carries at least ceil(B_S / |S|) of its B_S big jobs. So no
makespan is below the largest of
- max(b, ceil(total / m)), snapped up to a true load;
- ceil(W_S / |S|) for each set, snapped up to a true load;
- ceil(B_S / |S|) * b for each set (pigeonhole).
One pass over the jobs gives every W_S and B_S.

The search. From the floor up, each target T asks for a schedule of makespan
at most T, by depth-first search over job -> machine choices in input order.
A set's committed work is the load placed on its machines plus the unplaced
work confined to it, which must land there too; a placement that lifts some
set's committed work above |S| * T is pruned. Placing a job on machine i
raises only the sets that hold i and do not confine the job, so the search
keeps one counter per set and updates only those. When the search at T is
exhausted, no schedule is within T: T rises to the next true load and the
search starts over. The optimum is a true load, so the first T with a
schedule is the optimum.

The witness. A pruned subtree holds no schedule within T, and the rest come in
lexicographic order of their machine choices, so the first complete schedule
at the optimum is the first optimal schedule in input order: the witness an
exhaustive search that keeps only strict improvements returns too.

The budget. Each try of a job on a machine is one node, pruned or not, and
the nodes of every target count against the one budget. The floors need no
flow and no solver code, so the oracle stays independent of what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Instance, Schedule, integer_sizes

DEFAULT_NODE_BUDGET = 10_000_000

# per allowed machine in index order: the machine, and the sets whose committed
# work placing the job there raises
Options = tuple[tuple[int, tuple[int, ...]], ...]


class BudgetExceeded(Exception):
    """Raised when the enumeration hits its node budget."""

    def __init__(self, nodes: int):
        super().__init__(f"oracle search exceeded its budget of {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class OracleResult:
    opt_makespan: Fraction
    witness: Schedule


def _true_load_at_least(target: int, sizes: Sequence[int]) -> int:
    """Smallest a*b + c*s >= target, for a target at most the total of `sizes`.

    b and s are the largest and smallest size, a is at most the number of
    size-b jobs and c at most the number of size-s jobs; a single-size
    instance uses c*s only.
    """
    small, big = min(sizes), max(sizes)
    smalls = sizes.count(small)
    bigs = len(sizes) - smalls  # 0 for a single size
    # a big jobs need c = max(0, ceil((target - a*b) / s)) small ones; a = bigs
    # needs at most all of them, since the target is at most the total
    return min(
        a * big + c * small
        for a in range(bigs + 1)
        if (c := max(0, -((a * big - target) // small))) <= smalls
    )


def _machine_sets(
    instance: Instance, sizes: Sequence[int]
) -> tuple[int, list[int], list[int], list[Options]]:
    """The confined-work floor, each machine set's size and confined work, and each job's options.

    `sizes` are the instance's integer sizes, at least one. The sets are the
    module docstring's: the machines first, then the pairs.
    """
    big = max(sizes)  # a single size's jobs all count as big for the pigeonhole floor
    # one pass over the jobs: the work and the big jobs of each allowed set of
    # at most two machines
    own_work: dict[tuple[int, ...], int] = {}
    own_bigs: dict[tuple[int, ...], int] = {}
    for machines, size in zip(instance.sorted_allowed, sizes):
        if len(machines) <= 2:
            own_work[machines] = own_work.get(machines, 0) + size
            own_bigs[machines] = own_bigs.get(machines, 0) + (size == big)
    distinct = set(instance.sorted_allowed)
    sets_of: dict[int, list[int]] = {}  # the sets holding each machine, its own first
    work: list[int] = []
    big_jobs: list[int] = []
    for machine in set().union(*distinct):
        sets_of[machine] = [len(work)]
        work.append(own_work.get((machine,), 0))
        big_jobs.append(own_bigs.get((machine,), 0))
    width = [1] * len(work)
    pair_of: dict[tuple[int, ...], int] = {}
    for pair in distinct:
        if len(pair) == 2:  # confines its own jobs and those of its two machines
            first, second = (sets_of[machine][0] for machine in pair)
            pair_of[pair] = len(work)
            for machine in pair:
                sets_of[machine].append(len(work))
            work.append(own_work[pair] + work[first] + work[second])
            big_jobs.append(own_bigs[pair] + big_jobs[first] + big_jobs[second])
            width.append(2)
    # snapping is monotone, so one snap of the largest target covers both snapped floors
    target = max(big, -(-sum(sizes) // instance.machine_count),
                 *(-(-w // d) for w, d in zip(work, width)))
    crowd = max(-(-count // d) for count, d in zip(big_jobs, width))
    floor = max(_true_load_at_least(target, sizes), crowd * big)

    # a job allowed on one machine raises no set; one allowed on a pair raises
    # all that hold the machine but the pair; a wider one all that hold it
    options_of: dict[tuple[int, ...], Options] = {}
    for machines in distinct:
        own = pair_of.get(machines)
        options_of[machines] = tuple(
            (machine, () if len(machines) == 1 else tuple(s for s in sets_of[machine] if s != own))
            for machine in machines
        )
    return floor, width, work, [options_of[machines] for machines in instance.sorted_allowed]


def brute_force_opt(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact optimum by depth-first search at rising targets, deterministic in input order.

    The first target is the confined-work floor. At each target, job idx tries
    its allowed machines in index order, each try counting one node, and a
    try that lifts some machine set's committed work above the set's size
    times the target is pruned. The first complete schedule is the witness,
    at the target as its makespan; when a target's search is exhausted, the
    target rises to the next true load and the search starts over. The nodes
    of every target count against the one budget (see the module docstring).
    The search keeps one cursor per job instead of recursing, so the job
    count is not limited by the recursion limit.
    """
    n = instance.job_count
    if n == 0:
        return OracleResult(Fraction(0), Schedule(()))
    denom, sizes = integer_sizes(instance)
    target, width, work, options = _machine_sets(instance, sizes)
    slack = [0] * len(work)  # slack[s]: the set's size times the target, less its committed work
    cursor = [0] * n  # cursor[idx]: next position in options[idx] to try
    nodes = 0
    last = n - 1
    while True:
        slack[:] = [d * target - w for d, w in zip(width, work)]
        idx = 0
        cursor[0] = 0
        while idx >= 0:
            choices = options[idx]
            size = sizes[idx]
            position = cursor[idx]
            while position < len(choices):
                sets = choices[position][1]
                position += 1
                nodes += 1
                if nodes > node_budget:
                    raise BudgetExceeded(node_budget)
                for s in sets:
                    if slack[s] < size:
                        break
                else:  # no set's committed work goes above its size times the target
                    cursor[idx] = position
                    if idx == last:
                        witness = tuple(options[j][cursor[j] - 1][0] for j in range(n))
                        return OracleResult(Fraction(target, denom), Schedule(witness))
                    for s in sets:
                        slack[s] -= size
                    idx += 1
                    cursor[idx] = 0
                    break
            else:  # job idx is exhausted: take back job idx-1 and try its next machine
                idx -= 1
                if idx >= 0:
                    size = sizes[idx]
                    for s in options[idx][cursor[idx] - 1][1]:
                        slack[s] += size
        # no schedule is within the target: the optimum is the next true load or above
        target = _true_load_at_least(target + 1, sizes)


def ratio_verdict(value: Fraction, opt: Fraction, bound: Fraction) -> tuple[Fraction, bool]:
    """Ratio of a makespan to the optimum, and whether it is within `bound` of it.

    An optimum of 0 (no jobs) gives ratio 1, and only a makespan of 0 passes.
    """
    if opt == 0:
        return Fraction(1), value == 0
    return value / opt, value <= bound * opt
