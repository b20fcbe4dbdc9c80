"""Additive-error rounding via exact transportation feasibility.

The fractional relaxation for a load bound T is a transportation problem:
each job supplies its size to its allowed machines and each machine absorbs
at most T. It is solved on the package's one flow kernel (`flow`) as an
integral max-flow after clearing denominators. Feasibility is monotone in T.
With the sizes b and s scaled to integers by the lcm D of their denominators
(`model.integer_sizes`), every load is a multiple of g/D, g = gcd(D*b, D*s).
The network is `flow.flow_network` without throttles, built once in units
of 1/D, and it stores the job sizes in those units. `flow.min_feasible_flow`
searches it over true loads a*b + c*s (0 <= a, c <= n), each the smallest
true load at or above a target (`_snap_to_grid`). It starts at the
network's machine-set floor (`flow`), a lower bound on every feasible
load, snapped up to a true load, and usually wins there.

A probe that falls short reports its min cut's floor, t + ceil((demand -
v) / c) in units of 1/D (`flow`): no smaller bound is feasible. The floor is
often no true load, so the search snaps it up to one and probes that next.
The smallest feasible load is a true load at least the floor, so no probe
passes it and the first feasible probe is at it; its flow is the result. A
probed load is already a true load, so only the start and each floor are
snapped. A floor above the total size means no load is feasible. Each
probed load is above the last, so no load is solved twice, and as in
`flow` each short probe's cut has fewer machines than the last one's: at
most m + 1 flow solves.

The winning assignment holds each job's per-machine shares in the flow's
integer units, in which every job's size is its true size times D.

Canceling support cycles and rounding the remaining forest then places every
job while raising each machine load by at most one job size, at most b: a 3/2
approximation once the optimum is at least 2b. Both work on those integer
shares and walk the support graph of the fractional jobs (on two or more
machines); the cycle search numbers its nodes j for job j and n + i for
machine i, and the rounding tracks the machines it reached. Each makes one
pass over all jobs to pick out the fractional ones, which are few: at most
m - 1 once the support is a forest. Everything else runs over those
alone: the copied shares, the machine -> fractional-jobs index each cycle
search builds and the search itself, then the rounding's index, tree walk
and load-growth check. Both read each job's shares in the order they are
listed, increasing machine index (`flow.FractionalAssignment`). The
rounding places the integral jobs in
its pass over all jobs, and its check's pass over all jobs tests every
job's allowed set and each integral job's one share machine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Collection, Iterable, Sequence

from .flow import (
    FlowNetwork, FlowSolution, FractionalAssignment, flow_network, job_fractions,
    min_feasible_flow,
)
from .model import Instance, Schedule, integer_sizes, makespan


@dataclass(frozen=True)
class LenstraSolution:
    schedule: Schedule
    capacity: Fraction  # minimum feasible fractional load bound that got rounded
    forest: FractionalAssignment  # the cycle-free assignment at capacity that got rounded


def load_grid(sizes: Sequence[int]) -> range:
    """Every multiple of g/D from 0 to the total size, as numerators over D.

    The sizes are `integer_sizes`, the jobs' sizes times D, and g is their
    gcd, so every machine load any schedule can produce, times D, is in range.
    """
    # with no jobs the gcd is 0 and the range is the single load 0
    return range(0, sum(sizes) + 1, math.gcd(*sizes) or 1)


def _snap_to_grid(sizes: Sequence[int], target: int) -> int:
    """Smallest a*b + c*s >= target with 0 <= a, c <= n, for the n integer job sizes.

    b and s are the largest and smallest size, equal when there is only one;
    the target is an integer between 0 and the total size.
    """
    if not sizes:
        return 0
    small, big = min(sizes), max(sizes)
    n = len(sizes)
    # a big jobs need c = max(0, ceil((target - a*big) / small)) small ones
    first = max(0, -((n * small - target) // big))  # fewest big jobs leaving c <= n
    last = min(n, -(-target // big))  # from here on c = 0 and more big jobs only add load
    return min(
        a * big + max(0, -((a * big - target) // small)) * small for a in range(first, last + 1)
    )


def fractional_assign_plain(
    network: FlowNetwork, flow: FlowSolution
) -> FractionalAssignment | None:
    """The job shares of a probe's max-flow, or None when it falls short of the demand.

    The flow is `flow.max_flow_integral` on the network at a capacity in
    its units (1/D for the transportation network), so the shares keep
    every machine load at most the capacity.
    """
    if flow.value != network.demand:
        return None
    return job_fractions(network, flow)


def _jobs_by_machine(supports: Sequence[Collection[int]], jobs: Iterable[int]) -> dict[int, list[int]]:
    """Machine -> the given jobs on it, in the order given; supports[j] is job j's machines."""
    index: dict[int, list[int]] = {}
    for j in jobs:
        for i in supports[j]:
            index.setdefault(i, []).append(j)
    return index


def _cycle_edges(a: int, b: int, parent: dict[int, int | None], n: int) -> list[tuple[int, int]]:
    """The (job, machine) edges of the cycle from a up to the common tree ancestor, down to b."""
    above_b = [b]
    while parent[above_b[-1]] is not None:
        above_b.append(parent[above_b[-1]])
    depth = {node: k for k, node in enumerate(above_b)}
    nodes = [a]
    while nodes[-1] not in depth:
        nodes.append(parent[nodes[-1]])
    nodes.extend(reversed(above_b[: depth[nodes[-1]]]))
    return [(min(x, y), max(x, y) - n) for x, y in zip(nodes, nodes[1:] + nodes[:1])]


def _find_support_cycle(
    supports: Sequence[Collection[int]], fractional: Sequence[int]
) -> list[tuple[int, int]] | None:
    """A cycle in the bipartite support graph of fractional jobs, as (job, machine) edges.

    supports[j] is job j's machines and `fractional` the jobs with two or more
    of them, in increasing order; only those are indexed and searched, node j
    for job j and n + i for machine i. Depth-first from each unvisited
    fractional job, lowest first; a job expands to its machines as listed,
    increasing for shares (`FractionalAssignment`), a machine to its
    fractional jobs in index order. Earlier components are
    fully explored, so one parent map is the visited set too.
    """
    n = len(supports)
    jobs_by_machine = _jobs_by_machine(supports, fractional)
    parent: dict[int, int | None] = {}
    for start in fractional:
        if start in parent:
            continue
        parent[start] = None
        stack = [start]
        while stack:
            node = stack.pop()
            if node < n:
                neighbors = [n + i for i in supports[node]]
            else:
                neighbors = jobs_by_machine[node - n]
            for other in neighbors:
                if other == parent[node]:
                    continue
                if other in parent:
                    return _cycle_edges(node, other, parent, n)
                parent[other] = node
                stack.append(other)
    return None


def cancel_cycles(assignment: FractionalAssignment) -> FractionalAssignment:
    """Remove support cycles by circulating flow units around each one.

    In flow units every node of a support cycle touches exactly two cycle
    edges with opposite adjustment signs, so job totals and machine loads are
    preserved exactly; each round zeroes at least one support edge, leaving
    the fractional support acyclic. One pass over all jobs picks the
    fractional ones; only their shares are copied and searched, and a job
    drops out of the search once it is left on one machine. Integral jobs
    keep their share dicts, which no cycle touches.
    """
    shares = list(assignment.shares)
    fractional = [j for j, job_shares in enumerate(shares) if len(job_shares) >= 2]
    for j in fractional:
        shares[j] = dict(shares[j])
    while (cycle := _find_support_cycle(shares, fractional)) is not None:
        delta = min(shares[j][i] for j, i in cycle[1::2])
        for t, (j, i) in enumerate(cycle):
            shares[j][i] += delta if t % 2 == 0 else -delta
            if shares[j][i] == 0:
                del shares[j][i]
        fractional = [j for j in fractional if len(shares[j]) >= 2]
    return FractionalAssignment(tuple(shares), assignment.sizes)


def round_forest(assignment: FractionalAssignment, instance: Instance) -> Schedule:
    """Round a forest-supported assignment, each machine gaining at most one job.

    One pass over all jobs places each integral job on its one machine and
    collects the fractional jobs; the rest runs over those only, reading
    their shares as listed, in increasing machine index
    (`FractionalAssignment`). Every tree is rooted at its lowest-index
    machine node; each fractional job goes to its first child machine, so a
    machine can only receive the job directly above it.
    """
    shares = assignment.shares
    placed: list[int | None] = [None] * instance.job_count
    fractional: list[int] = []
    for j, job_shares in enumerate(shares):
        if len(job_shares) == 1:
            placed[j], = job_shares  # its one machine
        elif job_shares:
            fractional.append(j)
        else:
            raise ValueError(f"job {j} has empty support")
    jobs_by_machine = _jobs_by_machine(shares, fractional)
    seen: set[int] = set()  # the machines reached; a fractional job is reached once placed
    for root in sorted(jobs_by_machine):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            machine = queue.popleft()
            for j in jobs_by_machine[machine]:
                if placed[j] is not None:
                    continue  # the job this machine was discovered through
                children = [i for i in shares[j] if i != machine]
                placed[j] = children[0]  # the lowest: shares list machines in increasing index
                for child in children:
                    # a cycle must close through an already-visited machine
                    if child in seen:
                        raise RuntimeError("support graph is not a forest")
                    seen.add(child)
                    queue.append(child)
    if None in placed:
        raise RuntimeError("forest rounding left a job unplaced")
    schedule = Schedule(tuple(placed))  # type: ignore[arg-type]
    _check_forest_rounding(assignment, instance, schedule)
    return schedule


def _check_forest_rounding(
    assignment: FractionalAssignment, instance: Instance, schedule: Schedule
) -> None:
    """Each machine receives at most one fractional job and grows by at most its size.

    One pass over all jobs rejects, like `machine_loads`, a placement outside
    the job's allowed set, and an integral job anywhere but on the machine
    holding its whole size. Loads are then compared in the assignment's flow
    units over the fractional jobs only: an integral job adds its size both
    to its machine's load and to that machine's fractional load, so it
    cannot change any machine's growth.
    """
    sizes = assignment.sizes
    rounded: list[int] = []
    for j, (machine, allowed, job_shares) in enumerate(
        zip(schedule.assignment, instance.allowed, assignment.shares, strict=True)
    ):
        if machine not in allowed:
            raise ValueError(f"job {j} assigned to machine {machine} outside its allowed set")
        if len(job_shares) != 1:
            rounded.append(j)
        elif job_shares.get(machine) != sizes[j]:
            raise RuntimeError(f"integral job {j} moved off the machine holding its size")
    growth: dict[int, int] = {}  # machine -> rounded load minus fractional load
    received: dict[int, list[int]] = {}
    for j in rounded:
        for i, share in assignment.shares[j].items():
            growth[i] = growth.get(i, 0) - share
        machine = schedule.assignment[j]
        growth[machine] = growth.get(machine, 0) + sizes[j]
        received.setdefault(machine, []).append(j)
    for machine, jobs in received.items():
        if len(jobs) > 1:
            raise RuntimeError(f"machine {machine} received {len(jobs)} rounded jobs")
        if growth[machine] > sizes[jobs[0]]:
            raise RuntimeError(
                f"machine {machine} load grew by more than one job size during rounding"
            )


def min_feasible_fractional(instance: Instance) -> tuple[Fraction, FractionalAssignment]:
    """Smallest feasible load a*b + c*s (0 <= a, c <= n), plus the flow's shares there.

    Feasibility is monotone in the load, so the smallest feasible true load
    is the smallest feasible point of the full (n+1)^2 grid. The search
    starts at the network's machine-set floor snapped up to a true load,
    at most that smallest load, and probes each short probe's floor snapped
    up to a true load next (module docstring); the winning probe's flow is
    the one at it.
    """
    denom, sizes = integer_sizes(instance)
    load_grid(sizes)  # result unused: perfbench/spans.py EXPECTED requires its span
    network = flow_network(instance.machine_count, instance.allowed, sizes)
    snap = partial(_snap_to_grid, sizes)
    found = min_feasible_flow(network, snap(network.floor), snap)
    if found is None:
        raise RuntimeError("transportation problem infeasible at the full-load bound")
    load, flow = found
    return Fraction(load, denom), fractional_assign_plain(network, flow)


def lenstra_solve(instance: Instance) -> LenstraSolution:
    """Full pipeline: grid search, cycle canceling, forest rounding.

    The result's makespan is at most capacity + b, which the function checks
    on every run.
    """
    capacity, assignment = min_feasible_fractional(instance)
    canceled = cancel_cycles(assignment)
    schedule = round_forest(canceled, instance)
    sizes = instance.distinct_sizes()
    big = sizes[-1] if sizes else Fraction(0)
    if makespan(instance, schedule) > capacity + big:
        raise RuntimeError("forest rounding exceeded the additive bound")
    return LenstraSolution(schedule=schedule, capacity=capacity, forest=canceled)
