"""Additive-error rounding via exact transportation feasibility.

The fractional relaxation for a load bound T is a transportation problem:
each job supplies its size to its allowed machines and each machine absorbs
at most T. It is solved on the package's one flow kernel (`flow`) as an
integral max-flow after clearing denominators. Feasibility is monotone in T.
Scaling the sizes b and s to integers by the lcm D of their denominators,
every machine load any schedule can produce is a multiple of g/D with
g = gcd(D*b, D*s), so `flow.smallest_feasible` binary-searches those
multiples up to the total size for the smallest feasible one, T_g, without
building any list of candidates. The optimum is such a multiple, so T_g is
no larger than the integral optimum. T_g is then snapped up to the smallest
true load a*b + c*s >= T_g with 0 <= a, c <= n, which is the smallest
feasible point of that (n+1)^2 grid, and re-solved there when the snap moved
it. That takes at most ceil(log2(total/g + 1)) + 2 flow solves and O(n)
extra integer work. Canceling support cycles and rounding the remaining
forest then lands every job integrally while raising each machine load by at
most one job size, i.e. at most b. When the optimum is at least 2b this is a
3/2 approximation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .flow import (
    FlowNetwork,
    FractionalAssignment,
    job_fractions,
    max_flow_integral,
    smallest_feasible,
)
from .model import Instance, Schedule, machine_loads, makespan, require_valid


@dataclass(frozen=True)
class LenstraSolution:
    schedule: Schedule
    capacity: Fraction  # minimum feasible fractional load bound that got rounded
    forest: FractionalAssignment  # the cycle-free assignment at capacity that got rounded


def _size_units(instance: Instance) -> tuple[int, tuple[int, ...]]:
    """The lcm D of the size denominators and the distinct sizes times D, ascending."""
    sizes = instance.distinct_sizes()
    denom = math.lcm(*(size.denominator for size in sizes))
    return denom, tuple(int(size * denom) for size in sizes)


def load_grid(instance: Instance) -> range:
    """Every multiple of g/D from 0 to the total size, as numerators over D.

    D clears the size denominators and g = gcd of the scaled sizes, so every
    machine load any schedule can produce, times D, is in the range.
    """
    denom, units = _size_units(instance)
    total = int(sum(job.size for job in instance.jobs) * denom)
    return range(0, total + 1, math.gcd(*units) or 1)  # an empty instance has the single load 0


def _snap_to_grid(instance: Instance, target: int) -> int:
    """Smallest a*b + c*s >= target / D with 0 <= a, c <= n, times D.

    The target is a numerator over D between 0 and the total size.
    """
    _, units = _size_units(instance)
    if len(units) < 2:
        return target  # multiples of the one size up to the total are c*s with c <= n
    small, big = units
    n = instance.job_count
    # a big jobs need c = max(0, ceil((target - a*big) / small)) small ones
    first = max(0, -((n * small - target) // big))  # fewest big jobs leaving c <= n
    last = min(n, -(-target // big))  # from here on c = 0 and more big jobs only add load
    return min(
        a * big + max(0, -((a * big - target) // small)) * small for a in range(first, last + 1)
    )


def transportation_network(instance: Instance, capacity: Fraction) -> FlowNetwork:
    """Source -> job (its size) -> allowed machines (its size) -> sink (capacity).

    All capacities are in units of 1/D for the lcm D of the capacity's and the
    sizes' denominators; no big-job throttling, machines may hold any mix.
    """
    n = instance.job_count
    m = instance.machine_count
    denom = math.lcm(capacity.denominator, *(job.size.denominator for job in instance.jobs))
    supplies = [int(job.size * denom) for job in instance.jobs]
    cap_units = int(capacity * denom)

    source, job0, machine0, sink = 0, 1, 1 + n, 1 + n + m
    arcs = [(source, job0 + j, supplies[j]) for j in range(n)]
    job_arcs = []
    for j in range(n):
        entries = []
        for i in sorted(instance.jobs[j].allowed):
            entries.append((i, len(arcs)))
            arcs.append((job0 + j, machine0 + i, supplies[j]))
        job_arcs.append(tuple(entries))
    arcs.extend((machine0 + i, sink, cap_units) for i in range(m))
    return FlowNetwork(sink + 1, source, sink, tuple(arcs), sum(supplies), tuple(job_arcs))


def fractional_assign_plain(instance: Instance, capacity: Fraction) -> FractionalAssignment | None:
    """Fractional assignment with every machine load <= capacity, or None.

    Solved as an exact integral flow on the transportation network.
    """
    if capacity < 0:
        return None
    network = transportation_network(instance, capacity)
    flow = max_flow_integral(network)
    if flow.value != network.demand:
        return None
    return job_fractions(network, flow)


def _weight_maps(assignment: FractionalAssignment, instance: Instance) -> list[dict[int, Fraction]]:
    return [
        {machine: frac * instance.jobs[j].size for machine, frac in assignment.per_job[j].items()}
        for j in range(instance.job_count)
    ]


def _find_support_cycle(weights: list[dict[int, Fraction]]) -> list[tuple[int, int]] | None:
    """A cycle in the bipartite support graph of fractional jobs, as (job, machine) edges."""
    fractional = [j for j, w in enumerate(weights) if len(w) >= 2]
    machine_adj: dict[int, list[int]] = {}
    for j in fractional:
        for i in weights[j]:
            machine_adj.setdefault(i, []).append(j)

    visited: set[tuple[str, int]] = set()
    for start_job in fractional:
        start = ("j", start_job)
        if start in visited:
            continue
        parent: dict[tuple[str, int], tuple[str, int] | None] = {start: None}
        stack = [start]
        visited.add(start)
        while stack:
            node = stack.pop()
            kind, idx = node
            neighbors = (
                [("m", i) for i in sorted(weights[idx])]
                if kind == "j"
                else [("j", j) for j in machine_adj.get(idx, ())]
            )
            for other in neighbors:
                if other == parent[node]:
                    continue
                if other in visited:
                    # trace both nodes up to their common ancestor
                    path_a = _path_to_root(node, parent)
                    path_b = _path_to_root(other, parent)
                    common = None
                    in_b = set(path_b)
                    for candidate in path_a:
                        if candidate in in_b:
                            common = candidate
                            break
                    assert common is not None
                    cycle_nodes = (
                        path_a[: path_a.index(common) + 1]
                        + list(reversed(path_b[: path_b.index(common)]))
                    )
                    return _nodes_to_edges(cycle_nodes)
                visited.add(other)
                parent[other] = node
                stack.append(other)
    return None


def _path_to_root(node, parent):
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _nodes_to_edges(cycle_nodes: list[tuple[str, int]]) -> list[tuple[int, int]]:
    edges = []
    count = len(cycle_nodes)
    for t in range(count):
        a = cycle_nodes[t]
        b = cycle_nodes[(t + 1) % count]
        job = a[1] if a[0] == "j" else b[1]
        machine = a[1] if a[0] == "m" else b[1]
        edges.append((job, machine))
    return edges


def cancel_cycles(assignment: FractionalAssignment, instance: Instance) -> FractionalAssignment:
    """Remove support cycles by circulating weight around each one.

    In weight units every node of a support cycle touches exactly two cycle
    edges with opposite adjustment signs, so job totals and machine loads are
    preserved exactly; each round zeroes at least one support edge, leaving
    the fractional support acyclic.
    """
    weights = _weight_maps(assignment, instance)
    while True:
        cycle = _find_support_cycle(weights)
        if cycle is None:
            break
        delta = min(weights[j][i] for t, (j, i) in enumerate(cycle) if t % 2 == 1)
        for t, (j, i) in enumerate(cycle):
            if t % 2 == 0:
                weights[j][i] += delta
            else:
                weights[j][i] -= delta
                if weights[j][i] == 0:
                    del weights[j][i]
    per_job = tuple(
        {machine: weight / instance.jobs[j].size for machine, weight in weights[j].items()}
        for j in range(instance.job_count)
    )
    return FractionalAssignment(per_job)


def support_is_forest(assignment: FractionalAssignment) -> bool:
    """True when the bipartite support graph of fractional jobs is acyclic."""
    weights = [dict(pj) for pj in assignment.per_job]
    return _find_support_cycle(weights) is None


def round_forest(assignment: FractionalAssignment, instance: Instance) -> Schedule:
    """Round a forest-supported assignment, each machine gaining at most one job.

    Every tree is rooted at its lowest-index machine node; each fractional job
    goes to one of its child machines, so a machine can only receive the job
    directly above it. Jobs with a single support machine go there directly.
    """
    n = instance.job_count
    placed: list[int | None] = [None] * n
    fractional = []
    for j in range(n):
        support = assignment.support(j)
        if not support:
            raise ValueError(f"job {j} has empty support")
        if len(support) == 1:
            placed[j] = support[0]
        else:
            fractional.append(j)

    machine_adj: dict[int, list[int]] = {}
    for j in fractional:
        for i in assignment.support(j):
            machine_adj.setdefault(i, []).append(j)

    seen_jobs: set[int] = set()
    seen_machines: set[int] = set()
    for root in sorted(machine_adj):
        if root in seen_machines:
            continue
        seen_machines.add(root)
        queue = deque([root])
        while queue:
            machine = queue.popleft()
            for j in machine_adj[machine]:
                if j in seen_jobs:
                    continue  # the job this machine was discovered through
                seen_jobs.add(j)
                children = [i for i in assignment.support(j) if i != machine]
                placed[j] = min(children)
                for child in children:
                    # a cycle must close through an already-visited machine
                    if child in seen_machines:
                        raise RuntimeError("support graph is not a forest")
                    seen_machines.add(child)
                    queue.append(child)

    if any(p is None for p in placed):
        raise RuntimeError("forest rounding left a job unplaced")
    schedule = Schedule(tuple(placed))  # type: ignore[arg-type]
    _check_forest_rounding(assignment, instance, schedule)
    return schedule


def _check_forest_rounding(
    assignment: FractionalAssignment, instance: Instance, schedule: Schedule
) -> None:
    frac_loads = [Fraction(0)] * instance.machine_count
    for j in range(instance.job_count):
        for machine, frac in assignment.per_job[j].items():
            frac_loads[machine] += frac * instance.jobs[j].size
    received: dict[int, list[int]] = {}
    for j, machine in enumerate(schedule.assignment):
        if not assignment.is_integral(j):
            received.setdefault(machine, []).append(j)
    loads = machine_loads(instance, schedule)
    for machine, jobs in received.items():
        if len(jobs) > 1:
            raise RuntimeError(f"machine {machine} received {len(jobs)} rounded jobs")
        if loads[machine] > frac_loads[machine] + instance.jobs[jobs[0]].size:
            raise RuntimeError(
                f"machine {machine} load grew by more than one job size during rounding"
            )


def min_feasible_fractional(instance: Instance) -> tuple[Fraction, FractionalAssignment]:
    """Smallest feasible load a*b + c*s (0 <= a, c <= n), plus the flow there.

    `smallest_feasible` searches `load_grid` for the smallest feasible
    multiple T_g of g/D and keeps the assignment found there; T_g is snapped
    up to the smallest a*b + c*s >= T_g and, when that moved it, solved once
    more at the snapped bound. Every such load is a multiple of g/D and
    feasibility is monotone, so the snapped bound is the smallest feasible
    point of the full (n+1)^2 grid and the returned assignment is the flow at
    that capacity. At most ceil(log2(total/g + 1)) + 2 flow solves.
    """
    denom, _ = _size_units(instance)
    grid = load_grid(instance)
    found = smallest_feasible(
        0, len(grid) - 1, lambda k: fractional_assign_plain(instance, Fraction(grid[k], denom))
    )
    if found is None:
        raise RuntimeError("transportation problem infeasible at the full-load bound")
    index, assignment = found
    bound = _snap_to_grid(instance, grid[index])
    if bound != grid[index]:
        assignment = fractional_assign_plain(instance, Fraction(bound, denom))
        if assignment is None:
            raise RuntimeError("transportation problem infeasible above a feasible bound")
    return Fraction(bound, denom), assignment


def lenstra_solve(instance: Instance) -> LenstraSolution:
    """Full pipeline: grid search, cycle canceling, forest rounding.

    The result's makespan is at most capacity + b, which the function checks
    on every run.
    """
    require_valid(instance)
    capacity, assignment = min_feasible_fractional(instance)
    canceled = cancel_cycles(assignment, instance)
    schedule = round_forest(canceled, instance)
    sizes = instance.distinct_sizes()
    big = sizes[-1] if sizes else Fraction(0)
    if makespan(instance, schedule) > capacity + big:
        raise RuntimeError("forest rounding exceeded the additive bound")
    return LenstraSolution(schedule=schedule, capacity=capacity, forest=canceled)
