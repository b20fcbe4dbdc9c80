"""Solvers for instances where every job is eligible on at most two machines.

With 2-machine eligibility a big job's flow extraction supports at most two
machines, so either one machine holds more than half of it or two machines
hold exactly half each. Jobs of the first kind go to their majority machine;
the half/half jobs form a multigraph on machines with maximum degree 2 (a
third half would overload a machine's big-fraction budget), whose components
are paths and cycles and therefore admit an orientation giving every machine
at most one of them. The rounding increases any machine load by at most k/2,
a 3/2 approximation for {1, k} sizes.

For arbitrary two-size weights, alpha >= 2 races the reductions of
`twovalued.reductions(alpha)` against the additive rounding; alpha in (1, 2)
races a one-job-per-machine matching, the small-down reduction to k = 2, a
forest rounding and the additive rounding, where the forest branch rounds the
additive branch's cycle-free fractional solution rather than searching for its
own. Either way `twovalued.pick_best` keeps the
best branch, within 1.652 of the optimum. Only the two `gb_solve_*` solvers,
whose guarantees need it, reject a job allowing more than 2 machines.
"""

from __future__ import annotations

from typing import Sequence

from .bounds import guarantee_report
from .flow import FractionalAssignment
from .lenstra import lenstra_solve, round_forest
from .matching import maximum_bipartite_matching
from .model import Instance, ScaledInstance, Schedule, is_graph_balancing, size_ratio
from .twovalued import ADDITIVE, SMALL_DOWN, SolveResult, pick_best, reduction_branches, reductions
from .unitk import UnitKSolution, round_flow

MATCHING = "matching"
FOREST = "forest"


def _require_gb(instance: Instance | ScaledInstance) -> None:
    if not is_graph_balancing(instance):
        raise ValueError("not a graph-balancing instance: some job allows more than 2 machines")


def orient_components(edges: Sequence[tuple[int, int, int]]) -> dict[int, int]:
    """Choose a head machine per edge so every machine heads at most one edge.

    Each edge (job, machine u, machine v) is a big job split exactly half/half
    between its two machines; the result maps each job to its head machine.
    Components must be paths or cycles (max degree 2). Paths are directed away
    from their lowest-index endpoint; cycles are walked from their lowest
    vertex starting with the lowest edge id, giving a bijection of edges onto
    vertices. Deterministic for identical inputs.
    """
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for edge_id, (_, u, v) in enumerate(edges):
        adjacency.setdefault(u, []).append((edge_id, v))
        adjacency.setdefault(v, []).append((edge_id, u))
    for vertex, incident in adjacency.items():
        if len(incident) > 2:
            raise ValueError(f"machine {vertex} has {len(incident)} half-assigned big jobs")

    heads: dict[int, int] = {}  # edge id -> head vertex, for the edges walked so far
    # paths from their endpoints (degree 1) in index order first; what is left are cycles
    for start in sorted(adjacency, key=lambda vertex: (len(adjacency[vertex]) != 1, vertex)):
        current = start
        while options := [(e, other) for e, other in adjacency[current] if e not in heads]:
            edge_id, current = min(options)
            heads[edge_id] = current

    _check_orientation(edges, heads)
    return {edges[edge_id][0]: head for edge_id, head in heads.items()}


def _check_orientation(edges: Sequence[tuple[int, int, int]], heads: dict[int, int]) -> None:
    if len(heads) != len(edges):
        raise RuntimeError("orientation left an edge without a head")
    seen: set[int] = set()
    for head in heads.values():
        if head in seen:
            raise RuntimeError(f"machine {head} heads two half-assigned big jobs")
        seen.add(head)


def gb_solve_unit_k(scaled: ScaledInstance) -> UnitKSolution | None:
    """{1, k} rounding specialized to 2-machine eligibility; None means fall back."""
    _require_gb(scaled)
    return round_flow(scaled, _majority_and_orient, scaled.k)


def _majority_and_orient(assignment: FractionalAssignment, scaled: ScaledInstance) -> dict[int, int]:
    """Big jobs go to their majority machine; half/half jobs are oriented."""
    placed: dict[int, int] = {}
    half_edges: list[tuple[int, int, int]] = []
    for j in scaled.big_jobs():
        support = assignment.support(j)
        if len(support) > 2:
            raise RuntimeError(f"big job {j} supported on {len(support)} machines")
        if len(support) == 1:
            placed[j] = support[0]
            continue
        u, v = support
        twice_u, size = 2 * assignment.shares[j][u], assignment.sizes[j]  # u's fraction vs 1/2
        if twice_u > size:
            placed[j] = u
        elif twice_u < size:
            placed[j] = v
        else:
            half_edges.append((j, u, v))
    placed.update(orient_components(half_edges))
    return placed


def gb_perfect_matching_opt1(instance: Instance) -> Schedule | None:
    """Schedule with one job per machine if one exists, via maximum matching.

    Intended for alpha < 2, a small size above half the big size b: any two
    jobs together then exceed b, so a makespan-b schedule is exactly a
    perfect matching of jobs into machines. With more jobs than machines
    there is none, and no matching runs.
    """
    if instance.job_count > instance.machine_count:
        return None
    matched = maximum_bipartite_matching(instance.sorted_allowed)
    if any(machine is None for machine in matched):
        return None
    return Schedule(tuple(matched))  # type: ignore[arg-type]


def gb_forest_round(instance: Instance, assignment: FractionalAssignment) -> Schedule:
    """Bottom-up forest rounding of a cycle-free fractional assignment.

    Each tree's pending fractional job is absorbed by a machine below it, so
    every machine gains at most one job; rejects cyclic support.
    """
    return round_forest(assignment, instance)


def gb_solve_two_valued(instance: Instance) -> SolveResult:
    """Race the branches appropriate for alpha and keep the best schedule."""
    _require_gb(instance)
    alpha = size_ratio(instance)
    additive = lenstra_solve(instance)
    if not 1 < alpha < 2:
        branches = reduction_branches(instance, reductions(alpha), gb_solve_unit_k)
    else:
        matched = gb_perfect_matching_opt1(instance)
        branches = {} if matched is None else {MATCHING: matched}
        branches.update(reduction_branches(instance, {SMALL_DOWN: 2}, gb_solve_unit_k))
        # the forest branch rounds the additive branch's own cycle-free assignment
        branches[FOREST] = gb_forest_round(instance, additive.forest)
    branches[ADDITIVE] = additive.schedule
    return pick_best(instance, guarantee_report(alpha, graph_balancing=True), branches)
