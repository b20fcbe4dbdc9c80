"""The package's one flow kernel: integral max-flow, fraction reading, search.

Both rounding families need the smallest load bound at which an integral
max-flow meets the demand (the total job size in flow units). A `FlowNetwork`
is a tuple of (tail, head, capacity) arcs, the first n of them source -> job j
with the job's size; `max_flow_integral` solves it, `job_fractions` reads the
job fractions off the flow and `smallest_feasible` bisects a monotone probe,
keeping the winning probe's flow. `lenstra` builds its transportation
networks on this kernel.

The {1, k} network: source -> job -> per-machine throttle node (big jobs only)
-> machine -> sink. Small jobs have unit arcs straight to machine nodes; the
throttle v_{i,b} caps the big-job flow entering machine i at k. A flow meeting
the demand thus leaves small jobs integral, big fractions multiples of 1/k and
at most one big job's worth of big fractions per machine. The sink arcs carry
the makespan estimate, in which feasibility is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

from .maxflow import Dinic
from .model import ScaledInstance

W = TypeVar("W")


@dataclass(frozen=True)
class FlowNetwork:
    node_count: int
    source: int
    sink: int
    arcs: tuple[tuple[int, int, int], ...]  # (tail, head, capacity); arc j is source -> job j
    demand: int
    # per job: ((machine, arc index), ...) for the job's outgoing arcs, pointing
    # at the throttle layer for {1, k} big jobs and at machine nodes otherwise
    job_arcs: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class FlowSolution:
    flows: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class FractionalAssignment:
    """Per-job machine fractions, each job's fractions summing to 1."""

    per_job: tuple[dict[int, Fraction], ...]

    @property
    def job_count(self) -> int:
        return len(self.per_job)

    def fraction(self, job: int, machine: int) -> Fraction:
        return self.per_job[job].get(machine, Fraction(0))

    def support(self, job: int) -> tuple[int, ...]:
        return tuple(sorted(self.per_job[job]))

    def is_integral(self, job: int) -> bool:
        return len(self.per_job[job]) == 1


def build_network(scaled: ScaledInstance, estimate: int) -> FlowNetwork:
    """Construct the layered network for a makespan estimate (sink arc capacity)."""
    if estimate < 0:
        raise ValueError("estimate must be nonnegative")
    base = scaled.base
    n = base.job_count
    m = base.machine_count
    source = 0
    job0 = 1
    throttle0 = 1 + n
    machine0 = 1 + n + m
    sink = 1 + n + 2 * m

    arcs = [(source, job0 + j, scaled.size_int(j)) for j in range(n)]
    job_arcs: list[tuple[tuple[int, int], ...]] = []
    for j in range(n):
        entries = []
        big = scaled.is_big(j)
        for i in sorted(base.jobs[j].allowed):
            if big:
                arcs.append((job0 + j, throttle0 + i, scaled.k))
            else:
                arcs.append((job0 + j, machine0 + i, 1))
            entries.append((i, len(arcs) - 1))
        job_arcs.append(tuple(entries))
    arcs.extend((throttle0 + i, machine0 + i, scaled.k) for i in range(m))
    arcs.extend((machine0 + i, sink, estimate) for i in range(m))

    return FlowNetwork(
        node_count=sink + 1,
        source=source,
        sink=sink,
        arcs=tuple(arcs),
        demand=scaled.total_size(),
        job_arcs=tuple(job_arcs),
    )


def max_flow_integral(network: FlowNetwork) -> FlowSolution:
    """Integral maximum flow over the network's arcs, deterministic per input."""
    solver = Dinic(network.node_count)
    edge_ids = [solver.add_edge(tail, head, capacity) for tail, head, capacity in network.arcs]
    value = solver.max_flow(network.source, network.sink)
    flows = tuple(solver.flow_on(eid) for eid in edge_ids)
    return FlowSolution(flows=flows, value=value)


def job_fractions(network: FlowNetwork, flow: FlowSolution) -> FractionalAssignment:
    """Each job's machine fractions: units on its outgoing arcs over its size."""
    per_job = []
    for j, entries in enumerate(network.job_arcs):
        size = network.arcs[j][2]  # the source -> job arc carries the job's size
        per_job.append(
            {machine: Fraction(flow.flows[arc], size) for machine, arc in entries if flow.flows[arc]}
        )
    return FractionalAssignment(tuple(per_job))


def smallest_feasible(lo: int, hi: int, probe: Callable[[int], W | None]) -> tuple[int, W] | None:
    """Smallest point in [lo, hi] whose probe returns a witness, and that witness.

    Feasibility must be monotone. The probe runs at hi first, then on the
    bisection midpoints; None means hi itself is infeasible.
    """
    witness = probe(hi)
    if witness is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        found = probe(mid)
        if found is None:
            lo = mid + 1
        else:
            hi, witness = mid, found
    return hi, witness


def min_feasible_T(scaled: ScaledInstance) -> tuple[int, FractionalAssignment] | None:
    """Smallest integer estimate in [max size, total size] meeting the demand.

    Returns it with the assignment extracted from the winning probe's flow,
    so the estimate is never solved twice. Returns None when no estimate works, i.e. the big jobs cannot be spread
    with at most one big job's worth per machine; every schedule of such an
    instance stacks two big jobs somewhere and the caller must fall back to
    the additive rounding.
    """

    def probe(estimate: int) -> tuple[FlowNetwork, FlowSolution] | None:
        network = build_network(scaled, estimate)
        flow = max_flow_integral(network)
        return (network, flow) if flow.value == network.demand else None

    found = smallest_feasible(scaled.max_size(), scaled.total_size(), probe)
    if found is None:
        return None
    estimate, (network, flow) = found
    return estimate, extract_assignment(network, flow, scaled)


def extract_assignment(
    network: FlowNetwork, flow: FlowSolution, scaled: ScaledInstance
) -> FractionalAssignment:
    """Read job fractions off a demand-meeting integral flow.

    Each big job's flow into a throttle node exits only toward that machine,
    so apportioning the throttle->machine arc by inflow gives the job exactly
    its own units: fraction = (units reaching the machine) / size.
    """
    if flow.value != network.demand:
        raise ValueError(f"flow value {flow.value} does not meet demand {network.demand}")
    assignment = job_fractions(network, flow)
    check_extraction_invariants(assignment, scaled)
    return assignment


def check_extraction_invariants(assignment: FractionalAssignment, scaled: ScaledInstance) -> None:
    """Verify the structural guarantees every extraction must satisfy."""
    k = scaled.k
    big_load = [Fraction(0)] * scaled.base.machine_count
    for j in range(scaled.base.job_count):
        fractions = assignment.per_job[j]
        total = sum(fractions.values(), Fraction(0))
        if total != 1:
            raise RuntimeError(f"job {j}: fractions sum to {total}, expected 1")
        if scaled.is_big(j):
            for machine, value in fractions.items():
                if value < Fraction(1, k):
                    raise RuntimeError(f"big job {j}: fraction {value} below 1/{k}")
                if (value * k).denominator != 1:
                    raise RuntimeError(f"big job {j}: fraction {value} not a multiple of 1/{k}")
                big_load[machine] += value
        else:
            if len(fractions) != 1 or next(iter(fractions.values())) != 1:
                raise RuntimeError(f"small job {j} is not integrally assigned")
    for machine, load in enumerate(big_load):
        if load > 1:
            raise RuntimeError(f"machine {machine}: big fractions sum to {load} > 1")
