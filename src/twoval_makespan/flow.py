"""The package's one flow kernel: integral max-flow, share reading, search.

Both rounding families need the smallest load bound at which an integral
max-flow meets the demand (the total job size in flow units). One builder,
`flow_network`, lays out both networks: source -> job j -> each allowed
machine, every arc at the job's size, and at k > 1 the {1, k} network sends
its big jobs through per-machine throttle nodes (below); at k = 1 it has
none, nor does `lenstra`'s transportation network. Each job's arcs follow
its machines in the order the caller lists them, which is increasing index
(`Instance.sorted_allowed`) for every solver; the builder imposes no order
of its own. The builder writes each arc straight into Dinic's
residual arrays (`maxflow`), the first n arcs source -> job j and the last
m machine -> sink at capacity 0, and a `FlowNetwork` holds those arrays
with the job sizes; they are the network's only layout. Job j's node 1 + j
lists edge 2j + 1 (back to the source) and then its own arcs' edges, in
arc order, so `adj[1 + j][1:]` walks job j's arcs. A head names its
machine as (head - machine0) % m, with machine0 the first machine node: a
machine node is machine0 + i and a throttle node machine0 - m + i, and a
throttle's own arc, to its machine, is the last edge it lists. A probe
never writes the arrays: `max_flow_integral` copies `cap`, sets the m sink
arcs to the probed bound, pushes Dinic's first phases itself (below) and
lets Dinic run the rest on the copy. The arc list is read back off the
arrays only on demand (`FlowNetwork.arcs`, without the sink arcs), for
tests and tracing. `job_fractions` reads each job's per-machine shares, in
the same units, off the flow, and `min_feasible_flow`, the one search,
probes up from a lower bound, each time at the last short probe's floor
(below), and returns the first feasible probe's bound and flow. Both
searches start at the network's machine-set floor, where the smallest
feasible bound usually sits, so a search usually takes one max-flow.

Any machine set S floors every bound: the jobs whose allowed sets lie
inside S hold W_S flow units, all of which cross S's |S| sink arcs, so no
bound below ceil(W_S / |S|) meets the demand. The throttles only cap flow
further, so this holds in both networks. The builder, in its one pass over
the jobs, takes the largest such floor over each single machine, each
2-machine allowed set {u, v} (the jobs allowing u alone, v alone or exactly
{u, v}) and all machines, whose floor is ceil(total / m), and stores it as
`FlowNetwork.floor`. On graph balancing, where no job allows more than two
machines, a single machine or a pair is often the densest set. The floor
is at most the smallest feasible bound, so the first feasible probe, and
with it the flow a search keeps, is the same from any lower start.

A probe that falls short also bounds every later one. After the max-flow,
Dinic's labels mark the source side of a minimum cut (`maxflow`); say c
machine nodes lie on it. Its capacity at bound t is F + c * t, where F is
the capacity of the other arcs leaving it, and it equals the flow value v.
At any bound t' the same cut caps the flow at F + c * t', so no bound below
floor = t + ceil((demand - v) / c) meets the demand, and none does when
c = 0. `FlowSolution.floor` carries it, read from the m machine labels
alone, and the search probes there next, or at the smallest bound of its
kind at or above it (the additive search's true loads, `lenstra`). A
floor rules out only infeasible bounds, so the first feasible probe is
the smallest feasible bound of that kind, and its flow depends only on
the arc list. A floor above the demand ends the search: no sink arc binds
at a bound of the demand, so no larger bound is feasible. This is a Newton
(Dinkelbach) step on the parametric min-cut function (Gallo, Grigoriadis
and Tarjan 1989), and it ends quickly: if the probe at a bound t' at or
above the floor falls short too, its cut has c' < c machines, since that
cut's capacity is at least v at t (the min cut there) and below the demand
at t', so c' * (t' - t) < demand - v <= c * (t' - t). Each short probe thus
drops the cut's machine count, from at most m, and c = 0 ends the search:
at most m + 1 max-flows per search.

On a fresh network Dinic's phases with augmenting paths of at most 5 arcs
are first-fit passes. Call a job direct when its arcs go straight to
machine nodes: every job of the transportation network, the size-1 jobs of
the {1, k} one.

Paths of 3 arcs. At a bound t > 0, with a direct job that has an arc, the
first breadth-first search labels the jobs 1, their machines and the big
jobs' throttles 2 and the sink 3. A throttle's arc then leads to a machine
at level 2, which is no level edge, or to one at level 3, which is left
unexpanded, so big jobs get no flow in that phase. The walk (`maxflow`)
takes the jobs in order and each job's machines in arc order, pushing the
smaller of the job's remaining size and the machine's remaining sink
capacity; a push that fills a machine's sink arc makes the machine a dead
end, and the walk moves on to the job's next machine.

Paths of 4 arcs. Let H be the machines that the direct jobs left short
allow; each is full, or the job would have taken its room. The next search
labels the big jobs and the short direct jobs 1, the throttles and H 2,
and the machines outside H reached through a throttle, with the direct
jobs placed on H, 3. H's sink arcs are full, so the sink is at level 4
exactly when such a level-3 machine has room, and every path of 4 arcs is
big job -> throttle i -> machine i outside H -> sink. The walk takes these
paths in job order and each job's machines in arc order, pushing the
smallest of the job's remaining size, the throttle's remaining k and the
machine's room; its branches under the short direct jobs are dead ends
that touch none of those paths' arcs. When the direct jobs push nothing,
either t = 0 and no machine has room, or no direct job with an arc has any
size; then H is empty and these paths are Dinic's first phase.

Paths of 5 arcs. The big jobs' pass leaves each machine of a short big job
full or its throttle full, and H is still full. The next search labels
the short jobs 1, H and the short big jobs' throttles 2, and the direct
jobs placed on H 3, beside throttles, big jobs and full machines. From
these others it reaches only jobs and throttles at level 4, so the sink is
at level 5 exactly when a direct job placed on H allows a machine with
room, and every path of 5 arcs is short direct job s -> machine h in
H -> direct job p placed on h -> machine j with room -> sink: p moves on to
j, and s takes what p leaves on h. The walk takes the short direct jobs in
job order, each one's machines in arc order, on each the jobs placed there
in job order and each such job's machines in arc order; a machine or a job
it finds a dead end stays one for the phase.

`_first_phase` pushes these blocking flows directly, the last in
`_move_placed_jobs`. The big jobs' pass needs no test for a machine in H,
which is full. The moving pass needs none for a machine's level, since a
machine with room is at level 4, nor for whether a placed job is short,
since a short job has only full machines. Dinic starts at its next
phase on the same residual capacities, so every flow, label and floor is
the one a cold Dinic finds. A pass that pushes nothing leaves the residual
capacities as they were: Dinic's next phase then has longer paths, and it
runs that phase itself. The transportation network has no big jobs and no
paths of 4 arcs, so there the moving pass is Dinic's second phase.

The {1, k} network: source -> job -> per-machine throttle node (big jobs
only, and only for k > 1) -> machine -> sink. Small jobs have unit arcs
straight to machine nodes; the throttle v_{i,b} caps the big-job flow
entering machine i at k. A flow meeting the demand thus leaves each small
job's one unit on one machine, each big job's k units in whole units on its
machines and at most k big units per machine. The probed bound is the
makespan estimate, in which feasibility is monotone; whether any estimate
works is decided by a matching of the big jobs alone, without a max-flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

from .matching import maximum_bipartite_matching
from .maxflow import Dinic
from .model import ScaledInstance


@dataclass(frozen=True)
class FlowNetwork:
    """Every arc, sink arcs at 0, in Dinic's arrays, and a floor under every feasible bound.

    Node 0 is the source, the last, len(adj) - 1, the sink; each probe
    copies `cap`. Each job's arcs follow the machines it was given, in that
    order, and throttle nodes exist only for k > 1. The floor is the
    densest machine set's ceil(W_S / |S|) (module docstring).
    """

    machines: int  # machine i is node sink - machines + i; the last m arcs are machine i -> sink
    demand: int
    sizes: tuple[int, ...]  # per job, in flow units: its source -> job capacity
    to: list[int]  # per edge, its head: a throttle node for big jobs' arcs at k > 1
    cap: list[int]  # per edge, its capacity; arc i's is cap[2i]
    # per node, its edge ids in arc order; job j's are [2j + 1, its arcs' edges]
    adj: list[list[int]]
    floor: int  # in flow units: no bound below it meets the demand

    @property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """(tail, head, capacity) of every arc but machine -> sink; arc j is source -> job j."""
        to, cap = self.to, self.cap
        end = len(to) - 2 * self.machines  # arc i is (to[2i + 1], to[2i], cap[2i])
        return tuple(zip(to[1:end:2], to[0:end:2], cap[0:end:2]))


@dataclass(frozen=True)
class FlowSolution:
    flows: tuple[int, ...]
    value: int
    # set when the flow falls short of the demand: no bound below it meets the
    # demand, and None means no bound does (see the module docstring)
    floor: int | None = None


@dataclass(frozen=True)
class FractionalAssignment:
    """Per-job machine shares in integer flow units, nonzero shares only.

    Job j's shares sum to sizes[j], its source -> job arc capacity, so job j
    runs the fraction shares[j][i] / sizes[j] of itself on machine i.
    """

    shares: tuple[dict[int, int], ...]
    sizes: tuple[int, ...]

    def support(self, job: int) -> tuple[int, ...]:
        return tuple(sorted(self.shares[job]))


def flow_network(
    machine_count: int,
    allowed: Sequence[Sequence[int]],
    sizes: Sequence[int],
    k: int = 1,
) -> FlowNetwork:
    """Source -> job j -> each machine of allowed[j] at sizes[j], then each machine -> sink at 0.

    allowed[j] lists job j's machines in the order its arcs take; the
    builder imposes no order of its own, and the floor tallies each
    2-machine row as listed, so rows in increasing index count every pair
    once. For k > 1, node 1 + n + i is
    machine i's throttle: the jobs of size k enter it instead of machine i,
    and it passes at most k on; at k = 1 there are no throttle nodes or
    arcs. The arcs go straight into Dinic's residual arrays in arc order,
    `arcs` then the sink arcs: edge 2i is arc i and edge 2i + 1 its reverse,
    and each node lists its edges in arc order.
    """
    n, m = len(sizes), machine_count
    throttled = k > 1
    machine0 = 1 + n + m if throttled else 1 + n
    big0 = machine0 - m if throttled else machine0  # where size-k jobs enter
    sink = machine0 + m
    # arc j is source -> job j: edge 2j heads to node 1 + j, edge 2j + 1 back to the source
    to = [0] * (2 * n)
    to[::2] = range(1, n + 1)
    cap = [0] * (2 * n)
    cap[::2] = sizes
    adj = [list(range(0, 2 * n, 2))]
    adj += [[edge] for edge in range(1, 2 * n, 2)]
    adj += [[] for _ in range(sink - n)]
    alone = [0] * m  # per machine, the work of the jobs allowing it alone
    pairs: dict[tuple[int, ...], int] = {}  # per 2-machine allowed set, the work allowing exactly it
    for job_node, (machines, size) in enumerate(zip(allowed, sizes), 1):
        if len(machines) == 1:
            alone[machines[0]] += size
        elif len(machines) == 2:
            pair = tuple(machines)
            pairs[pair] = pairs.get(pair, 0) + size
        head0 = big0 if size == k else machine0
        out = adj[job_node]
        for i in machines:
            edge = len(to)
            out.append(edge)
            adj[head0 + i].append(edge + 1)
            to += (head0 + i, job_node)
            cap += (size, 0)
    last = [(1 + n + i, machine0 + i, k) for i in range(m)] if throttled else []
    last += [(machine0 + i, sink, 0) for i in range(m)]
    for tail, head, capacity in last:  # throttle i -> machine i, then machine i -> sink
        adj[tail].append(len(to))
        adj[head].append(len(to) + 1)
        to += (head, tail)
        cap += (capacity, 0)
    demand = sum(sizes)
    # ceil(W_S / |S|) for each single machine, each pair above and all machines
    floor = max(alone, default=0)
    for (u, v), work in pairs.items():
        floor = max(floor, -(-(alone[u] + alone[v] + work) // 2))
    floor = max(floor, -(-demand // max(m, 1)))
    return FlowNetwork(m, demand, tuple(sizes), to, cap, adj, floor)


def build_network(scaled: ScaledInstance) -> FlowNetwork:
    """The layered {1, k} network up to the machine nodes; the estimate is the probe's."""
    return flow_network(scaled.machine_count, scaled.allowed, scaled.sizes, scaled.k)


def max_flow_integral(network: FlowNetwork, capacity: int) -> FlowSolution:
    """Integral maximum flow with every sink arc at capacity, deterministic per input.

    The flow is the one `Dinic` finds on `network.arcs` and those sink arcs,
    its phases with paths of at most 5 arcs pushed by `_first_phase` (module
    docstring). A flow short of the demand carries the floor its minimum cut
    proves.
    """
    if capacity < 0:
        raise ValueError("negative capacity")
    sink = len(network.adj) - 1
    # `_first_phase` writes every sink arc, so the copy needs no capacity set first
    cap = network.cap.copy()
    solver = Dinic(network.to, cap, network.adj)
    value = _first_phase(network, cap, capacity) + solver.max_flow(0, sink)
    floor = None
    if value < network.demand:
        # the cut's c machines each add one sink arc at `capacity`: value = F + c * capacity
        cut = sum(label >= 0 for label in solver.level[sink - network.machines : sink])
        if cut:
            floor = capacity - (value - network.demand) // cut
    return FlowSolution(flows=solver.flows(), value=value, floor=floor)


def _first_phase(network: FlowNetwork, cap: list[int], capacity: int) -> int:
    """Dinic's first phases on the fresh network, pushed first-fit into `cap`; the units pushed.

    Each job whose arcs go straight to machine nodes, in job order, fills its
    machines in arc order, each up to its sink arc's room at `capacity`. Then
    each big {1, k} job, in job order, fills its machines in arc order, each
    up to the smaller of its throttle's and its machine's room. Then the
    direct jobs left short move placed jobs on (`_move_placed_jobs`). The
    passes are Dinic's phases with paths of 3, 4 and 5 arcs, each pass that
    pushes anything one phase (module docstring).
    """
    m, to, adj = network.machines, network.to, network.adj
    machine0 = len(adj) - 1 - m
    room = [capacity] * len(adj)  # per machine node, what its sink arc still takes
    bigs = []  # the jobs entering the throttles; none on a transportation network
    short = []  # the direct jobs left short
    for job, size in enumerate(network.sizes):
        edges = adj[job + 1][1:]  # the job's arcs' edges
        if not edges:
            continue
        if to[edges[0]] < machine0:
            bigs.append(job)
            continue
        left = size
        for edge in edges:
            node = to[edge]
            free = room[node]
            if free:
                pushed = min(left, free)
                room[node] = free - pushed
                cap[edge] -= pushed
                cap[edge + 1] = pushed
                left -= pushed
                if not left:
                    break
        if left:
            short.append(job)
        cap[2 * job], cap[2 * job + 1] = left, size - left
    for job in bigs:
        left = size = network.sizes[job]
        for edge in adj[job + 1][1:]:
            throttle = adj[to[edge]][-1]  # the throttle's own arc, to its machine
            node = to[throttle]
            pushed = min(left, cap[throttle], room[node])
            if pushed:
                room[node] -= pushed
                cap[throttle] -= pushed
                cap[throttle + 1] += pushed
                cap[edge] -= pushed
                cap[edge + 1] = pushed
                left -= pushed
                if not left:
                    break
        cap[2 * job], cap[2 * job + 1] = left, size - left
    if short:
        _move_placed_jobs(network, cap, room, short)
    room = room[machine0:-1]  # per machine
    sink0 = len(cap) - 2 * m  # edge sink0 + 2i is machine i -> sink
    cap[sink0::2] = room
    cap[sink0 + 1 :: 2] = [capacity - free for free in room]
    return m * capacity - sum(room)


def _move_placed_jobs(
    network: FlowNetwork, cap: list[int], room: list[int], short: list[int]
) -> None:
    """Dinic's phase of 5-arc paths, pushed into `cap` and `room`.

    Each direct job left short, in job order, tries its machines in arc
    order and on each the direct jobs placed there in job order: it moves
    such a job on to that job's machines with room, in arc order, and takes
    what the job leaves. The walk's place is kept per machine and per
    placed job, so a dead end stays one (module docstring).
    """
    to, adj, n = network.to, network.adj, len(network.sizes)
    next_job: dict[int, int] = {}  # per machine node, where its edge list still has a job to move
    next_machine: dict[int, int] = {}  # per moved job, where its edges still have a machine to try
    for job in short:
        left = cap[2 * job]
        for into in adj[job + 1][1:]:  # the short job's edge into a machine
            node = to[into]
            edges = adj[node]
            at = next_job.get(node, 0)
            while left and cap[into] and at < len(edges):
                edge = edges[at]  # machine -> placed job, the reverse of that job's arc
                placed = to[edge] - 1
                if not (0 <= placed < n and cap[edge]):
                    at += 1
                    continue
                others = adj[placed + 1]  # its source edge, then its arcs' edges
                i = next_machine.get(placed, 1)
                while i < len(others):
                    other = others[i]
                    target = to[other]
                    free = room[target]
                    if free and cap[other]:
                        pushed = min(left, cap[into], cap[edge], cap[other], free)
                        left -= pushed
                        room[target] = free - pushed
                        cap[into] -= pushed
                        cap[into + 1] += pushed
                        cap[edge] -= pushed
                        cap[edge ^ 1] += pushed
                        cap[other] -= pushed
                        cap[other + 1] += pushed
                        if not (left and cap[into] and cap[edge]):
                            break
                    i += 1
                next_machine[placed] = i
                if i == len(others):
                    at += 1
            next_job[node] = at
            if not left:
                break
        cap[2 * job], cap[2 * job + 1] = left, network.sizes[job] - left


def job_fractions(network: FlowNetwork, flow: FlowSolution) -> FractionalAssignment:
    """Each job's machine shares: the flow units on its outgoing arcs, out of its size.

    The job arcs follow the n source arcs, job by job in arc order, so the
    arcs carrying flow are read in one pass: an arc's tail is its job's node
    and its head names its machine as (head - machine0) % m, for a machine
    node and a throttle node alike (module docstring).
    """
    to, m, flows, n = network.to, network.machines, flow.flows, len(network.sizes)
    machine0 = len(network.adj) - 1 - m
    end = sum(map(len, network.adj[1 : n + 1]))  # n plus the job arcs: past the last one
    shares: tuple[dict[int, int], ...] = tuple({} for _ in range(n))
    for arc in compress(range(n, end), flows[n:end]):
        shares[to[2 * arc + 1] - 1][(to[2 * arc] - machine0) % m] = flows[arc]
    return FractionalAssignment(shares, network.sizes)


def min_feasible_flow(
    network: FlowNetwork, start: int, snap: Callable[[int], int] = lambda bound: bound
) -> tuple[int, FlowSolution] | None:
    """The first probed bound whose max-flow meets the demand, and that flow.

    The search probes `start`, then each short probe's floor passed through
    `snap`, which maps a bound up to the smallest one the caller accepts at
    or above it: any integer by default, a true load in `lenstra`. With
    `start` the snap of a lower bound on every feasible bound, the result is
    the smallest feasible accepted bound, since a floor rules out only
    infeasible bounds (module docstring). None once a floor is None or above
    the demand: no bound is feasible. At most m + 1 max-flows for m machines.
    """
    bound = start
    while True:
        flow = max_flow_integral(network, bound)
        if flow.value == network.demand:
            return bound, flow
        if flow.floor is None or flow.floor > network.demand:
            return None
        bound = snap(flow.floor)


def min_feasible_T(scaled: ScaledInstance) -> tuple[int, FractionalAssignment] | None:
    """Smallest integer estimate meeting the demand, searched up from the machine-set floor.

    Returns it with the assignment extracted from the winning probe's flow,
    so the estimate is never solved twice. No estimate below max(max size,
    network.floor) can work (the floor's machine set carries its jobs' work,
    module docstring), so the search starts there and probes each short
    probe's floor next, at most m + 1 max-flows in all. Returns None,
    without any max-flow, when the big jobs have no matching with at most
    one per machine: at estimate = total only the throttles bind, so the
    flow meets the demand iff such a fractional, hence integral, matching
    exists. Every schedule of such an instance stacks two big jobs somewhere
    and the caller must fall back to the additive rounding.
    """
    bigs = scaled.big_jobs()
    if len(bigs) > scaled.machine_count:
        return None
    adjacency = [scaled.allowed[j] for j in bigs]
    if None in maximum_bipartite_matching(adjacency):
        return None
    network = build_network(scaled)
    found = min_feasible_flow(network, max(max(scaled.sizes, default=0), network.floor))
    if found is None:
        return None
    estimate, flow = found
    return estimate, extract_assignment(network, flow, scaled)


def extract_assignment(
    network: FlowNetwork, flow: FlowSolution, scaled: ScaledInstance
) -> FractionalAssignment:
    """Read job shares off a demand-meeting integral flow.

    Each big job's flow into a throttle node exits only toward that machine,
    so the units on the job -> throttle arc are exactly the job's own units
    reaching the machine: its share there, out of its size k.
    """
    if flow.value != network.demand:
        raise ValueError(f"flow value {flow.value} does not meet demand {network.demand}")
    assignment = job_fractions(network, flow)
    check_extraction_invariants(assignment, scaled)
    return assignment


def check_extraction_invariants(assignment: FractionalAssignment, scaled: ScaledInstance) -> None:
    """Verify the structural guarantees every extraction must satisfy, in flow units."""
    k = scaled.k
    big_units = [0] * scaled.machine_count
    for j, (shares, size) in enumerate(zip(assignment.shares, scaled.sizes, strict=True)):
        total = sum(shares.values())
        if assignment.sizes[j] != size or total != size:
            raise RuntimeError(
                f"job {j}: shares sum to {total} of size {assignment.sizes[j]}, expected {size}"
            )
        if size > 1:
            for machine, share in shares.items():
                if not 1 <= share <= k:
                    raise RuntimeError(f"big job {j}: share {share} outside 1..{k}")
                big_units[machine] += share
        elif len(shares) != 1:
            raise RuntimeError(f"small job {j} is not integrally assigned")
    for machine, units in enumerate(big_units):
        if units > k:
            raise RuntimeError(f"machine {machine}: big shares sum to {units} > {k}")
