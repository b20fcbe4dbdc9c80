"""Helpers shared by the test modules."""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, NamedTuple, Sequence, TypeVar

from twoval_makespan import flow
from twoval_makespan.flow import (
    FlowNetwork, FlowSolution, FractionalAssignment, build_network, extract_assignment,
    flow_network,
)
from twoval_makespan.lenstra import (
    _cycle_edges, _find_support_cycle, _snap_to_grid, fractional_assign_plain, load_grid,
)
from twoval_makespan.matching import maximum_bipartite_matching
from twoval_makespan.maxflow import Dinic
from twoval_makespan.model import (
    Instance, ScaledInstance, Schedule, integer_sizes, makespan, normalize, scale_to_integer,
)
from twoval_makespan.oracle import (
    DEFAULT_NODE_BUDGET, OracleResult, brute_force_opt, ratio_verdict,
)

from reference_dinic import ReferenceDinic


W = TypeVar("W")


class ReferenceFloor(NamedTuple):
    """What an infeasible probe proves in the earlier generic search: no point below `at` wins.

    `at` None means no point is feasible.
    """

    at: int | None


def reference_smallest_feasible(
    lo: int, hi: int, probe: Callable[[int], W | ReferenceFloor]
) -> tuple[int, W] | None:
    """The earlier generic search: the first point in [lo, hi] whose probe returns a witness.

    It probes lo and, while the probe returns a `ReferenceFloor`, moves lo up
    to max(lo + 1, its `at`) and probes again; None on a floor of None or
    past hi.
    """
    while lo <= hi:
        found = probe(lo)
        if not isinstance(found, ReferenceFloor):
            return lo, found
        if found.at is None:
            return None
        lo = max(lo + 1, found.at)
    return None


def reference_min_feasible_T(scaled: ScaledInstance) -> tuple[int, FractionalAssignment] | None:
    """The earlier `flow.min_feasible_T`, over `reference_smallest_feasible`.

    Probes go through `flow.max_flow_integral`, so a test recording that
    function sees them.
    """
    bigs = scaled.big_jobs()
    if len(bigs) > scaled.machine_count:
        return None
    if None in maximum_bipartite_matching([sorted(scaled.allowed[j]) for j in bigs]):
        return None
    network = build_network(scaled)

    def probe(estimate: int) -> FlowSolution | ReferenceFloor:
        solution = flow.max_flow_integral(network, estimate)
        return solution if solution.value == network.demand else ReferenceFloor(solution.floor)

    lo = max(max(scaled.sizes, default=0), network.floor)
    found = reference_smallest_feasible(lo, network.demand, probe)
    if found is None:
        return None
    estimate, solution = found
    return estimate, extract_assignment(network, solution, scaled)


def reference_min_feasible_fractional(instance: Instance) -> tuple[Fraction, FractionalAssignment]:
    """The earlier `lenstra.min_feasible_fractional`, which searched `load_grid` indices.

    Each index k is probed at grid[k] snapped up to a true load, and a short
    probe's floor, snapped up to a true load, becomes the index it divides
    to; so every probe snaps twice. Probes go through
    `flow.max_flow_integral`, so a test recording that function sees them.
    """
    denom, sizes = integer_sizes(instance)
    grid = load_grid(sizes)
    network = flow_network(instance.machine_count, instance.allowed, sizes)

    def probe(k: int) -> tuple[int, FractionalAssignment] | ReferenceFloor:
        load = _snap_to_grid(sizes, grid[k])
        solution = flow.max_flow_integral(network, load)
        found = fractional_assign_plain(network, solution)
        if found is not None:
            return load, found
        if solution.floor is None or solution.floor > grid[-1]:
            return ReferenceFloor(None)
        return ReferenceFloor(_snap_to_grid(sizes, solution.floor) // grid.step)

    start = _snap_to_grid(sizes, network.floor) // grid.step
    found = reference_smallest_feasible(start, len(grid) - 1, probe)
    if found is None:
        raise RuntimeError("transportation problem infeasible at the full-load bound")
    _, (load, assignment) = found
    return Fraction(load, denom), assignment


def integer_instance(scaled: ScaledInstance) -> Instance:
    """The {1, k} instance as an `Instance`: its integer sizes and machine sets."""
    return Instance.build(scaled.machine_count, zip(scaled.sizes, scaled.allowed))


def scale(machines, jobs) -> ScaledInstance:
    """The {1, k} view of the normalized instance, as the CLI's unitk mode builds it."""
    return scale_to_integer(normalize(Instance.build(machines, jobs))[0])


def scale_with_k(machines, jobs, k) -> ScaledInstance:
    """The {1, k} view at a given k.

    Keeps all-big fixtures at their intended k instead of renormalizing to 1.
    """
    return ScaledInstance.of(Instance.build(machines, jobs), k)


def dinic(node_count: int, arcs: Iterable[tuple[int, int, int]]) -> Dinic:
    """A `Dinic` over the residual arrays `ReferenceDinic` builds from the arc list."""
    ref = ReferenceDinic(node_count, arcs)
    return Dinic(ref._to, ref._cap, ref._adj)


def arcs_at(network: FlowNetwork, capacity: int) -> tuple[tuple[int, int, int], ...]:
    """The network's full arc list: `network.arcs`, then each machine -> sink at capacity."""
    sink = len(network.adj) - 1
    nodes = range(sink - network.machines, sink)
    return network.arcs + tuple((node, sink, capacity) for node in nodes)


def job_arcs(network: FlowNetwork) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per job, ((machine, arc index), ...) for its outgoing arcs, in arc order, read off `adj`.

    Job j's node lists edge 2j + 1 first, then edge 2a for each arc a it
    leaves by. A head names its machine as (head - machine0) % m, for a
    machine node and a {1, k} big job's throttle node alike.
    """
    to, adj, m = network.to, network.adj, network.machines
    machine0 = len(adj) - 1 - m
    return tuple(
        tuple(((to[edge] - machine0) % m, edge >> 1) for edge in edges[1:])
        for edges in adj[1 : 1 + len(network.sizes)]
    )


def transportation(instance: Instance) -> FlowNetwork:
    """The additive search's network: no throttles, capacities in units of 1/D."""
    return flow_network(instance.machine_count, instance.allowed, integer_sizes(instance)[1])


def fraction(assignment: FractionalAssignment, job: int, machine: int) -> Fraction:
    """The part of the job that the assignment runs on the machine."""
    return Fraction(assignment.shares[job].get(machine, 0), assignment.sizes[job])


def schedule_of(assignment: Iterable[int]) -> Schedule:
    """The schedule placing job j on the j-th machine of `assignment`."""
    return Schedule(tuple(assignment))


def support_is_forest(assignment: FractionalAssignment) -> bool:
    """True when the bipartite support graph of fractional jobs is acyclic."""
    shares = assignment.shares
    fractional = [j for j, job_shares in enumerate(shares) if len(job_shares) >= 2]
    return _find_support_cycle(shares, fractional) is None


def _reference_jobs_by_machine(supports: Sequence[Collection[int]]) -> dict[int, list[int]]:
    """Machine -> the fractional jobs on it, in job order; supports[j] is job j's machines."""
    index: dict[int, list[int]] = {}
    for j, support in enumerate(supports):
        if len(support) >= 2:
            for i in support:
                index.setdefault(i, []).append(j)
    return index


def reference_find_support_cycle(
    supports: Sequence[Collection[int]],
) -> list[tuple[int, int]] | None:
    """The earlier `_find_support_cycle`, which indexes every job on each call.

    Depth-first from each unvisited fractional job, lowest first; a job expands
    to its sorted machines, a machine to its jobs in index order.
    """
    n = len(supports)
    jobs_by_machine = _reference_jobs_by_machine(supports)
    parent: dict[int, int | None] = {}
    for start in range(n):
        if len(supports[start]) < 2 or start in parent:
            continue
        parent[start] = None
        stack = [start]
        while stack:
            node = stack.pop()
            if node < n:
                neighbors = [n + i for i in sorted(supports[node])]
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


def reference_cancel_cycles(assignment: FractionalAssignment) -> FractionalAssignment:
    """The earlier `cancel_cycles`: copies every job's shares and searches them all per cycle."""
    shares = [dict(job_shares) for job_shares in assignment.shares]
    while (cycle := reference_find_support_cycle(shares)) is not None:
        delta = min(shares[j][i] for j, i in cycle[1::2])
        for t, (j, i) in enumerate(cycle):
            shares[j][i] += delta if t % 2 == 0 else -delta
            if shares[j][i] == 0:
                del shares[j][i]
    return FractionalAssignment(tuple(shares), assignment.sizes)


def reference_round_forest(assignment: FractionalAssignment, instance: Instance) -> Schedule:
    """The earlier `round_forest`, which sorts every job's support.

    Every tree is rooted at its lowest-index machine node and each fractional
    job goes to its first child machine; the result passes
    `reference_check_forest_rounding`.
    """
    n = instance.job_count
    supports = [tuple(sorted(assignment.shares[j])) for j in range(n)]
    if () in supports:
        raise ValueError(f"job {supports.index(())} has empty support")
    placed = [support[0] if len(support) == 1 else None for support in supports]
    jobs_by_machine = _reference_jobs_by_machine(supports)
    seen: set[int] = set()  # support-graph node ids: j for job j, n + i for machine i
    for root in sorted(jobs_by_machine):
        if n + root in seen:
            continue
        seen.add(n + root)
        queue = deque([root])
        while queue:
            machine = queue.popleft()
            for j in jobs_by_machine[machine]:
                if j in seen:
                    continue
                seen.add(j)
                children = [i for i in supports[j] if i != machine]
                placed[j] = children[0]
                for child in children:
                    if n + child in seen:
                        raise RuntimeError("support graph is not a forest")
                    seen.add(n + child)
                    queue.append(child)
    if None in placed:
        raise RuntimeError("forest rounding left a job unplaced")
    schedule = Schedule(tuple(placed))  # type: ignore[arg-type]
    reference_check_forest_rounding(assignment, instance, schedule)
    return schedule


def reference_check_forest_rounding(
    assignment: FractionalAssignment, instance: Instance, schedule: Schedule
) -> None:
    """The earlier `_check_forest_rounding`, which sums every job's load and shares."""
    frac_loads = [0] * instance.machine_count
    loads = [0] * instance.machine_count
    received: dict[int, list[int]] = {}
    for j, machine in enumerate(schedule.assignment):
        if machine not in instance.allowed[j]:
            raise ValueError(f"job {j} assigned to machine {machine} outside its allowed set")
        for i, share in assignment.shares[j].items():
            frac_loads[i] += share
        loads[machine] += assignment.sizes[j]
        if len(assignment.shares[j]) != 1:
            received.setdefault(machine, []).append(j)
    for machine, jobs in received.items():
        if len(jobs) > 1:
            raise RuntimeError(f"machine {machine} received {len(jobs)} rounded jobs")
        if loads[machine] > frac_loads[machine] + assignment.sizes[jobs[0]]:
            raise RuntimeError(
                f"machine {machine} load grew by more than one job size during rounding"
            )


@dataclass(frozen=True)
class RatioCheck:
    passed: bool
    ratio: Fraction
    opt_makespan: Fraction
    witness: Schedule


def verify_ratio(
    instance: Instance,
    schedule: Schedule,
    bound: Fraction,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RatioCheck:
    """Exact-rational check that a schedule is within `bound` times the optimum."""
    value = makespan(instance, schedule)
    result = brute_force_opt(instance, node_budget)
    ratio, passed = ratio_verdict(value, result.opt_makespan, bound)
    return RatioCheck(passed, ratio, result.opt_makespan, result.witness)


def enumerate_opt(instance: Instance) -> OracleResult:
    """Pruning-free exhaustive optimum; cross-check for the oracle's pruned search."""
    n = instance.job_count
    if n == 0:
        return OracleResult(Fraction(0), Schedule(()))
    denom, sizes = integer_sizes(instance)
    allowed = [sorted(machines) for machines in instance.allowed]
    best_value: int | None = None
    best_assign: tuple[int, ...] | None = None
    for combo in itertools.product(*allowed):
        loads = [0] * instance.machine_count
        for job_idx, machine in enumerate(combo):
            loads[machine] += sizes[job_idx]
        value = max(loads)
        if best_value is None or value < best_value:
            best_value = value
            best_assign = combo
    assert best_value is not None and best_assign is not None
    return OracleResult(Fraction(best_value, denom), Schedule(best_assign))


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


def reference_brute_force_opt(instance: Instance) -> tuple[OracleResult, int]:
    """The oracle's earlier search, and the nodes it took; cross-check for `brute_force_opt`.

    Job idx tries its allowed machines in index order, each try counting one
    node; a try whose makespan so far reaches the incumbent is pruned. It
    returns at the first complete schedule that meets `load_floor`, or when
    the search ends; the witness is the first optimum in input order either
    way.
    """
    n = instance.job_count
    if n == 0:
        return OracleResult(Fraction(0), Schedule(())), 0
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
            new_load = loads[machine] + size
            new_max = new_load if new_load > current_max else current_max
            if best_value is not None and new_max >= best_value:
                continue
            current[idx] = machine
            if idx == last:  # a complete schedule below the incumbent
                best_value = new_max
                best_assign = tuple(current)
                if best_value == floor:  # nothing is below the floor: optimal
                    return OracleResult(Fraction(best_value, denom), Schedule(best_assign)), nodes
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
    return OracleResult(Fraction(best_value, denom), Schedule(best_assign)), nodes


def reference_violation(
    machine_count, sizes: Sequence, allowed: Sequence
) -> tuple[type[Exception], str] | None:
    """The exception type and text `Instance(machine_count, sizes, allowed)` raises, or None.

    A plain per-job loop over the two columns, written from the model's rules
    without its code. In order: a size that is no int or Fraction raises
    TypeError, then a machine count that is no int, then a column that is no
    tuple; then, as ValueErrors, a machine count below 1 and columns of
    different lengths; then per job, each machine set read as a set, a
    nonpositive size, an empty set or an index that is no int in 0..m-1;
    and last more than two size values.
    """
    for size in sizes:
        if not isinstance(size, (Fraction, int)):
            return TypeError, f"cannot interpret {size!r} as an exact rational"
    if not isinstance(machine_count, int):
        return TypeError, f"machine count {machine_count!r} is not an int"
    if not isinstance(sizes, tuple) or not isinstance(allowed, tuple):
        return TypeError, "the sizes and allowed columns must be tuples"
    violation = None
    if machine_count < 1:
        violation = "machine count must be positive"
    elif len(sizes) != len(allowed):
        violation = f"{len(sizes)} sizes but {len(allowed)} allowed sets"
    else:
        for idx, (size, machines) in enumerate(zip(sizes, allowed)):
            machines = set(machines)
            if size <= 0:
                violation = f"job {idx}: nonpositive size"
            elif not machines:
                violation = f"job {idx}: empty allowed set"
            elif any(not isinstance(i, int) or not 0 <= i < machine_count for i in machines):
                violation = f"job {idx}: machine index out of range"
            if violation is not None:
                break
        else:
            if len(set(sizes)) > 2:
                violation = "more than two size values"
    return None if violation is None else (ValueError, f"invalid instance: {violation}")


def machine_set_floor(
    machine_count: int, allowed: Sequence[Collection[int]], sizes: Sequence[int]
) -> int:
    """Largest ceil(W_S / |S|) over the singletons, the 2-machine allowed sets and all machines.

    W_S is the work of the jobs whose allowed set lies inside S, summed job by
    job for each set S; no bound below it lets every job fit.
    """
    sets = [{i} for i in range(machine_count)]
    sets += [set(machines) for machines in allowed if len(machines) == 2]
    sets.append(set(range(machine_count)))

    def work(machine_set: set[int]) -> int:
        return sum(size for machines, size in zip(allowed, sizes) if set(machines) <= machine_set)

    return max(-(-work(machine_set) // len(machine_set)) for machine_set in sets)


def crowded_machines(rng, machine_count: int, least: int = 1) -> list[int]:
    """At least `least` machines drawn from a random prefix of at least as many.

    Jobs drawn this way crowd the low machines, so many load bounds fall short.
    """
    reach = rng.randint(least, machine_count)
    return rng.sample(range(reach), rng.randint(least, reach))


def scan_assignment_grid(max_denominator: int = 1000) -> tuple[Fraction, Fraction]:
    """Max of min(expr1, expr2) over rationals in (1, 5] with bounded denominator.

    Pure integer arithmetic; returns (maximum, alpha attaining it).
    """
    best_num, best_den = 0, 1
    best_alpha = (0, 1)
    for q in range(1, max_denominator + 1):
        for p in range(q + 1, 5 * q + 1):
            n, r = divmod(p, q)
            if r == 0:
                num, den = 2 * p - q, p  # integer alpha: both expressions equal 2 - 1/alpha
            else:
                e1_num, e1_den = p + n * q, p
                e2_num, e2_den = p + (n - 1) * q, n * q
                if e1_num * e2_den <= e2_num * e1_den:
                    num, den = e1_num, e1_den
                else:
                    num, den = e2_num, e2_den
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best_alpha = (p, q)
    return Fraction(best_num, best_den), Fraction(*best_alpha)


# for alpha beyond any interval start n >= 6 the first expression alone is at
# most 1 + (n+1)/(2n) <= 19/12 < 1.652, so scanning alpha up to 6 covers the max
GB_SCAN_HI = 6


def scan_gb_grid(max_denominator: int = 1000) -> tuple[Fraction, Fraction]:
    """Max of min(1 + f1/2, 1/f2 + 1/2) over rationals in [2, GB_SCAN_HI], denominators bounded."""
    best_num, best_den = 0, 1
    best_alpha = (0, 1)
    for q in range(1, max_denominator + 1):
        for p in range(2 * q, GB_SCAN_HI * q + 1):
            n, r = divmod(p, q)
            if r == 0:
                num, den = 3, 2  # integer alpha: both expressions equal 3/2
            else:
                e1_num, e1_den = 2 * p + (n + 1) * q, 2 * p
                e2_num, e2_den = 2 * p + n * q, 2 * n * q
                if e1_num * e2_den <= e2_num * e1_den:
                    num, den = e1_num, e1_den
                else:
                    num, den = e2_num, e2_den
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best_alpha = (p, q)
    return Fraction(best_num, best_den), Fraction(*best_alpha)


def gb_interval_start_bound(n: int) -> Fraction:
    """Supremum of 1 + f1/2 over alpha in (n, n+1); decreasing in n."""
    return 1 + Fraction(n + 1, 2 * n)


def reference_bisect_midpoint(
    g: Callable[[Fraction], Fraction], lo: Fraction, hi: Fraction
) -> Fraction:
    """The earlier `bounds._bisect_root` without its final denominator capping.

    Returns the midpoint of the interval that 60 exact halvings of (lo, hi)
    end on, or a midpoint where g is exactly 0.
    """
    if not (g(lo) < 0 < g(hi)):
        raise ValueError("root is not bracketed")
    for _ in range(60):
        mid = (lo + hi) / 2
        value = g(mid)
        if value == 0:
            return mid
        if value < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def reference_worst_case_midpoint(n: int, graph_balancing: bool) -> Fraction:
    """The earlier bisection's midpoint for the root of x^2 - x - n^2 in (n, n+1).

    With graph_balancing, for the root of 2x^2 - n*x - n(n+1) instead. The
    earlier `worst_case_alpha` and `gb_worst_case_alpha` returned it capped
    by `limit_denominator(10**6)`.
    """
    if graph_balancing:
        return reference_bisect_midpoint(
            lambda x: 2 * x * x - n * x - n * (n + 1), Fraction(n), Fraction(n + 1)
        )
    return reference_bisect_midpoint(lambda x: x * x - x - n * n, Fraction(n), Fraction(n + 1))


def reference_orient_components(edges: Sequence[tuple[int, int, int]]) -> dict[int, int]:
    """The earlier `graph_balancing.orient_components`, with a walk per start and two loops.

    Walks each path from its degree-1 endpoints in index order, then each
    remaining cycle from its lowest vertex; a walk takes the lowest unused
    edge id at each vertex. Skips the degree and orientation checks.
    """
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for edge_id, (_, u, v) in enumerate(edges):
        adjacency.setdefault(u, []).append((edge_id, v))
        adjacency.setdefault(v, []).append((edge_id, u))
    heads: dict[int, int] = {}  # edge id -> head vertex
    used_edges: set[int] = set()

    def walk(start: int) -> None:
        current = start
        while True:
            options = [(e, other) for e, other in adjacency[current] if e not in used_edges]
            if not options:
                return
            edge_id, other = min(options)
            used_edges.add(edge_id)
            heads[edge_id] = other
            current = other

    for vertex in sorted(adjacency):
        if len(adjacency[vertex]) == 1:
            walk(vertex)
    for vertex in sorted(adjacency):
        if any(e not in used_edges for e, _ in adjacency[vertex]):
            walk(vertex)
    return {edges[edge_id][0]: head for edge_id, head in heads.items()}
