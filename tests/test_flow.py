import math
import random
from fractions import Fraction

import pytest

from twoval_makespan import flow
from twoval_makespan.flow import (
    FlowSolution,
    FractionalAssignment,
    build_network,
    extract_assignment,
    flow_network,
    max_flow_integral,
    min_feasible_T,
)
from twoval_makespan.generator import random_instance
from twoval_makespan.lenstra import min_feasible_fractional
from twoval_makespan.maxflow import Dinic
from twoval_makespan.model import (
    Instance, ScaledInstance, integer_sizes, is_graph_balancing, normalize, scale_to_integer,
    size_ratio,
)

import test_network_pinned as network_pinned
from helpers import (
    arcs_at, crowded_machines, dinic, enumerate_opt, integer_instance, job_arcs,
    machine_set_floor, reference_min_feasible_fractional, reference_min_feasible_T, scale,
    scale_with_k, transportation,
)
from reference_dinic import ReferenceDinic


def test_network_node_count_four_jobs_two_machines():
    # 4 jobs, 2 machines: 1 source + 4 job nodes + 2 throttles + 2 machines + 1 sink
    scaled = scale(2, [(2, [0]), (1, [0, 1]), (1, [1]), (2, [0, 1])])
    network = build_network(scaled)
    assert len(network.adj) == 10
    assert len(network.adj) == 1 + 4 + 2 * 2 + 1
    # job j's node lists edge 2j + 1, back to the source, then its arcs' edges
    # in arc order: arcs 4 to 9 leave the jobs, two for each job allowing both
    assert network.adj[1:5] == [[1, 8], [3, 10, 12], [5, 14], [7, 16, 18]]
    # at the brute-forced optimum the full demand is routable
    opt = enumerate_opt(integer_instance(scaled)).opt_makespan
    at_opt = build_network(scaled)
    assert max_flow_integral(at_opt, int(opt)).value == at_opt.demand == 6


def test_smallest_network_is_a_unit_path():
    scaled = scale(1, [(1, [0])])
    network = build_network(scaled)
    # source->job, job->machine, machine->sink: at k = 1 there are no throttles
    caps = list(arcs_at(network, 1))
    assert (0, 1, 1) in caps  # source -> job
    assert all(capacity == 1 for _, _, capacity in arcs_at(network, 1))
    assert max_flow_integral(network, 1).value == 1 == network.demand


def test_big_job_routes_through_throttles():
    scaled = scale_with_k(2, [(2, [0, 1])], k=2)  # one big job, k = 2
    network = build_network(scaled)
    job_node = 1
    throttle0, throttle1 = 2, 3
    machine0, machine1 = 4, 5
    caps = {(tail, head): capacity for tail, head, capacity in arcs_at(network, 2)}
    assert caps[(job_node, throttle0)] == 2
    assert caps[(job_node, throttle1)] == 2
    assert caps[(throttle0, machine0)] == 2
    assert caps[(throttle1, machine1)] == 2
    assert caps[(machine0, len(network.adj) - 1)] == 2
    # no arc from the big job straight to a machine node
    assert (job_node, machine0) not in caps and (job_node, machine1) not in caps


def test_throttle_caps_big_inflow():
    # two big jobs restricted to one machine: at most k units can reach it
    scaled = scale_with_k(1, [(2, [0]), (2, [0])], k=2)
    network = build_network(scaled)
    solution = max_flow_integral(network, 100)
    assert solution.value <= 2 < network.demand
    assert min_feasible_T(scaled) is None


def test_min_feasible_single_job():
    scaled = scale_with_k(1, [(3, [0])], k=3)
    estimate, _ = min_feasible_T(scaled)
    assert estimate == 3


def test_min_feasible_matches_brute_force():
    # big job on {0,1} plus two small jobs stuck on 0; both big placements enumerated
    inst = Instance.build(2, [(2, [0, 1]), (1, [0]), (1, [0])])
    scaled = scale_to_integer(normalize(inst)[0])
    opt = enumerate_opt(integer_instance(scaled)).opt_makespan
    assert opt == 2
    estimate, _ = min_feasible_T(scaled)
    assert estimate == 2


def test_feasibility_monotone_in_estimate():
    rng = random.Random("flow-monotone")
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), rng.randint(2, 4))
        scaled = scale_to_integer(normalize(inst)[0])
        feasible = []
        for estimate in range(max(scaled.sizes), sum(scaled.sizes) + 1):
            network = build_network(scaled)
            feasible.append(max_flow_integral(network, estimate).value == network.demand)
        # once feasible, always feasible
        assert all(b or not a for a, b in zip(feasible, feasible[1:]))


def test_extract_small_job_integral():
    scaled = scale(2, [(1, [0, 1])])
    estimate, _ = min_feasible_T(scaled)
    network = build_network(scaled)
    assignment = extract_assignment(network, max_flow_integral(network, estimate), scaled)
    assert len(assignment.shares[0]) == 1
    assert sum(assignment.shares[0].values()) == assignment.sizes[0]


def test_extract_half_split_big_job():
    # hand-built flow: big job k=2 sends 1 unit to each throttle
    scaled = scale_with_k(2, [(2, [0, 1])], k=2)
    network = build_network(scaled)
    sink = len(network.adj) - 1
    flows = [0] * len(arcs_at(network, 1))
    flows[0] = 2  # source -> job
    arcs = {(tail, head): idx for idx, (tail, head, _) in enumerate(arcs_at(network, 1))}
    flows[arcs[(1, 2)]] = 1  # job -> throttle 0
    flows[arcs[(1, 3)]] = 1  # job -> throttle 1
    flows[arcs[(2, 4)]] = 1
    flows[arcs[(3, 5)]] = 1
    flows[arcs[(4, sink)]] = 1
    flows[arcs[(5, sink)]] = 1
    assignment = extract_assignment(network, FlowSolution(tuple(flows), 2), scaled)
    assert (assignment.shares[0], assignment.sizes[0]) == ({0: 1, 1: 1}, 2)


def test_extract_two_thirds_split():
    # big job k=3 sending 2 units to throttle 0 and 1 to throttle 1
    scaled = scale_with_k(2, [(3, [0, 1])], k=3)
    network = build_network(scaled)
    sink = len(network.adj) - 1
    arcs = {(tail, head): idx for idx, (tail, head, _) in enumerate(arcs_at(network, 2))}
    flows = [0] * len(arcs_at(network, 2))
    flows[arcs[(0, 1)]] = 3
    flows[arcs[(1, 2)]] = 2
    flows[arcs[(1, 3)]] = 1
    flows[arcs[(2, 4)]] = 2
    flows[arcs[(3, 5)]] = 1
    flows[arcs[(4, sink)]] = 2
    flows[arcs[(5, sink)]] = 1
    assignment = extract_assignment(network, FlowSolution(tuple(flows), 3), scaled)
    assert (assignment.shares[0], assignment.sizes[0]) == ({0: 2, 1: 1}, 3)


def test_extract_rejects_short_flow():
    scaled = scale(1, [(1, [0])])
    network = build_network(scaled)
    with pytest.raises(ValueError, match="demand"):
        extract_assignment(network, FlowSolution((0,) * len(arcs_at(network, 1)), 0), scaled)


def test_extraction_invariants_reject_a_share_count_other_than_the_job_count():
    scaled = scale(1, [(1, [0])])
    flow.check_extraction_invariants(flow.FractionalAssignment(({0: 1},), (1,)), scaled)
    for shares in ((), ({0: 1}, {0: 1})):
        assignment = flow.FractionalAssignment(shares, (1,) * len(shares))
        with pytest.raises(ValueError):
            flow.check_extraction_invariants(assignment, scaled)


def test_dinic_rejects_a_negative_capacity():
    # the arc-list build that the cold-solver comparisons go through checks each capacity
    with pytest.raises(ValueError, match="^negative capacity$"):
        dinic(2, [(0, 1, -1)])


def test_the_builder_fills_the_arrays_dinic_builds_from_the_arc_list():
    """The fused build against `ReferenceDinic`'s arrays on the pinned layouts' instances."""
    for seed in range(network_pinned.CASES):
        instance = network_pinned.draw(seed)
        networks = [build_network(ScaledInstance.of(instance, k)) for k in range(1, 5)]
        networks.append(network_pinned.transportation(instance))
        for network in networks:
            reference = ReferenceDinic(len(network.adj), arcs_at(network, 0))
            assert network.to == reference._to
            assert network.cap == reference._cap
            assert network.adj == reference._adj


def test_throttles_are_laid_out_only_where_size_k_jobs_enter_them():
    # at k = 1 the {1, k} network is the unit-size network with no throttle
    # nodes or arcs; at k >= 2 it has one throttle node per machine
    for seed in range(network_pinned.CASES):
        instance = network_pinned.draw(seed)
        n, m = instance.job_count, instance.machine_count
        unit = build_network(ScaledInstance.of(instance, 1))
        plain = flow_network(m, instance.sorted_allowed, (1,) * n)
        assert len(unit.adj) == n + m + 2
        assert (unit.to, unit.cap, unit.adj) == (plain.to, plain.cap, plain.adj)
        for k in range(2, 5):
            assert len(build_network(ScaledInstance.of(instance, k)).adj) == n + 2 * m + 2


def test_the_instance_orders_each_jobs_machines_once_and_the_builder_keeps_the_order():
    # `Instance.sorted_allowed` is each job's machines in increasing index,
    # computed once and carried as is by every k's {1, k} view; the builder
    # lays each job's arcs in the order of the rows it is given
    rng = random.Random("flow-machine-order")
    instances = [Instance.build(3, []), Instance.build(1, [(1, [0]), (2, [0])])]
    for _ in range(200):
        m = rng.randint(1, 6)
        alpha = rng.choice([1, 2, Fraction(5, 2), Fraction(7, 3)])
        instances.append(random_instance(rng, rng.randint(0, 9), m, alpha, gb=rng.random() < 0.5))
    seen = dict.fromkeys(["no jobs", "one machine", "graph balancing", "reordered"], 0)
    for instance in instances:
        rows = instance.sorted_allowed
        assert rows == tuple(tuple(sorted(machines)) for machines in instance.allowed)
        assert instance.sorted_allowed is rows
        assert all(ScaledInstance.of(instance, k).allowed is rows for k in range(1, 5))
        shuffled = [rng.sample(row, len(row)) for row in rows]
        for k in range(1, 5):
            sizes = ScaledInstance.of(instance, k).sizes
            network = flow_network(instance.machine_count, shuffled, sizes, k)
            assert [[i for i, _ in arcs] for arcs in job_arcs(network)] == shuffled
        seen["no jobs"] += instance.job_count == 0
        seen["one machine"] += instance.machine_count == 1
        seen["graph balancing"] += instance.job_count > 0 and is_graph_balancing(instance)
        seen["reordered"] += shuffled != list(map(list, rows))
    assert all(count >= 10 for count in seen.values()), seen


def test_max_flow_integral_rejects_a_negative_capacity():
    # the bound is the machine -> sink capacity, which cannot be negative
    network = build_network(scale(1, [(1, [0])]))
    with pytest.raises(ValueError, match="^negative capacity$"):
        max_flow_integral(network, -1)


def test_extraction_invariants_on_random_instances():
    rng = random.Random("flow-extract")
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 9), rng.randint(1, 4), rng.randint(2, 5))
        scaled = scale_to_integer(normalize(inst)[0])
        found = min_feasible_T(scaled)
        if found is None:
            continue
        estimate, searched = found
        network = build_network(scaled)
        # extract_assignment checks the invariants internally and raises on breach
        assignment = extract_assignment(network, max_flow_integral(network, estimate), scaled)
        for j in range(len(scaled.sizes)):
            assert sum(assignment.shares[j].values()) == assignment.sizes[j]
        # the search keeps the winning probe's flow instead of solving again
        assert searched == assignment


def test_no_estimate_exactly_when_the_full_load_flow_falls_short(monkeypatch):
    # min_feasible_T decides None by a matching of the big jobs, with no
    # max-flow; the flow at estimate = total must agree on every reduction.
    # Otherwise its first probe is at the densest small machine set's floor.
    probes = []

    def recording(network, capacity):
        probes.append(capacity)
        return max_flow_integral(network, capacity)

    monkeypatch.setattr(flow, "max_flow_integral", recording)
    rng = random.Random("flow-none-by-matching")
    searches = unmatched_within_m = 0
    for _ in range(520):
        m = rng.randint(1, 5)
        alpha = Fraction(rng.randint(3, 13), rng.randint(1, 4))
        inst = random_instance(rng, rng.randint(0, 10), m, max(alpha, 2))
        alpha = size_ratio(inst)
        for k in (math.ceil(alpha), math.floor(alpha)):  # small-down, then small-up
            scaled = ScaledInstance.of(inst, k)
            total = sum(scaled.sizes)
            short = max_flow_integral(build_network(scaled), total).value < total
            probes.clear()
            found = min_feasible_T(scaled)
            assert (found is None) == short
            assert bool(probes) != short  # None without a max-flow, else at least one probe
            if found is not None:
                # the search starts at the machine-set floor and probes up from
                # it, within the log bound of a gallop-and-bisect search
                floor = machine_set_floor(m, scaled.allowed, scaled.sizes)
                lo = max(max(scaled.sizes, default=0), floor)
                assert probes[0] == lo and min(probes) == lo
                assert len(probes) <= 2 * math.ceil(math.log2(found[0] - lo + 1)) + 1
            searches += 1
            unmatched_within_m += short and len(scaled.big_jobs()) <= m
    assert searches >= 1000
    assert unmatched_within_m >= 20


def test_flow_deterministic():
    scaled = scale(3, [(2, [0, 1]), (1, [1, 2]), (2, [0, 2]), (1, [0])])
    estimate, _ = min_feasible_T(scaled)
    network = build_network(scaled)
    first = max_flow_integral(network, estimate)
    second = max_flow_integral(build_network(scaled), estimate)
    assert first == second


def test_empty_instance_estimate_zero():
    scaled = scale_to_integer(Instance.build(2, []))
    estimate, assignment = min_feasible_T(scaled)
    assert estimate == 0
    assert len(assignment.shares) == 0


def _networkx_value(nx, network, bound):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(network.adj)))
    for tail, head, capacity in arcs_at(network, bound):
        assert not graph.has_edge(tail, head)  # DiGraph would merge parallel arcs
        graph.add_edge(tail, head, capacity=capacity)
    return nx.maximum_flow_value(graph, 0, len(network.adj) - 1)


def _check_flow(network, bound, solution):
    source, sink = 0, len(network.adj) - 1
    arcs = arcs_at(network, bound)
    assert len(solution.flows) == len(arcs)
    excess = [0] * len(network.adj)
    for (tail, head, capacity), units in zip(arcs, solution.flows):
        assert 0 <= units <= capacity
        excess[tail] -= units
        excess[head] += units
    assert excess[sink] == solution.value == -excess[source]
    inner = set(range(len(network.adj))) - {source, sink}
    assert not any(excess[v] for v in inner)


def test_max_flow_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random("flow-networkx")
    networks = []
    for _ in range(40):
        inst = random_instance(rng, rng.randint(0, 12), rng.randint(1, 5), rng.randint(1, 5))
        scaled = scale_to_integer(normalize(inst)[0])
        networks.append((build_network(scaled), rng.randint(0, sum(scaled.sizes))))
    for _ in range(40):
        alpha = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        inst = random_instance(rng, rng.randint(0, 12), rng.randint(1, 5), max(alpha, 1))
        _, sizes = integer_sizes(inst)
        # the bound in the network's units of 1/D, infeasible ones included
        bound = sum(sizes) * rng.randint(0, 8) // 8
        networks.append((transportation(inst), bound))
    for network, bound in networks:
        solution = max_flow_integral(network, bound)
        assert solution.value == _networkx_value(nx, network, bound)
        _check_flow(network, bound, solution)


def _floor_networks(rng, count):
    """Random general and graph-balancing instances, each with its two networks.

    Yields (instance, [its {1, k} network for a random k in 1..4, its
    transportation network]).
    """
    for _ in range(count):
        m = rng.randint(1, 5)
        alpha = rng.choice([1, 2, 3, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)])
        inst = random_instance(rng, rng.randint(0, 9), m, alpha, gb=rng.random() < 0.5)
        unit_k = build_network(ScaledInstance.of(inst, rng.randint(1, 4)))
        yield inst, [unit_k, transportation(inst)]


def test_the_floor_is_the_densest_single_machine_pair_or_whole_set():
    rng = random.Random("flow-floor-brute-force")
    lifted = 0
    for inst, networks in _floor_networks(rng, 400):
        for network in networks:
            floor = machine_set_floor(inst.machine_count, inst.allowed, network.sizes)
            assert network.floor == floor
            lifted += network.floor > -(-network.demand // inst.machine_count)
    assert lifted >= 150  # a single machine or a pair beats the averaging bound


def test_the_floor_never_passes_the_smallest_feasible_bound():
    rng = random.Random("flow-floor-valid")
    exact = 0
    for _, networks in _floor_networks(rng, 1000):
        for network in networks:
            smallest = next(
                (t for t in range(network.demand + 1)
                 if max_flow_integral(network, t).value == network.demand),
                None,
            )
            assert network.floor <= (network.demand if smallest is None else smallest)
            exact += network.floor == smallest
    assert exact >= 1600  # of the 2000 networks, the floor is the answer


def test_each_search_first_probes_its_floor(monkeypatch):
    # min_feasible_T at max(max size, floor); min_feasible_fractional at the
    # smallest true load a*b + c*s at or above the floor, both in flow units
    probes = []

    def recording(network, capacity):
        probes.append(capacity)
        return max_flow_integral(network, capacity)

    monkeypatch.setattr(flow, "max_flow_integral", recording)
    rng = random.Random("flow-first-probe")
    cases = [inst for inst, _ in _floor_networks(rng, 300)]
    cases += [_crowded_instance(rng, least) for least in (1, 3) for _ in range(100)]
    short = 0
    for inst in cases:
        m, allowed = inst.machine_count, inst.allowed
        scaled = ScaledInstance.of(inst, rng.randint(1, 4))
        probes.clear()
        if min_feasible_T(scaled) is not None:
            floor = machine_set_floor(m, allowed, scaled.sizes)
            assert probes[0] == min(probes) == max(max(scaled.sizes, default=0), floor)
            short += len(probes) > 1
        _, units = integer_sizes(inst)
        floor = machine_set_floor(m, allowed, units)
        n, small, big = len(units), min(units, default=0), max(units, default=0)
        loads = {a * big + c * small for a in range(n + 1) for c in range(n + 1)}
        probes.clear()
        min_feasible_fractional(inst)
        assert probes[0] == min(probes) == min(load for load in loads if load >= floor)
        short += len(probes) > 1
    assert short >= 30  # searches that probed more than once


def _crowded_instance(rng, least=1):
    """Up to 14 jobs on least + 1 to least + 4 machines, at most m of them big.

    Job j may run on a random subset of at least `least` of the machines
    0..r - 1 for a random r >= least, so the low machines are crowded and
    many bounds fall short. With least >= 3
    no job's set is a single machine or a pair, so the search starts at
    total / m (`FlowNetwork.floor`) and short starts stay common.
    """
    m = least + rng.randint(1, 4)
    big, small = rng.choice([(3, 1), (2, 1), (5, 2), (7, 3), (4, 1)])
    bigs = rng.randint(0, m)
    jobs = []
    for j in range(rng.randint(2, 14)):
        jobs.append((big if j < bigs else small, crowded_machines(rng, m, least)))
    return Instance.build(m, jobs)


@pytest.mark.parametrize("family", ["unit-k", "transportation"])
def test_a_short_probe_floors_every_feasible_bound(family):
    # every bound from the averaging bound to the total, on seeded networks
    rng = random.Random(f"flow-floor-{family}")
    short = never = jumps = 0
    for _ in range(60):
        inst = _crowded_instance(rng)
        if family == "unit-k":
            network = build_network(ScaledInstance.of(inst, rng.randint(2, 4)))
        else:
            network = transportation(inst)
        sink, demand, m = len(network.adj) - 1, network.demand, network.machines
        bounds = range(-(-demand // m), demand + 1)
        probes = [max_flow_integral(network, bound) for bound in bounds]
        smallest = next((t for t, probe in zip(bounds, probes) if probe.value == demand), None)
        for bound, probe in zip(bounds, probes):
            if probe.value == demand:
                assert probe.floor is None
                continue
            short += 1
            if probe.floor is None:
                assert smallest is None
                never += 1
            else:
                assert bound < probe.floor <= (demand + 1 if smallest is None else smallest)
                jumps += probe.floor > bound + 1
            # the kept labels mark a min cut: F fixed capacity plus c sink arcs at the bound
            solver = dinic(len(network.adj), arcs_at(network, bound))
            assert solver.max_flow(0, sink) == probe.value
            side = {node for node, label in enumerate(solver.level) if label >= 0}
            fixed = sum(c for tail, head, c in network.arcs if tail in side and head not in side)
            cut = len(side.intersection(range(sink - m, sink)))
            assert probe.value == fixed + cut * bound
            assert probe.floor == (None if cut == 0 else bound + -(-(demand - probe.value) // cut))
    assert short >= 100 and jumps >= 20
    assert never >= 100 if family == "unit-k" else never == 0


def _staircase(rng, m, big, first):
    """Jobs of size big and 1 confined to each prefix range(r), first <= r <= m, for m > first.

    The prefix of r machines holds r * D_r units of work, where D_r falls in
    r with gaps e_r = D_r - D_(r+1) > (r - 1) * e_(r-1). At the bound D_(r+1)
    the work a prefix of s <= r machines holds beyond s * D_(r+1) then grows
    with s, so the min cut is the prefix of r machines and its floor is D_r.
    With first >= 3 no job's set is a single machine or a pair, so a search
    starts at the averaging bound D_m and probes D_m, D_(m-1), ..., D_first;
    with first = 1 machine 0 alone holds D_1, and the search starts there.
    """
    gaps = [rng.randint(1, 2)]  # gaps[r - first] is e_r
    for r in range(first + 1, m):
        gaps.append((r - 1) * gaps[-1] + rng.randint(1, 2))
    densities = [(m - 1) * gaps[-1] + rng.randint(0, 8)]  # D_m, so no prefix adds negative work
    for gap in reversed(gaps):
        densities.append(densities[-1] + gap)
    jobs, confined = [], 0
    for r, density in enumerate(reversed(densities), first):
        work, confined = r * density - confined, r * density
        jobs += [(big, range(r))] * (work // big) + [(1, range(r))] * (work % big)
    return jobs, densities


def _staircase_instance(rng, family, m, first):
    """A staircase for the family's search, and its densities D_m, ..., D_first.

    The {1, k} one has only small jobs, so its throttles carry nothing.
    """
    if family == "transportation":
        jobs, densities = _staircase(rng, m, rng.randint(2, 8), first)
        return Instance.build(m, jobs), densities
    jobs, densities = _staircase(rng, m, 1, first)
    allowed = tuple(tuple(machines) for _, machines in jobs)
    return ScaledInstance(m, allowed, (1,) * len(jobs), rng.randint(2, 4)), densities


@pytest.mark.parametrize("family", ["unit-k", "transportation"])
def test_each_short_probe_leaves_fewer_machines_on_its_cut(family, monkeypatch):
    # in every search the probed bounds rise, so the additive search never
    # probes a load twice, and each short probe's min cut, read off a cold
    # Dinic, has fewer machines on its source side than the last one's: at
    # most m + 1 max-flows. A staircase on prefixes of 3 or more machines is
    # searched D_m, ..., D_3 with one machine fewer on the cut each time; one
    # that confines work to machine 0 alone is floored at D_1 and won there.
    probes = []  # (bound, cut machines or None when the flow meets the demand)

    def recording(network, capacity):
        solution = max_flow_integral(network, capacity)
        cut = None
        if solution.value < network.demand:
            sink, m = len(network.adj) - 1, network.machines
            cold = dinic(len(network.adj), arcs_at(network, capacity))
            cold.max_flow(0, sink)
            cut = sum(label >= 0 for label in cold.level[sink - m : sink])
        probes.append((capacity, cut))
        return solution

    monkeypatch.setattr(flow, "max_flow_integral", recording)
    search = min_feasible_T if family == "unit-k" else min_feasible_fractional
    rng = random.Random(f"flow-cut-shrinks-{family}")
    cases = [(_crowded_instance(rng, least), None) for least in (1, 3) for _ in range(300)]
    if family == "unit-k":
        cases = [(ScaledInstance.of(inst, rng.randint(2, 4)), None) for inst, _ in cases]
    cases += [_staircase_instance(rng, family, m, 3) for m in range(4, 7) for _ in range(3)]
    cases += [_staircase_instance(rng, family, m, 1) for m in range(2, 6)]
    several = 0
    for inst, densities in cases:
        probes.clear()
        search(inst)
        bounds = [bound for bound, _ in probes]
        assert bounds == sorted(set(bounds))
        assert len(probes) <= inst.machine_count + 1
        cuts = [cut for _, cut in probes if cut is not None]
        assert all(later < earlier for earlier, later in zip(cuts, cuts[1:]))
        several += len(probes) >= 2
        if densities is not None:
            m = inst.machine_count
            first = m + 1 - len(densities)
            if first == 1:  # machine 0 alone floors the start at D_1
                assert probes == [(densities[-1], None)]
            else:
                assert probes == list(zip(densities, [*range(m - 1, first - 1, -1), None]))
    assert several >= 30  # searches that probed more than once


def test_both_searches_probe_as_the_grid_index_reference(monkeypatch):
    # `min_feasible_flow` probes true loads where the earlier search probed
    # `load_grid` indices through a generic witness-or-floor protocol: each
    # search must make the same probes, bound by bound with the same value
    # and floor, and return the same bound and shares as the reference
    probes = []  # (bound, value, floor) per max-flow

    def recording(network, capacity):
        solution = max_flow_integral(network, capacity)
        probes.append((capacity, solution.value, solution.floor))
        return solution

    monkeypatch.setattr(flow, "max_flow_integral", recording)
    rng = random.Random("flow-grid-index-reference")
    cases = [inst for inst, _ in _floor_networks(rng, 200)]
    cases += [_crowded_instance(rng, least) for least in (1, 3) for _ in range(200)]
    several = 0
    for inst in cases:
        scaled = ScaledInstance.of(inst, rng.randint(1, 4))
        for search, reference, argument in [
            (min_feasible_fractional, reference_min_feasible_fractional, inst),
            (min_feasible_T, reference_min_feasible_T, scaled),
        ]:
            probes.clear()
            expected = reference(argument)
            reference_probes = list(probes)
            probes.clear()
            assert search(argument) == expected
            assert probes == reference_probes
            several += len(probes) >= 2
    assert len(cases) >= 400 and several >= 50


def test_min_feasible_flow_probes_the_start_then_each_snapped_floor(monkeypatch):
    # with a snap to multiples of 3, the search probes the start, then each
    # short probe's floor snapped, snaps nothing else, and returns the first
    # feasible multiple of 3 of a scan from the start, with the scan's flow
    probes, snapped = [], []  # (bound, floor) per max-flow; each snap's argument

    def recording(network, capacity):
        solution = max_flow_integral(network, capacity)
        probes.append((capacity, solution.floor))
        return solution

    def snap(bound):
        snapped.append(bound)
        return -(-bound // 3) * 3

    rng = random.Random("flow-snapped-floors")
    several = none = 0
    for _ in range(400):
        inst = _crowded_instance(rng, 3)
        for network in (build_network(ScaledInstance.of(inst, rng.randint(1, 4))),
                        transportation(inst)):
            start = -(-network.floor // 3) * 3
            expected = None
            for bound in range(start, network.demand + 3, 3):
                solution = max_flow_integral(network, bound)
                if solution.value == network.demand:
                    expected = bound, solution
                    break
            probes.clear()
            snapped.clear()
            monkeypatch.setattr(flow, "max_flow_integral", recording)
            found = flow.min_feasible_flow(network, start, snap)
            monkeypatch.undo()
            assert found == expected
            assert probes[0][0] == start
            assert snapped == [floor for _, floor in probes[:-1]]
            assert [bound for bound, _ in probes[1:]] == [-(-floor // 3) * 3 for floor in snapped]
            if found is not None:
                assert found[0] == probes[-1][0]
            several += len(probes) >= 2
            none += found is None
    assert several >= 30 and none >= 20


def test_min_feasible_flow_gives_up_on_a_cut_no_bound_widens():
    # two big jobs on machine 0 alone pass one throttle of k: from a bound of
    # 2 on the min cut holds no sink arc, so the floor is None and the search
    # returns None; from 0 it first probes the floor 3 that the cut proves
    inst = Instance.build(2, [(3, {0}), (3, {0}), (1, {1})])
    network = build_network(ScaledInstance.of(inst, 2))
    for bound in range(2, network.demand + 1):
        solution = max_flow_integral(network, bound)
        assert solution.value < network.demand and solution.floor is None
    for start, floors in [(0, [3]), (network.floor, []), (network.demand, [])]:
        snapped = []
        assert flow.min_feasible_flow(network, start, lambda b: snapped.append(b) or b) is None
        assert snapped == floors


def _first_phase_network(rng, kind):
    """A random `flow_network` of the kind: one in eight has no jobs, one in four one machine.

    Half crowd the low machines (`crowded_machines`), so jobs placed there
    often have to move on for later ones.
    """
    m = 1 if rng.random() < 0.25 else rng.randint(2, 5)
    n = 0 if rng.random() < 0.125 else rng.randint(1, 12)
    if rng.random() < 0.5:
        allowed = [sorted(crowded_machines(rng, m)) for _ in range(n)]
    else:
        allowed = [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
    if kind == "transportation":
        return flow_network(m, allowed, [rng.randint(1, 6) for _ in range(n)])
    k = rng.randint(2, 4) if kind == "all-big" else rng.randint(1, 4)
    sizes = [k if kind == "all-big" or rng.random() < 0.4 else 1 for _ in range(n)]
    return flow_network(m, allowed, sizes, k)


def test_job_nodes_list_their_arcs_and_job_fractions_reads_each_head_as_its_machine():
    # the one layout every reader in `flow` walks: job j's node lists edge
    # 2j + 1, then edge 2a for each arc a leaving job j, in arc order. At the
    # demand bound `job_fractions` reads the shares the arc list and the flow
    # give, a head at machine node machine0 + i or at throttle node 1 + n + i
    # naming machine i. A third of the draws are all big, a third are
    # transportation networks, which have no throttles, nor do the unit-k
    # draws at k = 1; about one in four has one machine, one in eight no jobs
    rng = random.Random("flow-layout")
    kinds = ("unit-k", "all-big", "transportation")
    seen = dict.fromkeys(["one machine", "no jobs", "all big", "throttle shares"], 0)
    for draw in range(600):
        network = _first_phase_network(rng, kinds[draw % 3])
        n, m, demand = len(network.sizes), network.machines, network.demand
        machine0 = len(network.adj) - 1 - m
        arcs = arcs_at(network, demand)
        for j in range(n):
            own = [2 * arc for arc, (tail, _, _) in enumerate(arcs) if tail == 1 + j]
            assert network.adj[1 + j] == [2 * j + 1] + own
        solution = max_flow_integral(network, demand)
        shares = [{} for _ in range(n)]
        for (tail, head, _), units in zip(arcs, solution.flows):
            if 1 <= tail <= n and units:
                shares[tail - 1][head - machine0 if head >= machine0 else head - 1 - n] = units
        assert flow.job_fractions(network, solution) == FractionalAssignment(
            tuple(shares), network.sizes
        )
        seen["one machine"] += m == 1
        seen["no jobs"] += n == 0
        seen["all big"] += n > 0 and all(head < machine0 for tail, head, _ in arcs if tail <= n)
        seen["throttle shares"] += any(
            units and 1 <= tail <= n and head < machine0
            for (tail, head, _), units in zip(arcs, solution.flows)
        )
    assert seen["one machine"] >= 120 and seen["no jobs"] >= 50, seen
    assert seen["all big"] >= 150 and seen["throttle shares"] >= 200, seen


def _recording_searches(monkeypatch):
    """Per solver, the residual capacities at each breadth-first search and the sink's level."""
    searches = {}
    level_edges = Dinic._level_edges

    def recording(self, source, sink, out):
        caps = self._cap.copy()
        found = level_edges(self, source, sink, out)
        searches.setdefault(self, []).append((caps, self.level[sink]))
        return found

    monkeypatch.setattr(Dinic, "_level_edges", recording)
    return searches


def _against_cold_dinic(network, bound, searches):
    """Probe the bound warm and cold; the probe, the phases the passes skipped, the warm searches.

    Asserts the same flows, value, floor and final labels, and that the warm
    solver's searches are the cold one's from the first phase the passes did
    not push. The passes push exactly the phases whose paths have at most 5
    arcs: source -> direct job -> machine -> sink, then source -> big job ->
    throttle -> machine -> sink, then source -> short direct job -> machine
    -> placed job -> machine -> sink.
    """
    searches.clear()
    solution = max_flow_integral(network, bound)
    (warm, warm_searches), = searches.items()
    sink, m = len(network.adj) - 1, network.machines
    cold = dinic(len(network.adj), arcs_at(network, bound))
    value = cold.max_flow(0, sink)
    cold_searches = searches[cold]
    cut = sum(label >= 0 for label in cold.level[sink - m : sink])
    floor = None
    if value < network.demand and cut:
        floor = bound + -(-(network.demand - value) // cut)
    assert solution == FlowSolution(cold.flows(), value, floor)
    assert warm.level == cold.level
    skipped = sum(0 <= level <= 5 for _, level in cold_searches)  # levels rise phase by phase
    assert skipped <= 3
    assert warm_searches == cold_searches[skipped:]
    return solution, skipped, warm_searches


def _passed(network, caps):
    """Per job, the units the passes left on each of its machines, nonzero ones only."""
    return [
        {machine: caps[2 * arc + 1] for machine, arc in entries if caps[2 * arc + 1]}
        for entries in job_arcs(network)
    ]


@pytest.mark.parametrize("kind", ["unit-k", "all-big", "transportation"])
def test_the_first_fit_passes_are_dinics_first_phases(kind, monkeypatch):
    # against a cold Dinic at every bound: the direct jobs' pass is Dinic's
    # first phase when it pushes, the big jobs' pass the next one when it
    # pushes, and the moving pass the next one when it pushes. The big jobs
    # never enter a machine that a direct job left short allows: every such
    # machine is full, so they skip it on room.
    searches = _recording_searches(monkeypatch)
    rng = random.Random(f"flow-first-phase-{kind}")
    seen = dict.fromkeys(
        ["idle", "direct pass", "big pass", "big no-op", "move pass", "later phases", "short"], 0
    )
    for _ in range(300):
        network = _first_phase_network(rng, kind)
        sink, m = len(network.adj) - 1, network.machines
        arcs, entries_of = network.arcs, job_arcs(network)
        direct = [  # jobs whose first arc heads to a machine node
            j for j, entries in enumerate(entries_of) if arcs[entries[0][1]][1] >= sink - m
        ]
        bigs = [j for j in range(len(network.sizes)) if j not in direct]
        sink0 = 2 * len(arcs)  # edge sink0 + 2i is machine i -> sink
        for bound in range(network.demand + 2):
            solution, skipped, warm_searches = _against_cold_dinic(network, bound, searches)
            caps = warm_searches[0][0]  # the residual the passes left
            passed = _passed(network, caps)
            direct_pushed = bound > 0 and bool(direct)
            big_pushed = any(passed[j] for j in bigs)
            assert skipped - direct_pushed - big_pushed in (0, 1)
            # the machines the direct jobs left short allow are full and get no big flow
            held = {machine for j in direct if caps[2 * j] for machine, _ in entries_of[j]}
            assert not any(caps[sink0 + 2 * machine] for machine in held)
            assert not any(held.intersection(passed[j]) for j in bigs)
            seen["idle"] += skipped == 0
            seen["direct pass"] += direct_pushed
            seen["big pass"] += big_pushed
            seen["move pass"] += skipped - direct_pushed - big_pushed
            seen["big no-op"] += bool(bigs) and not big_pushed
            seen["later phases"] += len(warm_searches) > 1  # phases with flow after the passes
            seen["short"] += solution.value < network.demand
    if kind == "all-big":  # every job enters the throttles: the big jobs' pass is the first phase
        assert seen.pop("direct pass") == seen.pop("move pass") == 0
    if kind == "transportation":  # no throttles: the moving pass is the second phase
        assert seen.pop("big pass") == seen.pop("big no-op") == 0
    assert all(count >= 100 for count in seen.values()), seen


def test_the_passes_skip_full_machines_and_full_throttles_and_move_placed_jobs(monkeypatch):
    # hand-built later phases, each checked against a cold Dinic
    searches = _recording_searches(monkeypatch)
    # bound 1: small job 0 fills machine 0 and small job 1 machine 1, so small
    # job 2 is left short and both machines are full; the big job skips them
    # and takes machine 2, which has room
    network = flow_network(3, [[0], [0, 1], [0, 1], [0, 1, 2]], [1, 1, 1, 2], 2)
    solution, skipped, warm_searches = _against_cold_dinic(network, 1, searches)
    assert skipped == 2
    assert _passed(network, warm_searches[0][0]) == [{0: 1}, {1: 1}, {}, {2: 1}]
    # bound 5: big job 1 fills throttle 0 with machine 0 still 3 short of
    # full, so big job 2 passes machine 0 and goes to machine 1
    network = flow_network(2, [[1], [0, 1], [0, 1]], [1, 2, 2], 2)
    solution, skipped, warm_searches = _against_cold_dinic(network, 5, searches)
    assert skipped == 2 and solution.value == network.demand == 5
    assert _passed(network, warm_searches[0][0]) == [{1: 1}, {0: 2}, {1: 2}]
    assert len(warm_searches) == 1  # the passes found the whole flow
    # bound 1: small job 0 takes machine 0 and small job 1, allowing machine
    # 0 alone, is left short; job 0 moves on to machine 1 and job 1 takes 0
    network = flow_network(2, [[0, 1], [0]], [1, 1], 2)
    solution, skipped, warm_searches = _against_cold_dinic(network, 1, searches)
    assert skipped == 2 and solution.value == network.demand
    assert _passed(network, warm_searches[0][0]) == [{1: 1}, {0: 1}]
    # the same on a transportation network at bound 3, in part: job 0 fills
    # machine 0 with its 3 units and job 1 moves 2 of them on to machine 1
    network = flow_network(2, [[0, 1], [0]], [3, 2])
    solution, skipped, warm_searches = _against_cold_dinic(network, 3, searches)
    assert skipped == 2 and solution.value == network.demand
    assert _passed(network, warm_searches[0][0]) == [{0: 1, 1: 2}, {0: 2}]
