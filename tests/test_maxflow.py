import random
from collections import Counter

import pytest

from twoval_makespan.flow import build_network, max_flow_integral
from twoval_makespan.generator import random_instance
from twoval_makespan.model import Instance, normalize, scale_to_integer

from helpers import arcs_at, dinic, transportation
from reference_dinic import ReferenceDinic


def _solve(kind, node_count, arcs, source, sink):
    solver = kind(node_count, arcs)
    value = solver.max_flow(source, sink)
    return value, solver.flows()


def _sink_depth(node_count, arcs, source, sink):
    """The sink's distance from the source over positive-capacity arcs; None if cut off."""
    depth = {source: 0}
    frontier = [source]
    while frontier and sink not in depth:
        reached = []
        for node in frontier:
            for tail, head, capacity in arcs:
                if tail == node and capacity and head not in depth:
                    depth[head] = depth[node] + 1
                    reached.append(head)
        frontier = reached
    return depth.get(sink)


def _random_network(rng):
    """Arcs over a few nodes: zero capacities, parallel, anti-parallel and self-loop arcs occur."""
    node_count = rng.randint(2, 9)
    arcs = []
    for _ in range(rng.randint(0, 4 * node_count)):
        tail, head = rng.randrange(node_count), rng.randrange(node_count)
        arcs.append((tail, head, rng.choice((0, 0, 1, 1, 2, 3, 7))))
        if rng.random() < 0.1:
            arcs.append(rng.choice(((tail, head), (head, tail))) + (rng.randint(0, 4),))
    return node_count, arcs, 0, rng.randrange(1, node_count)


def _layered_network(rng):
    """Nodes in layers from the source; arcs mostly climb one layer, some skip, drop or stay."""
    layers = [[0]]
    for _ in range(rng.randint(1, 6)):
        start = sum(map(len, layers))
        layers.append(list(range(start, start + rng.randint(1, 4))))
    node_count = sum(map(len, layers)) + 1
    sink = node_count - 1
    layers.append([sink])
    arcs = []
    for _ in range(rng.randint(node_count, 5 * node_count)):
        low = rng.randrange(len(layers) - 1)
        high = min(len(layers) - 1, low + rng.choice((1, 1, 1, 2))) if rng.random() < 0.85 else low
        tail, head = rng.choice(layers[low]), rng.choice(layers[high])
        if rng.random() < 0.15:
            tail, head = head, tail
        arcs.append((tail, head, rng.randint(0, 5)))
    return node_count, arcs, 0, sink


def _network(family, inst):
    """The {1, k} network of the normalized instance, or its transportation network."""
    if family == "unit-k":
        return build_network(scale_to_integer(normalize(inst)[0]))
    return transportation(inst)


def _phases(node_count, arcs, source, sink):
    """Breadth-first searches the reference kernel runs that reach the sink."""
    solver = ReferenceDinic(node_count, arcs)
    phases = 0
    while (level := solver._bfs(source, sink)) is not None:
        phases += 1
        iters = [0] * node_count
        while solver._augment(source, sink, level, iters):
            pass
    return phases


def test_kernel_finds_the_reference_flows_on_random_networks():
    rng = random.Random("maxflow-reference")
    seen = Counter()
    for case in range(3200):
        build = _random_network if case % 2 else _layered_network
        node_count, arcs, source, sink = build(rng)
        expected = _solve(ReferenceDinic, node_count, arcs, source, sink)
        assert _solve(dinic, node_count, arcs, source, sink) == expected, (node_count, arcs, sink)
        pairs = Counter((tail, head) for tail, head, _ in arcs)
        seen["zero capacity"] += any(capacity == 0 for _, _, capacity in arcs)
        seen["parallel"] += any(count > 1 for count in pairs.values())
        seen["anti-parallel"] += any(t != h and (h, t) in pairs for t, h in pairs)
        seen["self-loop"] += any(t == h for t, h in pairs)
        seen[("sink depth", _sink_depth(node_count, arcs, source, sink))] += 1
        seen["several phases"] += _phases(node_count, arcs, source, sink) > 1
    for feature in ("zero capacity", "parallel", "anti-parallel", "self-loop", "several phases"):
        assert seen[feature] >= 100, feature
    assert seen[("sink depth", None)] >= 100  # unreachable sinks
    assert all(seen[("sink depth", depth)] >= 100 for depth in range(1, 6))


@pytest.mark.parametrize("family", ["unit-k", "transportation"])
def test_package_networks_match_the_reference_at_every_bound(family):
    rng = random.Random(f"maxflow-builders-{family}")
    probes = 0
    for _ in range(40):
        inst = random_instance(rng, rng.randint(0, 7), rng.randint(1, 4), rng.randint(2, 4))
        network = _network(family, inst)
        sink = len(network.adj) - 1
        for bound in range(network.demand + 1):
            solution = max_flow_integral(network, bound)
            expected = _solve(ReferenceDinic, len(network.adj), arcs_at(network, bound), 0, sink)
            assert (solution.value, solution.flows) == expected
            probes += 1
    assert probes >= 200


@pytest.mark.parametrize("family", ["unit-k", "transportation"])
def test_probes_on_one_network_do_not_leak_into_each_other(family):
    rng = random.Random(f"maxflow-probes-{family}")
    jobs = [(2, [0, 1]), (1, [0, 1, 2]), (1, [1]), (2, [1, 2]), (1, [0]), (1, [2])]
    network = _network(family, Instance.build(3, jobs))
    sink = len(network.adj) - 1
    # infeasible and feasible bounds, each probed twice, in a shuffled order
    bounds = 2 * list(range(network.demand + 2))
    rng.shuffle(bounds)
    bounds.insert(len(bounds) // 2, -1)
    feasible = set()
    for bound in bounds:
        if bound < 0:
            with pytest.raises(ValueError, match="^negative capacity$"):
                max_flow_integral(network, bound)
            continue
        fresh = _solve(dinic, len(network.adj), arcs_at(network, bound), 0, sink)
        solution = max_flow_integral(network, bound)
        assert (solution.value, solution.flows) == fresh
        feasible.add(solution.value == network.demand)
    assert feasible == {False, True}
    # a probe works on a copy: the network's own capacities are still the fresh build's
    assert network.cap == _network(family, Instance.build(3, jobs)).cap


def test_max_flow_rejects_a_sink_that_is_the_source():
    with pytest.raises(ValueError, match="^source and sink are the same node$"):
        dinic(2, [(0, 1, 1), (1, 0, 1)]).max_flow(1, 1)
