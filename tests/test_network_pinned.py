"""Both flow networks pinned by one sha256 over seeded instances.

The {1, k} network comes from `flow.build_network(ScaledInstance.of(i, k))`
at k = 1 to 4; at k = 1 no job enters a throttle, so it has none, and it
is laid out as a transportation network of unit sizes. The additive search's transportation network is the one
`lenstra.min_feasible_fractional` hands to its first max-flow. For each
network the digest covers its node count `len(adj)`, `demand`, each job's
arcs as `helpers.job_arcs` reads them off `adj` and `helpers.arcs_at(network,
t)` at four bounds t, so any change to the node numbering, the arc order, a
job node's edge list or a capacity moves it. The instances are drawn with `random.random()`
alone, whose sequence CPython keeps across versions, and include instances
with no jobs and with one machine.

Print the digest (only when a layout change is intended) with

    PYTHONPATH=src python tests/test_network_pinned.py
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from twoval_makespan import flow, lenstra
from twoval_makespan.flow import build_network
from twoval_makespan.model import Instance, ScaledInstance

from helpers import arcs_at, job_arcs

CASES = 300
ALPHAS = tuple(map(Fraction, ("1", "2", "3", "3/2", "5/2", "7/3")))
DIGEST = "feefbce3a98ee8e51c8c06739cf8543904563a23d98d602b075cf9f37360421c"


def draw(seed: int) -> Instance:
    """Up to 10 jobs on up to 4 machines; about one draw in ten has no jobs."""
    rng = random.Random(seed)
    alpha = ALPHAS[int(rng.random() * len(ALPHAS))]
    machines = 1 + int(rng.random() * 4)
    jobs = []
    for _ in range(int(rng.random() * 11)):
        size = 1 if rng.random() < 0.5 else 1 / alpha
        allowed = {i for i in range(machines) if rng.random() < 0.5}
        jobs.append((size, allowed or {int(rng.random() * machines)}))
    return Instance.build(machines, jobs)


def transportation(instance: Instance):
    """The network the additive search probes, caught at its first max-flow."""
    caught = []
    probe = flow.max_flow_integral

    def catching(network, capacity):
        caught.append(network)
        return probe(network, capacity)

    flow.max_flow_integral = catching
    try:
        lenstra.min_feasible_fractional(instance)
    finally:
        flow.max_flow_integral = probe
    return caught[0]


def layout(network) -> bytes:
    demand, m = network.demand, network.machines
    bounds = (0, 1, -(-demand // m), demand)
    arcs = tuple(arcs_at(network, t) for t in bounds)
    return repr((len(network.adj), demand, job_arcs(network), arcs)).encode()


def digest() -> str:
    hasher = hashlib.sha256()
    for seed in range(CASES):
        instance = draw(seed)
        for k in range(1, 5):
            hasher.update(layout(build_network(ScaledInstance.of(instance, k))))
        hasher.update(layout(transportation(instance)))
    return hasher.hexdigest()


def test_draws_cover_the_edge_cases():
    instances = [draw(seed) for seed in range(CASES)]
    assert sum(instance.job_count == 0 for instance in instances) >= 10
    assert sum(instance.machine_count == 1 for instance in instances) >= 50
    assert sum(len(instance.distinct_sizes()) == 2 for instance in instances) >= 150


def test_network_layouts_are_pinned():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
