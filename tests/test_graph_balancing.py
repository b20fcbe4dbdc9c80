import random
from fractions import Fraction

import pytest

from twoval_makespan import graph_balancing
from twoval_makespan.generator import random_instance
from twoval_makespan.graph_balancing import (
    FOREST,
    gb_forest_round,
    gb_perfect_matching_opt1,
    gb_solve_two_valued,
    gb_solve_unit_k,
    orient_components,
)
from twoval_makespan.lenstra import cancel_cycles, min_feasible_fractional
from twoval_makespan.matching import maximum_bipartite_matching
from twoval_makespan.model import (
    Instance,
    ScaledInstance,
    machine_loads,
    makespan,
    normalize,
    scale_to_integer,
    size_ratio,
)

from helpers import (
    enumerate_opt, fraction, integer_instance, reference_orient_components, scale, scale_with_k,
    schedule_of,
)


def test_orient_single_edge():
    heads = orient_components(((7, 2, 5),))
    assert heads == {7: 5}  # tail is the lower endpoint


def test_orient_cycle_is_bijection():
    graph = ((0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0))
    heads = orient_components(graph)
    assert sorted(heads.values()) == [0, 1, 2, 3]


def test_orient_two_disjoint_paths():
    graph = ((0, 0, 1), (1, 1, 2), (2, 5, 6))
    heads = orient_components(graph)
    assert heads[0] == 1 and heads[1] == 2  # directed away from machine 0
    assert heads[2] == 6
    assert len(set(heads.values())) == 3


def test_orient_parallel_edges_form_two_cycle():
    graph = ((0, 3, 4), (1, 3, 4))
    heads = orient_components(graph)
    assert sorted(heads.values()) == [3, 4]


def _max_degree_two_multigraph(rng: random.Random) -> list[tuple[int, int, int]]:
    """Seeded paths, cycles and parallel-edge 2-cycles on distinct machines, shuffled.

    Each edge is (job, u, v) with distinct random job ids and its endpoints
    in random order.
    """
    labels = rng.sample(range(60), 60)
    pairs: list[tuple[int, int]] = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("path", "cycle", "two-cycle"))
        if kind == "two-cycle":
            u, v = labels.pop(), labels.pop()
            pairs += [(u, v), (u, v)]
            continue
        length = rng.randint(1, 6) if kind == "path" else rng.randint(3, 7)
        vertices = [labels.pop() for _ in range(length + (kind == "path"))]
        ring = vertices if kind == "path" else vertices + vertices[:1]
        pairs += list(zip(ring, ring[1:]))
    rng.shuffle(pairs)
    jobs = rng.sample(range(1000), len(pairs))
    return [(job, *(pair if rng.random() < 0.5 else pair[::-1])) for job, pair in zip(jobs, pairs)]


def test_orientation_matches_the_two_loop_reference():
    rng = random.Random(32)
    for _ in range(6000):
        edges = _max_degree_two_multigraph(rng)
        heads = orient_components(edges)
        # the same heads, inserted in the same order
        assert list(heads.items()) == list(reference_orient_components(edges).items())


def test_orient_rejects_degree_three():
    graph = ((0, 0, 1), (1, 0, 2), (2, 0, 3))
    with pytest.raises(ValueError, match="degree|half-assigned"):
        orient_components(graph)


def test_gb_triangle_gets_one_big_per_machine():
    scaled = scale_with_k(3, [(2, [0, 1]), (2, [1, 2]), (2, [0, 2])], k=2)
    result = gb_solve_unit_k(scaled)
    assert result is not None
    counts = [0, 0, 0]
    for machine in result.schedule.assignment:
        counts[machine] += 1
    assert counts == [1, 1, 1]
    base = integer_instance(scaled)
    assert makespan(base, result.schedule) == 2
    assert enumerate_opt(base).opt_makespan == 2


def test_gb_forced_half_split_path():
    # smalls pin each machine at load 1, so the big job must split half/half
    scaled = scale(2, [(2, [0, 1]), (1, [0]), (1, [1])])
    result = gb_solve_unit_k(scaled)
    assert result is not None
    assert result.estimate == 2
    assert [fraction(result.assignment, 0, i) for i in (0, 1)] == [Fraction(1, 2)] * 2
    assert tuple(result.assignment.shares[0]) == (0, 1)
    # the single path edge is directed away from machine 0
    assert result.schedule.assignment[0] == 1
    base = integer_instance(scaled)
    assert makespan(base, result.schedule) == 3
    assert enumerate_opt(base).opt_makespan == 3


def test_gb_support_structure_invariant():
    rng = random.Random("gb-structure")
    for _ in range(60):
        k = rng.randint(2, 6)
        inst = random_instance(rng, rng.randint(1, 10), rng.randint(1, 4), k, gb=True)
        scaled = scale_to_integer(normalize(inst)[0])
        result = gb_solve_unit_k(scaled)
        if result is None:
            continue
        half = Fraction(1, 2)
        for j in scaled.big_jobs():
            support = tuple(result.assignment.shares[j])
            assert len(support) <= 2
            values = sorted(fraction(result.assignment, j, i) for i in support)
            if len(values) == 2:
                assert values == [half, half] or values[1] > half


def test_gb_rounding_bounds():
    rng = random.Random("gb-bounds")
    for _ in range(80):
        k = rng.randint(2, 6)
        inst = random_instance(rng, rng.randint(1, 10), rng.randint(1, 4), k, gb=True)
        scaled = scale_to_integer(normalize(inst)[0])
        result = gb_solve_unit_k(scaled)
        if result is None:
            continue
        base = integer_instance(scaled)
        loads = machine_loads(base, result.schedule)
        bigs = [0] * scaled.machine_count
        for j, machine in enumerate(result.schedule.assignment):
            if scaled.sizes[j] > 1:
                bigs[machine] += 1
        assert max(bigs, default=0) <= 1
        assert all(2 * load <= 2 * result.estimate + scaled.k for load in loads)
        opt = enumerate_opt(base).opt_makespan
        assert makespan(base, result.schedule) <= Fraction(3, 2) * opt


def test_gb_rejects_wide_allowed_sets():
    scaled = scale_with_k(3, [(2, [0, 1, 2])], k=2)
    with pytest.raises(ValueError, match="graph-balancing"):
        gb_solve_unit_k(scaled)


def test_matching_two_disjoint_jobs():
    inst = Instance.build(2, [(1, [0]), (Fraction(7, 10), [1])])
    schedule = gb_perfect_matching_opt1(inst)
    assert schedule is not None
    assert makespan(inst, schedule) == 1


def test_matching_pigeonhole_returns_none():
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1]), (1, [0, 1])])
    assert gb_perfect_matching_opt1(inst) is None


def test_more_jobs_than_machines_skips_the_matching(monkeypatch):
    # the pigeonhole answers None before any matching runs, as the matching would
    rng = random.Random("gb-matching-pigeonhole")
    matched_calls = []

    def recording(adjacency):
        matched_calls.append(len(adjacency))
        return maximum_bipartite_matching(adjacency)

    monkeypatch.setattr(graph_balancing, "maximum_bipartite_matching", recording)
    over = unmatched = 0
    for _ in range(400):
        m = rng.randint(1, 5)
        inst = random_instance(rng, rng.randint(0, 8), m, Fraction(10, 7), gb=True)
        n = inst.job_count
        matched = maximum_bipartite_matching([sorted(allowed) for allowed in inst.allowed])
        matched_calls.clear()
        schedule = gb_perfect_matching_opt1(inst)
        assert schedule == (None if None in matched else schedule_of(matched))
        assert matched_calls == ([] if n > m else [n])
        over += n > m
        unmatched += n <= m and schedule is None
    assert 100 <= over <= 300 and unmatched >= 20


def test_matching_agrees_with_oracle():
    rng = random.Random("gb-matching")
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 4), Fraction(10, 7), gb=True)
        norm, _ = normalize(inst)
        schedule = gb_perfect_matching_opt1(norm)
        opt = enumerate_opt(norm).opt_makespan
        assert (schedule is not None) == (opt <= 1)


def test_forest_round_single_split_job():
    inst = Instance.build(2, [(Fraction(7, 10), [0, 1]), (1, [0])])
    _, assignment = min_feasible_fractional(inst)
    canceled = cancel_cycles(assignment)
    schedule = gb_forest_round(inst, canceled)
    assert all(load <= 2 for load in machine_loads(inst, schedule))


def test_forest_round_path_alternates():
    # hand-traced 3-machine path: two fractional jobs, each machine <= 1 rounded job
    inst = Instance.build(3, [(Fraction(7, 10), [0, 1]), (Fraction(7, 10), [1, 2])])
    from twoval_makespan.flow import FractionalAssignment

    assignment = FractionalAssignment(({0: 1, 1: 1}, {1: 1, 2: 1}), (2, 2))
    schedule = gb_forest_round(inst, assignment)
    assert schedule.assignment[0] != schedule.assignment[1]


def test_forest_round_loads_at_most_two_when_opt_is_two_smalls():
    # fixtures with oracle optimum exactly 2s, normalized units, s = 7/10
    rng = random.Random("gb-forest")
    two_s = Fraction(7, 5)
    seen = 0
    for _ in range(300):
        inst = random_instance(rng, rng.randint(2, 7), rng.randint(1, 4), Fraction(10, 7), gb=True)
        norm, _ = normalize(inst)
        if enumerate_opt(norm).opt_makespan != two_s:
            continue
        seen += 1
        _, assignment = min_feasible_fractional(norm)
        canceled = cancel_cycles(assignment)
        schedule = gb_forest_round(norm, canceled)
        assert all(load <= 2 for load in machine_loads(norm, schedule))
    assert seen >= 5  # the sweep found genuine OPT = 2s fixtures


def test_gb_solve_alpha_two():
    rng = random.Random("gb-a2")
    for _ in range(50):
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), 2, gb=True)
        result = gb_solve_two_valued(inst)
        opt = enumerate_opt(inst).opt_makespan
        assert result.makespan <= Fraction(3, 2) * opt


def test_gb_solve_opt_two_smalls_ratio():
    rng = random.Random("gb-2s-ratio")
    two_s = Fraction(7, 5)
    seen = 0
    for _ in range(200):
        inst = random_instance(rng, rng.randint(2, 7), rng.randint(1, 4), Fraction(10, 7), gb=True)
        norm, _ = normalize(inst)
        if enumerate_opt(norm).opt_makespan != two_s:
            continue
        seen += 1
        result = gb_solve_two_valued(norm)
        assert FOREST in result.branch_makespans
        assert result.branch_makespans[FOREST] <= 2
        assert result.makespan <= Fraction(10, 7) * two_s  # ratio <= 2 / (2s) = 1/s
    assert seen >= 3


def test_gb_solve_within_guarantee():
    rng = random.Random("gb-any")
    for alpha in (Fraction(10, 7), Fraction(2), Fraction(23, 10), Fraction(4)):
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), alpha, gb=True)
            result = gb_solve_two_valued(inst)
            opt = enumerate_opt(inst).opt_makespan
            assert result.makespan <= Fraction(413, 250) * opt


def test_only_the_gb_solvers_require_two_machine_eligibility(monkeypatch):
    # job 0 allows 3 machines: the matching and forest branches still give
    # valid schedules, but the gb solvers' guarantees need at most 2
    inst = Instance.build(3, [(1, [0, 1, 2]), (Fraction(7, 10), [0, 1]), (Fraction(7, 10), [2])])
    matched = gb_perfect_matching_opt1(inst)
    assert matched is not None
    assert max(machine_loads(inst, matched)) == 1
    _, assignment = min_feasible_fractional(inst)
    forest = gb_forest_round(inst, cancel_cycles(assignment))
    assert len(machine_loads(inst, forest)) == 3
    with pytest.raises(ValueError, match="graph-balancing"):
        gb_solve_two_valued(inst)
    with pytest.raises(ValueError, match="graph-balancing"):
        gb_solve_unit_k(ScaledInstance.of(inst, 2))

    # at alpha = 3/2 a solve checks eligibility once for itself and once in
    # its small-down {1, 2} rounding
    checked = []

    def counting(instance):
        checked.append(instance)
        return require(instance)

    require = graph_balancing._require_gb
    monkeypatch.setattr(graph_balancing, "_require_gb", counting)
    gb = Instance.build(3, [(3, [0, 1]), (2, [1, 2]), (2, [0, 2]), (2, [0])])
    assert size_ratio(gb) == Fraction(3, 2)
    gb_solve_two_valued(gb)
    assert len(checked) == 2


def test_gb_solve_rejects_non_gb_instance():
    inst = Instance.build(3, [(1, [0, 1, 2])])
    with pytest.raises(ValueError):
        gb_solve_two_valued(inst)
