import math
import random
from fractions import Fraction

import pytest

from twoval_makespan import flow, lenstra
from twoval_makespan.flow import FractionalAssignment, max_flow_integral
from twoval_makespan.generator import random_instance
from twoval_makespan.lenstra import (
    _check_forest_rounding,
    cancel_cycles,
    fractional_assign_plain,
    lenstra_solve,
    load_grid,
    min_feasible_fractional,
    round_forest,
)
from twoval_makespan.model import (
    Instance, integer_sizes, machine_loads, makespan, normalize, scale_to_integer,
)
from twoval_makespan.twovalued import solve_two_valued

import helpers
from helpers import (
    crowded_machines, enumerate_opt, fraction, machine_set_floor, reference_cancel_cycles,
    reference_check_forest_rounding, reference_round_forest, schedule_of, support_is_forest,
    transportation,
)


def _loads(assignment, instance):
    loads = [Fraction(0)] * instance.machine_count
    for j in range(instance.job_count):
        for machine in assignment.shares[j]:
            loads[machine] += fraction(assignment, j, machine) * instance.sizes[j]
    return loads


def _whole(assignment, j):
    """Job j's shares sum to its size: its fractions sum to 1."""
    return sum(assignment.shares[j].values()) == assignment.sizes[j]


def _plain(instance, capacity):
    """`fractional_assign_plain` at a rational load bound on the multiples of 1/D."""
    units = capacity * integer_sizes(instance)[0]
    assert units.denominator == 1
    network = transportation(instance)
    return fractional_assign_plain(network, max_flow_integral(network, int(units)))


def test_fractional_single_job():
    inst = Instance.build(1, [(1, [0])])
    assignment = _plain(inst, Fraction(1))
    assert assignment.shares[0] == {0: assignment.sizes[0]}


def test_fractional_infeasible_below_total():
    inst = Instance.build(1, [(1, [0]), (1, [0])])
    assert _plain(inst, Fraction(1)) is None


def test_fractional_split_respects_capacity():
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1])])
    assignment = _plain(inst, Fraction(1))
    assert assignment is not None
    assert all(load <= 1 for load in _loads(assignment, inst))
    assert all(_whole(assignment, j) for j in range(inst.job_count))


def test_load_grid_covers_all_schedule_loads():
    inst = Instance.build(2, [(2, [0, 1]), (Fraction(1, 2), [0, 1]), (2, [0])])
    grid = {Fraction(k, _denom(inst)) for k in load_grid(integer_sizes(inst)[1])}
    # loads of every machine under every schedule must appear in the grid
    for a in (0, 1):
        for b in (0, 1):
            loads = [Fraction(0), Fraction(0)]
            loads[a] += 2
            loads[b] += Fraction(1, 2)
            loads[0] += 2
            assert loads[0] in grid and loads[1] in grid


def _denom(instance):
    """The lcm D of the size denominators; load_grid counts in units of 1/D."""
    return math.lcm(*(size.denominator for size in instance.distinct_sizes()))


def _reference_grid(instance):
    """The full (n+1)^2 grid of loads a*b + c*s that load_grid no longer builds."""
    sizes = instance.distinct_sizes()
    n = instance.job_count
    if not sizes:
        return [Fraction(0)]
    if len(sizes) == 1:
        return [sizes[0] * c for c in range(n + 1)]
    s, b = sizes
    return sorted({b * a + s * c for a in range(n + 1) for c in range(n + 1)})


def _smallest_feasible(instance, points):
    lo, hi = 0, len(points) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _plain(instance, points[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return points[lo]


def test_snapped_search_matches_the_full_grid():
    rng = random.Random("lenstra-snap")
    cases = [Instance.build(3, [])]
    for sizes in [(Fraction(7, 3), Fraction(1, 2)), (7, 5), (Fraction(5, 2), 1), (4, 6)]:
        for _ in range(70):
            m = rng.randint(1, 4)
            cases.append(Instance.build(m, [
                (rng.choice(sizes), rng.sample(range(m), rng.randint(1, m)))
                for _ in range(rng.randint(1, 10))
            ]))
    for _ in range(30):
        m = rng.randint(1, 4)
        size = rng.choice([Fraction(2, 3), 5])
        cases.append(Instance.build(m, [
            (size, rng.sample(range(m), rng.randint(1, m))) for _ in range(rng.randint(1, 10))
        ]))
    snapped = 0
    for inst in cases:
        capacity, assignment = min_feasible_fractional(inst)
        assert capacity == _smallest_feasible(inst, _reference_grid(inst))
        assert assignment == _plain(inst, capacity)
        grid = load_grid(integer_sizes(inst)[1])
        assert capacity * _denom(inst) in grid
        step = Fraction(grid.step, _denom(inst))
        if capacity > 0 and _plain(inst, capacity - step) is not None:
            snapped += 1  # a smaller multiple of g/D was feasible but is no load
    assert len(cases) >= 300
    assert snapped > 0


def _crowded(rng, n, m, sizes):
    """n jobs of the given sizes on m >= 3 machines, each allowing at least 3 of them.

    No job's set is a single machine or a pair, so the search starts at
    total / m. Each job draws its machines from a prefix of a random prefix,
    so the sets crowd the low machines and that start often falls short.
    """
    jobs = [(rng.choice(sizes), crowded_machines(rng, rng.randint(3, m), 3)) for _ in range(n)]
    return Instance.build(m, jobs)


def test_additive_search_probes_only_true_loads(monkeypatch):
    probed = []
    denom = 1

    def recording(network, capacity):
        probed.append(Fraction(capacity, denom))
        return max_flow_integral(network, capacity)

    monkeypatch.setattr(flow, "max_flow_integral", recording)
    rng = random.Random("lenstra-probes")
    for sizes in [(Fraction(7, 3), Fraction(1, 2)), (7, 5), (Fraction(13, 8), 1)]:
        for _ in range(100):
            m = rng.randint(1, 4)
            inst = Instance.build(m, [
                (rng.choice(sizes), rng.sample(range(m), rng.randint(1, m)))
                for _ in range(rng.randint(1, 10))
            ])
            probed.clear()
            denom = _denom(inst)
            capacity, _ = min_feasible_fractional(inst)
            loads = set(_reference_grid(inst))  # a*b + c*s with 0 <= a, c <= n
            assert probed and all(load in loads for load in probed)
            assert capacity in probed
            # the search starts at the smallest load at or above the machine-set floor
            _, units = integer_sizes(inst)
            floor = machine_set_floor(m, inst.allowed, units)
            assert probed[0] == min(load for load in loads if load * denom >= floor)
            grid = load_grid(units)
            start = int(probed[0] * denom) // grid.step
            # and wins at the first index from there whose snapped load reaches the capacity
            index = next(
                k for k in range(start, len(grid))
                if min(load for load in loads if load >= Fraction(grid[k], denom)) >= capacity
            )
            # each short probe's floor is probed next, within the log bound of a
            # gallop-and-bisect search
            assert len(probed) <= 2 * math.ceil(math.log2(index - start + 1)) + 1


def test_additive_search_snaps_each_floor_to_a_true_load(monkeypatch):
    # a short probe's floor is in units of 1/D and often no true load a*b + c*s;
    # the search must still win at the full grid's smallest feasible load
    floors = []

    def recording(network, capacity):
        flow = max_flow_integral(network, capacity)
        if flow.floor is not None:
            floors.append((capacity, flow.floor))
        return flow

    monkeypatch.setattr(flow, "max_flow_integral", recording)
    rng = random.Random("lenstra-floor-snap")
    raw = jumps = 0
    for sizes in [(Fraction(7, 3), Fraction(1, 2)), (7, 5), (Fraction(13, 8), 1),
                  (Fraction(9, 4), Fraction(2, 3))]:
        for _ in range(100):
            inst = _crowded(rng, rng.randint(2, 12), rng.randint(5, 8), sizes)
            floors.clear()
            capacity, _ = min_feasible_fractional(inst)
            assert capacity == _smallest_feasible(inst, _reference_grid(inst))
            denom, loads = _denom(inst), set(_reference_grid(inst))
            step = load_grid(integer_sizes(inst)[1]).step
            raw += any(Fraction(floor, denom) not in loads for _, floor in floors)
            jumps += any(floor > probed + step for probed, floor in floors)
    assert raw >= 40 and jumps >= 200


def test_additive_search_solves_each_load_once(monkeypatch):
    probed = []

    def recording(network, capacity):
        probed.append(capacity)
        return max_flow_integral(network, capacity)

    monkeypatch.setattr(flow, "max_flow_integral", recording)
    rng = random.Random("lenstra-once")
    alphas = [Fraction(7, 3), Fraction(13, 8), Fraction(11, 7), Fraction(5, 2), Fraction(3, 2)]
    searches = 0
    for _ in range(600):
        inst = _crowded(rng, rng.randint(1, 10), rng.randint(3, 5), (1, 1 / rng.choice(alphas)))
        probed.clear()
        min_feasible_fractional(inst)
        assert len(probed) == len(set(probed))
        searches += len(probed) >= 2
    assert searches >= 50


def test_additive_search_snaps_each_load_once(monkeypatch):
    # a probed load is already a true load, so only the start and each short
    # probe's floor are snapped: one snap per probe, the start's first
    snaps, probes, targets = [], [], []
    snap, probe = lenstra._snap_to_grid, flow.max_flow_integral

    def snapping(sizes, target):
        snaps.append(target)
        return snap(sizes, target)

    def probing(network, capacity):
        if not probes:
            targets.append(network.floor)  # the start: the machine-set floor
        probes.append(capacity)
        solution = probe(network, capacity)
        if solution.floor is not None:
            targets.append(solution.floor)
        return solution

    monkeypatch.setattr(lenstra, "_snap_to_grid", snapping)
    monkeypatch.setattr(flow, "max_flow_integral", probing)
    rng = random.Random("lenstra-snaps")
    several = 0
    for _ in range(300):
        inst = _crowded(rng, rng.randint(1, 10), rng.randint(3, 5), (1, Fraction(2, 5)))
        snaps.clear()
        probes.clear()
        targets.clear()
        capacity, _ = min_feasible_fractional(inst)
        assert snaps == targets and len(snaps) == len(probes)
        assert capacity == Fraction(probes[-1], _denom(inst))
        several += len(probes) >= 2
    assert several >= 30


def test_each_search_builds_one_network(monkeypatch):
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(flow, "build_network")
    counting(flow, "max_flow_integral")
    counting(lenstra, "flow_network")
    counting(lenstra, "integer_sizes")
    rng = random.Random("lenstra-one-network")
    # searches that took 2 or more probes, where one network must serve them all
    unit_k = additive = 0
    for _ in range(400):
        small = Fraction(1, rng.choice([2, 3]))
        inst = _crowded(rng, rng.randint(4, 12), rng.randint(3, 5), (1, small))
        calls.clear()
        flow.min_feasible_T(scale_to_integer(normalize(inst)[0]))
        if calls.get("max_flow_integral", 0) >= 2:
            assert calls["build_network"] == 1
            unit_k += 1
        alpha = rng.choice([Fraction(5, 2), Fraction(7, 3), Fraction(3, 2)])
        inst = _crowded(rng, rng.randint(4, 12), rng.randint(3, 5), (1, 1 / alpha))
        calls.clear()
        min_feasible_fractional(inst)
        if calls["max_flow_integral"] >= 2:
            assert calls["flow_network"] == calls["integer_sizes"] == 1
            additive += 1
    assert unit_k >= 5 and additive >= 30


def test_cancel_cycles_keeps_integral_assignment():
    inst = Instance.build(2, [(1, [0]), (1, [1])])
    assignment = FractionalAssignment(({0: 1}, {1: 1}), (1, 1))
    assert cancel_cycles(assignment) == assignment


def test_cancel_cycles_breaks_four_cycle():
    # two jobs split half/half over the same two machines form a 4-cycle
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1])])
    assignment = FractionalAssignment(({0: 1, 1: 1}, {0: 1, 1: 1}), (2, 2))
    before = _loads(assignment, inst)
    canceled = cancel_cycles(assignment)
    assert support_is_forest(canceled)
    assert _loads(canceled, inst) == before
    assert any(len(canceled.shares[j]) == 1 for j in range(2))
    assert all(_whole(canceled, j) for j in range(2))


def test_cancel_cycles_properties_on_random_fixtures():
    rng = random.Random("lenstra-cancel")
    for _ in range(40):
        inst = random_instance(
            rng, rng.randint(2, 9), rng.randint(2, 4), Fraction(rng.randint(2, 7), 2)
        )
        capacity, assignment = min_feasible_fractional(inst)
        before = _loads(assignment, inst)
        canceled = cancel_cycles(assignment)
        after = _loads(canceled, inst)
        assert support_is_forest(canceled)
        assert after == before  # circulation preserves loads exactly
        for j in range(inst.job_count):
            assert _whole(canceled, j)


def test_round_forest_identity_on_integral():
    inst = Instance.build(2, [(1, [0]), (1, [1])])
    assignment = FractionalAssignment(({0: 1}, {1: 1}), (1, 1))
    schedule = round_forest(assignment, inst)
    assert schedule.assignment == (0, 1)


def test_round_forest_single_split_job():
    inst = Instance.build(2, [(1, [0, 1])])
    schedule = round_forest(FractionalAssignment(({0: 1, 1: 1},), (2,)), inst)
    machine = schedule.assignment[0]
    assert machine in (0, 1)
    assert makespan(inst, schedule) == 1  # load grew by half the size


def test_round_forest_additive_bound_on_random_fixtures():
    rng = random.Random("lenstra-round")
    for _ in range(40):
        inst = random_instance(
            rng, rng.randint(2, 9), rng.randint(2, 4), Fraction(rng.randint(3, 8), 2)
        )
        _, assignment = min_feasible_fractional(inst)
        canceled = cancel_cycles(assignment)
        schedule = round_forest(canceled, inst)
        frac_loads = _loads(canceled, inst)
        big = inst.distinct_sizes()[-1]
        loads = machine_loads(inst, schedule)
        rounded_count = [0] * inst.machine_count
        for j, machine in enumerate(schedule.assignment):
            assert machine in inst.allowed[j]
            if len(canceled.shares[j]) != 1:
                rounded_count[machine] += 1
        assert max(rounded_count, default=0) <= 1
        assert all(load <= frac + big for load, frac in zip(loads, frac_loads))


def test_lenstra_forced_pair_of_bigs():
    inst = Instance.build(1, [(1, [0]), (1, [0])])
    solution = lenstra_solve(inst)
    assert makespan(inst, solution.schedule) == 2
    assert enumerate_opt(inst).opt_makespan == 2


def test_lenstra_additive_bound_and_three_halves_regime():
    rng = random.Random("lenstra-ratio")
    seen_regime = 0
    for _ in range(80):
        inst = random_instance(
            rng, rng.randint(1, 8), rng.randint(1, 3), Fraction(rng.randint(2, 6))
        )
        solution = lenstra_solve(inst)
        value = makespan(inst, solution.schedule)
        big = inst.distinct_sizes()[-1]
        assert value <= solution.capacity + big
        opt = enumerate_opt(inst).opt_makespan
        assert solution.capacity <= opt  # grid search never overshoots the optimum
        if opt >= 2 * big:
            seen_regime += 1
            assert value <= Fraction(3, 2) * opt
    assert seen_regime > 0  # the sweep actually exercised the regime


def test_lenstra_empty_instance():
    inst = Instance.build(2, [])
    solution = lenstra_solve(inst)
    assert solution.schedule.assignment == ()
    assert solution.capacity == 0


def test_flow_deeper_than_the_recursion_limit():
    # a 1501-machine chain: the flow's augmenting paths walk the whole chain
    jobs = [(1, [j, j + 1]) for j in range(1500)] + [(1, [0])]
    inst = Instance.build(1501, jobs)
    solution = lenstra_solve(inst)
    assert solution.capacity == 1
    assert makespan(inst, solution.schedule) == 1
    assert solve_two_valued(inst).makespan == 1


def test_round_forest_rejects_a_cyclic_support():
    # both jobs half on machine 0 and half on machine 1: the support is a 4-cycle
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1])])
    assignment = FractionalAssignment(({0: 1, 1: 1}, {0: 1, 1: 1}), (2, 2))
    assert not support_is_forest(assignment)
    with pytest.raises(RuntimeError, match="^support graph is not a forest$"):
        round_forest(assignment, inst)


def test_round_forest_rejects_an_empty_support():
    inst = Instance.build(2, [(1, [0, 1]), (1, [0])])
    assignment = FractionalAssignment(({0: 1}, {}), (1, 1))
    with pytest.raises(ValueError, match="^job 1 has empty support$"):
        round_forest(assignment, inst)


def test_cancel_cycles_on_a_ring_deeper_than_the_recursion_limit():
    # job j half on machine j and half on j + 1 mod n: one support cycle through all 2n nodes
    n = 2000
    inst = Instance.build(n, [(1, [j, (j + 1) % n]) for j in range(n)])
    assignment = FractionalAssignment(tuple({j: 1, (j + 1) % n: 1} for j in range(n)), (2,) * n)
    assert not support_is_forest(assignment)
    canceled = cancel_cycles(assignment)
    assert support_is_forest(canceled)
    assert _loads(canceled, inst) == _loads(assignment, inst)
    assert all(_whole(canceled, j) for j in range(n))
    assert makespan(inst, round_forest(canceled, inst)) <= 2


def _recording_cycles(monkeypatch, module, name):
    """The cycles each call of module.name returns, None for a search that found none."""
    cycles = []
    search = getattr(module, name)

    def recording(*args):
        cycle = search(*args)
        cycles.append(cycle)
        return cycle

    monkeypatch.setattr(module, name, recording)
    return cycles


def test_fractional_only_rounding_matches_the_full_scan_reference(monkeypatch):
    # the fractional-jobs-only cycle search and rounding find the same cycles
    # in the same order, so shares (values and key order) and schedules match
    cycles = _recording_cycles(monkeypatch, lenstra, "_find_support_cycle")
    reference_cycles = _recording_cycles(monkeypatch, helpers, "reference_find_support_cycle")
    rng = random.Random("lenstra-fractional-only")
    canceled_counts = []
    for k in range(400):
        alpha = rng.choice([Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)])
        inst = random_instance(rng, rng.randint(2, 200), rng.randint(2, 12), alpha, gb=k % 2 == 1)
        _, assignment = min_feasible_fractional(inst)
        cycles.clear()
        reference_cycles.clear()
        canceled = cancel_cycles(assignment)
        reference = reference_cancel_cycles(assignment)
        assert cycles == reference_cycles
        assert [list(shares.items()) for shares in canceled.shares] == [
            list(shares.items()) for shares in reference.shares
        ]
        assert canceled.sizes == reference.sizes
        assert round_forest(canceled, inst) == reference_round_forest(reference, inst)
        canceled_counts.append(len(cycles) - 1)
    assert sum(count >= 2 for count in canceled_counts) >= 30
    assert sum(count >= 4 for count in canceled_counts) >= 2


def _two_jobs_on_two_machines():
    return Instance.build(2, [(1, [0, 1]), (1, [0, 1])])


@pytest.mark.parametrize(
    "instance, assignment, placement, error, message",
    [
        pytest.param(
            Instance.build(2, [(1, [0]), (1, [0, 1])]),
            FractionalAssignment(({0: 1}, {0: 1, 1: 1}), (1, 2)),
            (1, 0),
            ValueError,
            "job 0 assigned to machine 1 outside its allowed set",
            id="off-allowed-set",
        ),
        pytest.param(
            _two_jobs_on_two_machines(),
            FractionalAssignment(({0: 1, 1: 1}, {0: 1, 1: 1}), (2, 2)),
            (0, 0),
            RuntimeError,
            "machine 0 received 2 rounded jobs",
            id="two-rounded-jobs",
        ),
        pytest.param(
            # only a negative share, which no flow holds, lets one rounded job
            # raise a machine by more than its size
            _two_jobs_on_two_machines(),
            FractionalAssignment(({0: 3, 1: -1}, {0: 2}), (2, 2)),
            (1, 0),
            RuntimeError,
            "machine 1 load grew by more than one job size during rounding",
            id="growth-above-job-size",
        ),
        pytest.param(
            _two_jobs_on_two_machines(),
            FractionalAssignment(({0: 2}, {1: 2}), (2, 2)),
            (1, 1),
            RuntimeError,
            "integral job 0 moved off the machine holding its size",
            id="integral-job-moved",
        ),
        pytest.param(
            _two_jobs_on_two_machines(),
            FractionalAssignment(({0: 1}, {0: 1, 1: 1}), (2, 2)),
            (0, 1),
            RuntimeError,
            "integral job 0 moved off the machine holding its size",
            id="integral-share-short-of-size",
        ),
    ],
)
def test_check_forest_rounding_rejects(instance, assignment, placement, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        _check_forest_rounding(assignment, instance, schedule_of(placement))


def test_check_forest_rounding_catches_a_moved_integral_job_the_reference_missed():
    # job 0 is whole on machine 0; moved to machine 1, where no rounded job
    # lands, it escaped the reference check's growth test
    inst = _two_jobs_on_two_machines()
    assignment = FractionalAssignment(({0: 2}, {0: 2}), (2, 2))
    reference_check_forest_rounding(assignment, inst, schedule_of((1, 0)))
    with pytest.raises(RuntimeError, match="^integral job 0 moved off the machine holding"):
        _check_forest_rounding(assignment, inst, schedule_of((1, 0)))
