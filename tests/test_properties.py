"""Property tests for the feasibility search, which probes each infeasible
probe's floor next (the point after it, or further), the integer size
scaling, the instance checks on integer units, the two routes to a {1, k}
instance, the lifted-load cap, the snap to true loads, cycle canceling on
integer shares and the oracle's floors.

They need hypothesis and skip without it. No example database is kept;
hypothesis may still cache source constants under `.hypothesis/`, which git
ignores.
"""

import itertools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from twoval_makespan.bounds import lift_factors
from twoval_makespan.flow import Floor, FractionalAssignment, smallest_feasible
from twoval_makespan.lenstra import _snap_to_grid, cancel_cycles, round_forest
from twoval_makespan.model import (
    Instance, ScaledInstance, integer_sizes, normalize, scale_to_integer, size_ratio,
)
from twoval_makespan.oracle import _machine_sets, _true_load_at_least, brute_force_opt
from twoval_makespan.twovalued import SMALL_DOWN, SMALL_UP, build_reduced

from helpers import enumerate_opt, load_floor, reference_violation, support_is_forest

PROPERTY = settings(database=None, deadline=None)


@st.composite
def search_ranges(draw):
    """A range [lo, hi] and a feasibility threshold in it, at an end of it, or above it."""
    lo = draw(st.integers(-50, 50))
    hi = lo + draw(st.one_of(st.just(0), st.integers(0, 300)))
    threshold = draw(st.one_of(st.just(lo), st.just(hi), st.just(hi + 1), st.integers(lo, hi)))
    return lo, hi, threshold


def _check_floor_iteration(lo, hi, answers, found):
    """The probes were lo, then max(last + 1, its floor) each, up to the first witness.

    `answers` holds each probe's (point, answer) in order; `found` is the result.
    """
    points = [point for point, _ in answers]
    assert points[0] == lo and points[-1] <= hi
    for (point, answer), following in zip(answers, points[1:]):
        assert isinstance(answer, Floor) and following == max(point + 1, answer.at)
    point, answer = answers[-1]
    if isinstance(answer, Floor):  # ruled out every point, or none left up to hi
        assert found is None
        assert answer.at is None or max(point + 1, answer.at) > hi
    else:
        assert found == (point, answer)


@PROPERTY
@given(search_ranges())
def test_smallest_feasible_matches_a_linear_scan(case):
    lo, hi, threshold = case
    answers = []

    def probe(point):
        answer = ("witness", point) if point >= threshold else Floor(point + 1)
        answers.append((point, answer))
        return answer

    found = smallest_feasible(lo, hi, probe)
    _check_floor_iteration(lo, hi, answers, found)
    expected = next((point for point in range(lo, hi + 1) if point >= threshold), None)
    if expected is None:
        assert found is None
    else:
        assert found == (expected, ("witness", expected))


@PROPERTY
@given(search_ranges(), st.data())
def test_smallest_feasible_with_floors_matches_a_linear_scan(case, data):
    # an infeasible probe at t may report any valid floor: one in (t, threshold],
    # or "never" when nothing in the range is feasible, or just t + 1
    lo, hi, threshold = case
    answers = []

    def probe(point):
        if point >= threshold:
            answer = ("witness", point)
        else:
            within = st.builds(Floor, st.integers(point + 1, threshold))
            floors = [st.just(Floor(point + 1)), within]
            if threshold > hi:
                floors.append(st.just(Floor(None)))
            answer = data.draw(st.one_of(floors))
        answers.append((point, answer))
        return answer

    found = smallest_feasible(lo, hi, probe)
    _check_floor_iteration(lo, hi, answers, found)
    expected = next((point for point in range(lo, hi + 1) if point >= threshold), None)
    if expected is None:
        assert found is None
    else:
        assert found == (expected, ("witness", expected))


@st.composite
def stepped_searches(draw):
    """A start lo, a nondecreasing value per point from lo on, and a threshold on the values.

    A point is feasible when its value reaches the threshold, and its witness
    is its value, as an additive grid index is feasible when its snapped load is.
    """
    lo = draw(st.integers(-50, 50))
    values = sorted(draw(st.lists(st.integers(0, 8), min_size=1, max_size=120)))
    return lo, values, draw(st.integers(0, 9))


@settings(PROPERTY, max_examples=500)
@given(stepped_searches(), st.data())
def test_smallest_feasible_with_floors_past_equal_witnesses(case, data):
    # a floor may pass feasible points, up to the last one holding the best witness
    lo, values, threshold = case
    hi = lo + len(values) - 1
    best = next((value for value in values if value >= threshold), None)
    holding = [lo + k for k, value in enumerate(values) if value == best]
    answers = []

    def probe(point):
        if values[point - lo] >= threshold:
            answer = values[point - lo]
        else:
            if best is None:
                above = st.builds(Floor, st.integers(point + 1, hi + 5))
                floors = [st.just(Floor(point + 1)), st.just(Floor(None)), above]
            else:  # the highest floor allowed is drawn often: it passes the most points
                within = st.builds(Floor, st.integers(point + 1, holding[-1]))
                floors = [st.just(Floor(point + 1)), st.just(Floor(holding[-1])), within]
            answer = data.draw(st.one_of(floors))
        answers.append((point, answer))
        return answer

    found = smallest_feasible(lo, hi, probe)
    _check_floor_iteration(lo, hi, answers, found)
    if best is None:
        assert found is None
    else:
        assert found is not None and found[1] == best and found[0] in holding


@st.composite
def sizes_and_target(draw):
    """Up to 8 integer job sizes drawn from two values, and a target up to their total."""
    pair = draw(st.tuples(st.integers(1, 20), st.integers(1, 20)))
    sizes = draw(st.lists(st.sampled_from(pair), max_size=8))
    return sizes, draw(st.integers(0, sum(sizes)))


@PROPERTY
@given(sizes_and_target())
def test_snap_is_the_smallest_true_load_at_or_above_the_target(case):
    sizes, target = case
    units = sorted(set(sizes))
    n = len(sizes)
    loads = {
        sum(count * unit for count, unit in zip(counts, units))
        for counts in itertools.product(range(n + 1), repeat=len(units))
    }
    assert _snap_to_grid(sizes, target) == min(load for load in loads if load >= target)


SIZES = st.fractions(min_value=Fraction(1, 10), max_value=50, max_denominator=10)


@PROPERTY
@given(st.tuples(SIZES, SIZES).flatmap(lambda pair: st.lists(st.sampled_from(pair), max_size=6)))
def test_integer_sizes_uses_the_smallest_clearing_factor(sizes):
    # an instance has at most two sizes, so the draw takes them from a pair
    denom, scaled = integer_sizes(Instance.build(1, [(size, [0]) for size in sizes]))
    assert all(type(value) is int for value in scaled)
    assert [Fraction(value, denom) for value in scaled] == sizes
    assert all(any((size * d).denominator != 1 for size in sizes) for d in range(1, denom))


FLAWS = ("no machines", "nonpositive sizes", "a third size", "bad machine sets")


@st.composite
def job_lists(draw):
    """Up to 6 jobs on up to 3 machines, each list allowed a drawn subset of FLAWS.

    A nonpositive size is 0 or negative; a bad machine set may be empty or
    hold indices outside 0..m-1. Lists allowed a flaw need not show it.
    """
    flaws = draw(st.sets(st.sampled_from(FLAWS)))
    first, second = draw(SIZES), draw(SIZES)
    machines = draw(st.integers(0 if "no machines" in flaws else 1, 3))
    sizes = [first, second]
    if "nonpositive sizes" in flaws:
        sizes += [Fraction(0), -first]
    if "a third size" in flaws:
        sizes.append(first + second)  # differs from both
    if "bad machine sets" in flaws or machines == 0:
        machine_set = st.sets(st.integers(-1, machines), max_size=3)
    else:
        machine_set = st.sets(st.integers(0, machines - 1), min_size=1)
    return machines, draw(st.lists(st.tuples(st.sampled_from(sizes), machine_set), max_size=6))


@settings(PROPERTY, max_examples=400)
@given(job_lists())
@example((2, [(Fraction(1), {0}), (Fraction(0), {1})]))  # the boundary of "nonpositive"
@example((2, [(Fraction(1), {0}), (Fraction(1, 2), {1}), (Fraction(3, 2), {0, 1})]))
def test_instance_checks_on_integer_units_match_the_per_job_fraction_checks(case):
    machines, jobs = case
    # `build` makes the columns tuples and each machine set a frozenset
    sizes = tuple(size for size, _ in jobs)
    violation = reference_violation(machines, sizes, tuple(frozenset(a) for _, a in jobs))
    if violation is not None:
        with pytest.raises(ValueError) as info:
            Instance.build(machines, jobs)
        assert (ValueError, str(info.value)) == violation
        return
    instance = Instance.build(machines, jobs)
    distinct = instance.distinct_sizes()
    assert distinct == tuple(sorted(set(sizes)))
    assert all(type(size) is Fraction for size in distinct)
    denom = math.lcm(*(size.denominator for size in sizes))
    assert integer_sizes(instance) == (denom, tuple(int(size * denom) for size in sizes))


@st.composite
def integer_ratio_instances(draw):
    """Up to 8 jobs on up to 4 machines, sized s or alpha * s for a rational s, integer alpha."""
    small = draw(SIZES)
    sizes = (small, small * draw(st.integers(1, 6)))
    machines = draw(st.integers(1, 4))
    job = st.tuples(st.sampled_from(sizes), st.sets(st.integers(0, machines - 1), min_size=1))
    return Instance.build(machines, draw(st.lists(job, max_size=8)))


@PROPERTY
@given(integer_ratio_instances())
def test_both_routes_to_a_unit_k_instance_agree(instance):
    # the normalized route (the benchmark's unitk operation) and the solvers' reduction
    alpha = size_ratio(instance)
    via_normalize = scale_to_integer(normalize(instance)[0])
    assert via_normalize == build_reduced(instance, alpha, SMALL_UP)
    assert via_normalize == build_reduced(instance, alpha, SMALL_DOWN)
    assert via_normalize.k == alpha
    if alpha == 1:
        assert via_normalize == ScaledInstance.of(instance, 1)


@PROPERTY
@given(SIZES, SIZES, st.integers(1, 200))
def test_lifted_load_cap_in_original_units(first, second, estimate):
    # b + (T - 1) s, the small-down check's cap, is b (1 + (T1 - 1/ceil(alpha)) f1)
    # with T1 = T / ceil(alpha), the {1, k} estimate in units of the big size
    small, big = sorted((first, second))
    alpha = big / small
    ceil_a = math.ceil(alpha)
    f1 = lift_factors(alpha)[0]
    normalized = big * (1 + (Fraction(estimate, ceil_a) - Fraction(1, ceil_a)) * f1)
    assert big + (estimate - 1) * small == normalized


@st.composite
def share_supports(draw):
    """Integer shares of up to 8 jobs on up to 5 machines; supports are dense, so cycles abound."""
    machines = draw(st.integers(1, 5))
    machine = st.integers(0, machines - 1)
    jobs = draw(st.integers(0, 8))
    shares = [
        {i: draw(st.integers(1, 6)) for i in draw(st.lists(machine, min_size=1, unique=True))}
        for _ in range(jobs)
    ]
    return machines, shares


@PROPERTY
@given(share_supports())
def test_cancel_cycles_keeps_totals_and_loads_and_leaves_a_forest(case):
    machines, shares = case
    sizes = tuple(sum(job_shares.values()) for job_shares in shares)
    assignment = FractionalAssignment(tuple(shares), sizes)

    canceled = cancel_cycles(assignment)

    def unit_loads(result):
        loads = [0] * machines
        for job_shares in result.shares:
            for i, share in job_shares.items():
                loads[i] += share
        return loads

    assert canceled.sizes == sizes
    assert [sum(job_shares.values()) for job_shares in canceled.shares] == list(sizes)
    assert unit_loads(canceled) == unit_loads(assignment)
    assert all(share > 0 for job_shares in canceled.shares for share in job_shares.values())
    assert all(set(after) <= set(before) for after, before in zip(canceled.shares, shares))
    assert support_is_forest(canceled)

    # round_forest reads only the machine sets, so unit sizes keep the instance valid
    instance = Instance.build(machines, [(1, job_shares) for job_shares in shares])
    schedule = round_forest(canceled, instance)
    assert all(machine in job_shares for machine, job_shares in zip(schedule.assignment, shares))


@st.composite
def two_size_instances(draw):
    """Up to 7 jobs on up to 3 machines, each sized one of two integers."""
    pair = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    machines = draw(st.integers(1, 3))
    job = st.tuples(st.sampled_from(pair), st.sets(st.integers(0, machines - 1), min_size=1))
    return Instance.build(machines, draw(st.lists(job, max_size=7)))


@PROPERTY
@given(two_size_instances())
def test_the_search_stopped_at_the_floor_is_the_exhaustive_optimum(instance):
    pruned = brute_force_opt(instance)
    plain = enumerate_opt(instance)
    assert (pruned.opt_makespan, pruned.witness) == (plain.opt_makespan, plain.witness)
    denom, sizes = integer_sizes(instance)
    if not sizes:
        return
    floor = _machine_sets(instance, sizes)[0]
    assert load_floor(sizes, instance.machine_count) <= floor <= plain.opt_makespan * denom
    target = max(max(sizes), -(-sum(sizes) // instance.machine_count))
    units = sorted(set(sizes))
    loads = {
        sum(count * unit for count, unit in zip(counts, units))
        for counts in itertools.product(*(range(sizes.count(unit) + 1) for unit in units))
    }
    assert _true_load_at_least(target, sizes) == min(load for load in loads if load >= target)
