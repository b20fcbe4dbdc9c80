"""Property tests for the feasibility search on both flow networks, which
probes each short probe's min-cut floor next, the integer size scaling,
the instance checks on integer units, the two routes to a {1, k} instance,
the lifted-load cap, the snap to true loads, cycle canceling on integer
shares and the oracle's floors.

They need hypothesis and skip without it. No example database is kept;
hypothesis may still cache source constants under `.hypothesis/`, which git
ignores.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from twoval_makespan.bounds import lift_factors
from twoval_makespan.flow import (
    FractionalAssignment, build_network, max_flow_integral, min_feasible_flow,
)
from twoval_makespan.lenstra import _snap_to_grid, cancel_cycles, round_forest
from twoval_makespan.model import (
    Instance, ScaledInstance, integer_sizes, normalize, scale_to_integer, size_ratio,
)
from twoval_makespan.oracle import _machine_sets, _true_load_at_least, brute_force_opt
from twoval_makespan.twovalued import reductions

from helpers import (
    enumerate_opt, load_floor, reference_violation, support_is_forest, transportation,
)

PROPERTY = settings(database=None, deadline=None)


@st.composite
def crowded_instances(draw):
    """Up to 10 jobs of two sizes on up to 5 machines, and a k for the {1, k} network.

    Each job draws a nonempty set from a drawn prefix of the machines, so the
    sets crowd the low machines and many starts fall short.
    """
    m = draw(st.integers(1, 5))
    pair = draw(st.sampled_from([(1, 1), (3, 1), (Fraction(5, 2), 1), (Fraction(7, 3), 1)]))
    machine_sets = st.integers(1, m).flatmap(
        lambda reach: st.sets(st.integers(0, reach - 1), min_size=1)
    )
    jobs = draw(st.lists(st.tuples(st.sampled_from(pair), machine_sets), max_size=10))
    return Instance.build(m, jobs), draw(st.integers(1, 4))


def _first_feasible(network, bounds):
    """The first bound of `bounds` whose max-flow meets the demand, with that flow, or None."""
    for bound in bounds:
        solution = max_flow_integral(network, bound)
        if solution.value == network.demand:
            return bound, solution
    return None


@settings(PROPERTY, max_examples=300)
@given(crowded_instances())
def test_min_feasible_flow_matches_a_linear_scan(case):
    # from the machine-set floor the search returns the first feasible bound
    # of a scan from 0 and the scan's flow there; with the snap to true loads
    # it returns the first feasible true load of a scan over them
    inst, k = case
    for network in (build_network(ScaledInstance.of(inst, k)), transportation(inst)):
        scan = range(network.demand + 1)
        assert min_feasible_flow(network, network.floor) == _first_feasible(network, scan)
    network = transportation(inst)
    units, counts = network.sizes, range(len(network.sizes) + 1)
    big, small = max(units, default=0), min(units, default=0)
    loads = sorted({a * big + c * small for a in counts for c in counts})
    snap = functools.partial(_snap_to_grid, units)
    found = min_feasible_flow(network, snap(network.floor), snap)
    assert found is not None and found == _first_feasible(network, loads)


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
    snapped = _snap_to_grid(sizes, target)
    assert snapped == min(load for load in loads if load >= target)
    # a snapped load snaps to itself and, as every schedule's load, is a
    # multiple of the sizes' gcd and at most their total: snapping once is enough
    assert _snap_to_grid(sizes, snapped) == snapped
    assert snapped % (math.gcd(*sizes) or 1) == 0 and snapped <= sum(sizes)


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
    (k,) = reductions(alpha).values()  # one branch at an integer alpha: ceil = floor = alpha
    assert via_normalize == ScaledInstance.of(instance, k)
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
