import random
from fractions import Fraction

import pytest

from twoval_makespan.flow import FractionalAssignment, min_feasible_T
from twoval_makespan.generator import random_instance
from twoval_makespan.lenstra import lenstra_solve
from twoval_makespan.model import (
    Instance, ScaledInstance, Schedule, machine_loads, makespan, normalize, scale_to_integer,
)
from twoval_makespan.unitk import _check_rounding, match_big_jobs, solve_unit_k

from helpers import enumerate_opt, integer_instance, scale, scale_with_k


def test_match_single_integral_big_job():
    scaled = scale_with_k(1, [(2, [0])], k=2)
    assignment = FractionalAssignment(({0: 2},), (2,))
    assert match_big_jobs(assignment, scaled) == {0: 0}


def test_match_two_split_jobs():
    base = Instance.build(3, [(2, [0, 1]), (2, [1, 2])])
    scaled = ScaledInstance.of(base, 2)
    assignment = FractionalAssignment(({0: 1, 1: 1}, {1: 1, 2: 1}), (2, 2))
    matched = match_big_jobs(assignment, scaled)
    # any of the hand-enumerated matchings is acceptable; ties break low
    assert matched in ({0: 0, 1: 1}, {0: 0, 1: 2}, {0: 1, 1: 2})
    assert matched == {0: 0, 1: 1}  # deterministic tie-breaking


def test_match_always_succeeds_on_extractions():
    rng = random.Random("unitk-hall")
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 10), rng.randint(1, 4), rng.randint(2, 6))
        scaled = scale_to_integer(normalize(inst)[0])
        found = min_feasible_T(scaled)
        if found is None:
            continue
        _, assignment = found
        matched = match_big_jobs(assignment, scaled)  # raises if Hall fails
        assert sorted(matched) == list(scaled.big_jobs())
        assert len(set(matched.values())) == len(matched)


def test_all_small_schedule_hits_estimate_exactly():
    scaled = scale(2, [(1, [0, 1]), (1, [0, 1]), (1, [0])])
    result = solve_unit_k(scaled)
    assert result is not None
    assert makespan(integer_instance(scaled), result.schedule) == result.estimate


def test_k_equal_one_is_exact():
    rng = random.Random("unitk-k1")
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 3), 1)
        scaled = scale_to_integer(normalize(inst)[0])
        result = solve_unit_k(scaled)
        assert result is not None
        base = integer_instance(scaled)
        assert makespan(base, result.schedule) == enumerate_opt(base).opt_makespan


def test_needs_fallback_on_crowded_bigs():
    scaled = scale_with_k(1, [(2, [0]), (2, [0])], k=2)
    assert solve_unit_k(scaled) is None


def test_ratio_against_oracle_with_fallback():
    rng = random.Random("unitk-ratio")
    for _ in range(120):
        k = rng.randint(2, 6)
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), k)
        scaled = scale_to_integer(normalize(inst)[0])
        result = solve_unit_k(scaled)
        base = integer_instance(scaled)
        schedule = result.schedule if result is not None else lenstra_solve(base).schedule
        opt = enumerate_opt(base).opt_makespan
        assert makespan(base, schedule) <= (2 - Fraction(1, k)) * opt


def test_rounding_keeps_one_big_per_machine_and_additive_bound():
    rng = random.Random("unitk-invariants")
    for _ in range(60):
        k = rng.randint(2, 5)
        inst = random_instance(rng, rng.randint(1, 10), rng.randint(1, 4), k)
        scaled = scale_to_integer(normalize(inst)[0])
        result = solve_unit_k(scaled)
        if result is None:
            continue
        loads = machine_loads(integer_instance(scaled), result.schedule)
        bigs = [0] * scaled.machine_count
        for j, machine in enumerate(result.schedule.assignment):
            if scaled.sizes[j] > 1:
                bigs[machine] += 1
        assert max(bigs, default=0) <= 1
        assert all(load <= result.estimate + scaled.k - 1 for load in loads)


def test_small_jobs_keep_flow_assignment():
    scaled = scale(2, [(2, [0, 1]), (1, [0]), (1, [0, 1])])
    result = solve_unit_k(scaled)
    assert result is not None
    for j in (1, 2):  # the small jobs
        assert scaled.sizes[j] == 1
        assert tuple(result.assignment.shares[j]) == (result.schedule.assignment[j],)


def test_the_rounding_check_rejects_a_moved_small_job_and_stacked_big_jobs():
    scaled = scale(2, [(2, [0, 1]), (2, [0, 1]), (1, [0, 1])])
    result = solve_unit_k(scaled)
    assert result is not None
    slack2 = 2 * (scaled.k - 1)
    moved = list(result.schedule.assignment)
    moved[2] = 1 - moved[2]
    with pytest.raises(RuntimeError, match="^small job 2 moved away from its flow assignment$"):
        _check_rounding(scaled, result.assignment, Schedule(tuple(moved)), result.estimate, slack2)
    stacked = (0, 0, result.schedule.assignment[2])
    with pytest.raises(RuntimeError, match="^machine 0 received 2 big jobs$"):
        _check_rounding(scaled, result.assignment, Schedule(stacked), result.estimate, slack2)
