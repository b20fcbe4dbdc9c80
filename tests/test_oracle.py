import random
from fractions import Fraction

import pytest

from twoval_makespan.generator import random_instance
from twoval_makespan.model import Instance, makespan
from twoval_makespan.oracle import BudgetExceeded, brute_force_opt

from helpers import enumerate_opt, schedule_of, verify_ratio


def test_single_job_optimum_is_its_size():
    inst = Instance.build(2, [(Fraction(3, 2), [0, 1])])
    result = brute_force_opt(inst)
    assert result.opt_makespan == Fraction(3, 2)
    assert makespan(inst, result.witness) == result.opt_makespan


def test_pigeonhole_three_unit_jobs():
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1]), (1, [0, 1])])
    assert brute_force_opt(inst).opt_makespan == 2


def test_empty_instance():
    inst = Instance.build(1, [])
    assert brute_force_opt(inst).opt_makespan == 0
    assert enumerate_opt(inst).opt_makespan == 0


def test_pruned_matches_exhaustive():
    rng = random.Random("oracle-cross")
    for _ in range(60):
        alpha = Fraction(rng.randint(2, 9), rng.randint(1, 3))
        inst = random_instance(
            rng, rng.randint(1, 6), rng.randint(1, 3), max(alpha, 1 / alpha)
        )
        pruned = brute_force_opt(inst)
        plain = enumerate_opt(inst)
        assert pruned.opt_makespan == plain.opt_makespan
        assert pruned.witness == plain.witness  # both keep the first optimum in input order


def test_budget_exceeded():
    inst = Instance.build(4, [(1, [0, 1, 2, 3])] * 10)
    with pytest.raises(BudgetExceeded):
        brute_force_opt(inst, node_budget=5)


def test_search_stops_at_the_load_floor():
    # the floor is max(5, ceil(11 / 2)) = 6 = 2 + 2 + 2; the first complete
    # schedule in input order meets it with job 0 on machine 1 still untried,
    # so the search ends after one node per job
    inst = Instance.build(2, [(5, [0, 1]), (2, [1]), (2, [1]), (2, [1])])
    result = brute_force_opt(inst, node_budget=4)
    assert result.opt_makespan == 6
    assert result.witness == schedule_of([0, 1, 1, 1])


def test_search_deeper_than_the_recursion_limit():
    inst = Instance.build(2, [(1, [j % 2]) for j in range(3000)])
    result = brute_force_opt(inst)
    assert result.opt_makespan == 1500
    assert result.witness == schedule_of(j % 2 for j in range(3000))


def test_verify_ratio_optimal_schedule():
    inst = Instance.build(2, [(1, [0]), (1, [1])])
    check = verify_ratio(inst, schedule_of([0, 1]), Fraction(1))
    assert check.passed and check.ratio == 1


def test_verify_ratio_fails_on_doubled_load():
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1])])
    check = verify_ratio(inst, schedule_of([0, 0]), Fraction(3, 2))
    assert not check.passed
    assert check.ratio == 2


def test_oracle_is_a_floor_for_any_valid_schedule():
    rng = random.Random("oracle-floor")
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3), 3)
        opt = brute_force_opt(inst).opt_makespan
        schedule = schedule_of(rng.choice(sorted(allowed)) for allowed in inst.allowed)
        assert makespan(inst, schedule) >= opt


def test_budget_propagates_through_verify_ratio():
    inst = Instance.build(4, [(1, [0, 1, 2, 3])] * 10)
    schedule = schedule_of([0] * 10)
    with pytest.raises(BudgetExceeded):
        verify_ratio(inst, schedule, Fraction(2), node_budget=5)
