import random
from fractions import Fraction

import pytest

from twoval_makespan.generator import random_instance
from twoval_makespan.model import Instance, integer_sizes, makespan
from twoval_makespan.oracle import BudgetExceeded, _machine_sets, brute_force_opt

from helpers import (
    enumerate_opt, load_floor, reference_brute_force_opt, schedule_of, verify_ratio,
)

SWEEP_ALPHAS = [Fraction(1), Fraction(3, 2), Fraction(11, 7), Fraction(2), Fraction(7, 3),
                Fraction(5, 2), Fraction(3)]


def nodes_searched(instance: Instance, guess: int) -> int:
    """The nodes `brute_force_opt` searches on a nonempty instance.

    That is the smallest budget it finishes within; `guess` is where the
    search for that budget starts.
    """

    def finishes(budget: int) -> bool:
        try:
            brute_force_opt(instance, budget)
        except BudgetExceeded:
            return False
        return True

    low, high = 0, max(1, guess)  # its first node already exceeds a budget of 0
    while not finishes(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        if finishes(middle):
            high = middle
        else:
            low = middle
    return high


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


def test_pair_confined_work_lifts_the_floor_to_the_optimum():
    # machines 0 and 1 must carry 3 + 3 + 2 + 2 = 10, so one of them carries 5;
    # max(b, ceil(12 / 3)) = 4 is below it. Starting at 5, only the tries that
    # would lift machine 0 or 1 above 5 (or the pair above 10) are pruned
    inst = Instance.build(3, [(3, [0, 1]), (3, [0, 1]), (2, [0, 1]), (2, [0, 1]), (2, [0, 1, 2])])
    _, sizes = integer_sizes(inst)
    assert load_floor(sizes, 3) == 4
    assert _machine_sets(inst, sizes)[0] == 5
    result = brute_force_opt(inst, node_budget=9)
    assert result.opt_makespan == 5
    assert result.witness == schedule_of([0, 1, 0, 1, 2])
    with pytest.raises(BudgetExceeded):
        brute_force_opt(inst, node_budget=8)
    # the search stopped at the load floor proves 5 optimal by exhausting the rest
    assert reference_brute_force_opt(inst)[1] == 30


def test_big_jobs_confined_to_a_pair_lift_the_floor():
    # three big jobs on machines 0 and 1 put two on one machine, 4, while
    # max(b, ceil(7 / 3)) and the pair's work, ceil(6 / 2), give only 3
    inst = Instance.build(3, [(2, [0, 1])] * 3 + [(1, [0, 1, 2])])
    _, sizes = integer_sizes(inst)
    assert _machine_sets(inst, sizes)[0] == 4
    assert brute_force_opt(inst).opt_makespan == 4


def test_every_target_counts_against_one_budget():
    # four unit jobs on machines 0-2 of 4: the floor is 1, where no schedule
    # exists. Exhausting that target takes 3 + 9 + 18 + 18 = 48 nodes, and the
    # search at 2 finds [0, 0, 1, 1] in 6 more
    inst = Instance.build(4, [(1, [0, 1, 2])] * 4)
    _, sizes = integer_sizes(inst)
    assert _machine_sets(inst, sizes)[0] == 1
    result = brute_force_opt(inst, node_budget=54)
    assert result.opt_makespan == 2
    assert result.witness == schedule_of([0, 0, 1, 1])
    with pytest.raises(BudgetExceeded):
        brute_force_opt(inst, node_budget=53)


def test_search_matches_the_reference_on_a_seeded_sweep():
    # the reference is the search stopped at the load floor; both return the
    # first optimum in input order, and the floor is at most the optimum
    rng = random.Random("oracle-sweep")
    reference_nodes = nodes = 0
    for _ in range(2000):
        inst = random_instance(
            rng, rng.randint(1, 11), rng.randint(1, 5), rng.choice(SWEEP_ALPHAS),
            gb=rng.random() < 0.4,
        )
        expected, expected_nodes = reference_brute_force_opt(inst)
        result = brute_force_opt(inst)
        assert (result.opt_makespan, result.witness) == (expected.opt_makespan, expected.witness)
        reference_nodes += expected_nodes
        nodes += nodes_searched(inst, expected_nodes)
        if inst.job_count <= 8:
            denom, sizes = integer_sizes(inst)
            assert _machine_sets(inst, sizes)[0] <= enumerate_opt(inst).opt_makespan * denom
    assert nodes <= 0.75 * reference_nodes


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
