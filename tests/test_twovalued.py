import random
from fractions import Fraction

from twoval_makespan.bounds import lift_factors
from twoval_makespan.generator import random_instance
from twoval_makespan.model import Instance, normalize
from twoval_makespan.oracle import enumerate_opt
from twoval_makespan.twovalued import (
    ADDITIVE,
    SMALL_DOWN,
    SMALL_UP,
    build_reduced,
    solve_two_valued,
)


def test_build_reduced_five_halves():
    inst = Instance.build(2, [(Fraction(2, 5), [0]), (1, [1])])
    norm, alpha = normalize(inst)
    down = build_reduced(norm, alpha, SMALL_DOWN)
    up = build_reduced(norm, alpha, SMALL_UP)
    f1, f2 = lift_factors(alpha)
    assert down.jobs[0].size == Fraction(1, 3) and f1 == Fraction(6, 5)
    assert up.jobs[0].size == Fraction(1, 2) and f2 == Fraction(4, 5)


def test_build_reduced_integer_alpha_is_identity():
    inst = Instance.build(2, [(Fraction(1, 3), [0]), (1, [1])])
    norm, alpha = normalize(inst)
    up = build_reduced(norm, alpha, SMALL_UP)
    assert up == norm and lift_factors(alpha)[1] == 1


def test_build_reduced_eight_fifths():
    inst = Instance.build(2, [(Fraction(5, 8), [0]), (1, [1])])
    norm, alpha = normalize(inst)
    assert alpha == Fraction(8, 5)
    down = build_reduced(norm, alpha, SMALL_DOWN)
    up = build_reduced(norm, alpha, SMALL_UP)
    f1, f2 = lift_factors(alpha)
    assert down.jobs[0].size == Fraction(1, 2) and f1 == Fraction(5, 4)
    assert up.jobs[0].size == Fraction(1) and f2 == Fraction(5, 8)


def test_solve_alpha_two_within_three_halves():
    rng = random.Random("twoval-a2")
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), 2)
        result = solve_two_valued(inst)
        opt = enumerate_opt(inst).opt_makespan
        assert result.makespan <= Fraction(3, 2) * opt


def test_solve_all_small_is_optimal():
    rng = random.Random("twoval-small")
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), 1)
        result = solve_two_valued(inst)
        assert result.makespan == enumerate_opt(inst).opt_makespan


def test_solve_respects_applicable_bound():
    rng = random.Random("twoval-bound")
    for _ in range(80):
        alpha = Fraction(rng.randint(3, 12), rng.randint(1, 4))
        if alpha <= 1:
            continue
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), alpha)
        result = solve_two_valued(inst)
        opt = enumerate_opt(inst).opt_makespan
        big = inst.distinct_sizes()[-1]
        bound = Fraction(3, 2) if opt >= 2 * big else result.report.constructive_bound
        assert result.makespan <= bound * opt


def test_best_of_branches_is_argmin():
    rng = random.Random("twoval-argmin")
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), Fraction(5, 2))
        result = solve_two_valued(inst)
        assert result.makespan == min(result.branch_makespans.values())
        assert result.branch_makespans[result.chosen] == result.makespan
        assert ADDITIVE in result.branch_makespans  # the additive branch always runs


def test_report_matches_alpha():
    inst = Instance.build(2, [(Fraction(2, 5), [0]), (1, [1])])
    result = solve_two_valued(inst)
    assert result.report.alpha == Fraction(5, 2)
    assert result.report.constructive_bound == Fraction(7, 4)
