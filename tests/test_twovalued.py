import random
from fractions import Fraction
from pathlib import Path

import pytest

from twoval_makespan import cli
from twoval_makespan.bounds import guarantee_report, lift_factors
from twoval_makespan.fileio import format_instance, parse_instance
from twoval_makespan.flow import FractionalAssignment
from twoval_makespan.generator import random_instance
from twoval_makespan.graph_balancing import gb_solve_two_valued
from twoval_makespan.lenstra import lenstra_solve
from twoval_makespan.model import Instance, ScaledInstance, scale_to_integer, size_ratio
from twoval_makespan.oracle import brute_force_opt
from twoval_makespan.twovalued import (
    ADDITIVE,
    SMALL_DOWN,
    SMALL_UP,
    SolveResult,
    UNIFORM,
    _check_lifted_loads,
    pick_best,
    reductions,
    solve_two_valued,
)
from twoval_makespan.unitk import UnitKSolution, solve_unit_k

from helpers import enumerate_opt, schedule_of


def _reduced(inst):
    """The {1, k} instance each branch of the table at the instance's alpha builds."""
    return {name: ScaledInstance.of(inst, k) for name, k in reductions(size_ratio(inst)).items()}


def test_reductions_at_alpha_one_is_the_uniform_branch_alone():
    inst = Instance.build(2, [(Fraction(3, 2), [0]), (Fraction(3, 2), [0, 1])])
    assert list(reductions(size_ratio(inst)).items()) == [(UNIFORM, 1)]
    uniform = _reduced(inst)[UNIFORM]
    assert uniform.sizes == (1, 1) and uniform.k == 1


def test_reductions_five_halves():
    # small size 2/5 of the big one: lowered to 1/3 (k = 3), raised to 1/2 (k = 2)
    inst = Instance.build(2, [(2, [0]), (5, [1])])
    alpha = size_ratio(inst)
    assert list(reductions(alpha).items()) == [(SMALL_DOWN, 3), (SMALL_UP, 2)]  # race order
    reduced = _reduced(inst)
    down, up = reduced[SMALL_DOWN], reduced[SMALL_UP]
    f1, f2 = lift_factors(alpha)
    assert down.sizes == (1, 3) and down.k == 3 and f1 == Fraction(6, 5)
    assert up.sizes == (1, 2) and up.k == 2 and f2 == Fraction(4, 5)
    assert down.allowed == up.allowed == ((0,), (1,))


def test_reductions_at_an_integer_alpha_is_small_up_alone_and_the_identity():
    inst = Instance.build(2, [(Fraction(1, 3), [0]), (1, [1])])
    alpha = size_ratio(inst)
    assert list(reductions(alpha).items()) == [(SMALL_UP, 3)]
    up = _reduced(inst)[SMALL_UP]
    assert up == scale_to_integer(inst) and lift_factors(alpha)[1] == 1


def test_reductions_eight_fifths():
    inst = Instance.build(2, [(Fraction(5, 8), [0]), (1, [1])])
    alpha = size_ratio(inst)
    assert alpha == Fraction(8, 5)
    assert list(reductions(alpha).items()) == [(SMALL_DOWN, 2), (SMALL_UP, 1)]
    reduced = _reduced(inst)
    down, up = reduced[SMALL_DOWN], reduced[SMALL_UP]
    f1, f2 = lift_factors(alpha)
    assert down.sizes == (1, 2) and down.k == 2 and f1 == Fraction(5, 4)
    # raised to the big size itself: one size, k = 1
    assert up == ScaledInstance.of(inst, 1) and up.sizes == (1, 1) and f2 == Fraction(5, 8)


def test_each_entry_point_builds_the_k_of_its_table(monkeypatch, tmp_path):
    built = []
    of = ScaledInstance.of

    def recording(cls, instance, k):
        built.append(k)
        return of(instance, k)

    monkeypatch.setattr(ScaledInstance, "of", classmethod(recording))
    rng = random.Random("twoval-table")
    for alpha in (1, 3, Fraction(5, 2), Fraction(8, 5), Fraction(23, 4)):
        for _ in range(5):
            inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), alpha)
            built.clear()
            solve_two_valued(inst)
            assert built == list(reductions(size_ratio(inst)).values())
    for alpha in (Fraction(3, 2), Fraction(8, 5), Fraction(7, 4)):
        for _ in range(5):
            inst = random_instance(rng, rng.randint(2, 8), rng.randint(2, 4), alpha, gb=True)
            assert 1 < size_ratio(inst) < 2
            built.clear()
            gb_solve_two_valued(inst)
            assert built == [2]  # small-down to k = 2, whatever ceil(alpha) the table would give
    for alpha in (2, 3, 5):
        inst = random_instance(rng, 6, 3, alpha)
        assert size_ratio(inst) == alpha
        path = tmp_path / "unitk.txt"
        path.write_text(format_instance(inst))
        built.clear()
        assert cli.main(["solve", "--mode", "unitk", str(path)]) == 0
        assert built == [alpha]


def test_the_tight_family_meets_the_certified_bound():
    # 3 machines, two size-k jobs and k small ones in this order: the
    # makespan is 2k - 1 against an optimum of k, exactly the bound 2 - 1/k
    for k in (8, 12):
        everywhere = [0, 1, 2]
        jobs = [(1, everywhere), (k, everywhere), (k, everywhere), (1, [0, 2])]
        jobs += [(1, everywhere)] * (k - 4) + [(1, [2]), (1, [0, 2])]
        inst = Instance.build(3, jobs)
        result = solve_two_valued(inst)
        opt = brute_force_opt(inst).opt_makespan
        assert result.branch_makespans == {SMALL_UP: 2 * k - 1, ADDITIVE: 2 * k - 1}
        assert result.chosen == SMALL_UP and result.makespan == 2 * k - 1
        assert opt == k
        assert result.report.constructive_bound == 2 - Fraction(1, k)
        assert result.makespan == result.report.constructive_bound * opt


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


def test_pick_best_keeps_the_first_listed_minimum_and_the_given_report():
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1])])
    stacked, split, swapped = schedule_of([0, 0]), schedule_of([0, 1]), schedule_of([1, 0])
    report = guarantee_report(Fraction(2))
    result = pick_best(inst, report, {"c": stacked, "b": split, "a": swapped})
    makespans = {"c": Fraction(2), "b": Fraction(1), "a": Fraction(1)}
    assert result == SolveResult(split, Fraction(1), report, makespans, "b")
    assert list(result.branch_makespans) == ["c", "b", "a"]  # in the order given


def test_the_clis_one_branch_modes_are_pick_best_on_their_branch():
    # lenstra races the additive branch alone; unitk the flow rounding, or the
    # additive branch when the flow has no estimate
    rng = random.Random("cli-one-branch")
    pinned = sorted(Path(__file__).parent.joinpath("data", "solve_pinned").glob("*.txt"))
    instances = [parse_instance(path.read_text()) for path in pinned]
    instances += [
        random_instance(rng, rng.randint(1, 8), rng.randint(1, 3), rng.choice([2, 3]))
        for _ in range(60)
    ]
    unitk_branches = set()
    for inst in instances:
        alpha = size_ratio(inst)
        report = guarantee_report(alpha)
        additive = {ADDITIVE: lenstra_solve(inst).schedule}
        assert cli._solve(inst, "lenstra") == pick_best(inst, report, additive)
        if alpha.denominator != 1:
            continue
        solution = solve_unit_k(ScaledInstance.of(inst, alpha.numerator))
        branch = additive if solution is None else {"flow": solution.schedule}
        assert cli._solve(inst, "unitk") == pick_best(inst, report, branch)
        unitk_branches.update(branch)
    assert unitk_branches == {"flow", ADDITIVE}


def test_report_matches_alpha():
    inst = Instance.build(2, [(Fraction(2, 5), [0]), (1, [1])])
    result = solve_two_valued(inst)
    assert result.report.alpha == Fraction(5, 2)
    assert result.report.constructive_bound == Fraction(7, 4)


def _doctored(assignment, estimate):
    # the check reads only the schedule and the estimate
    return UnitKSolution(schedule_of(assignment), estimate, FractionalAssignment((), ()))


def test_lifted_load_check_allows_a_big_job_machine_at_the_cap():
    # b = 5, s = 2: at estimate 3 the cap is b + (3 - 1) s = 9, a big job and two smalls
    inst = Instance.build(2, [(5, [0]), (2, [0, 1]), (2, [0, 1]), (2, [0, 1])])
    _check_lifted_loads(inst, _doctored([0, 0, 0, 1], 3))
    # a machine without a big job is not checked
    _check_lifted_loads(inst, _doctored([0, 1, 1, 1], 1))


def test_lifted_load_check_rejects_a_big_job_machine_one_small_above_the_cap():
    inst = Instance.build(2, [(5, [0]), (2, [0, 1]), (2, [0, 1]), (2, [0, 1])])
    # the schedule at the cap above, checked against a cap one s lower
    with pytest.raises(RuntimeError, match="^machine 0 lifted load 9 exceeds 7$"):
        _check_lifted_loads(inst, _doctored([0, 0, 0, 1], 2))
    # or at the same cap with one more small job on the big job's machine
    with pytest.raises(RuntimeError, match="^machine 0 lifted load 11 exceeds 9$"):
        _check_lifted_loads(inst, _doctored([0, 0, 0, 0], 3))
