import math
import random
from fractions import Fraction

import pytest

from twoval_makespan.bounds import (
    ASSIGNMENT_GUARANTEE,
    GB_GUARANTEE,
    _guarantee_report,
    _midpoint,
    gb_ratio_expressions,
    gb_worst_case_alpha,
    guarantee_report,
    lift_factors,
    ratio_expressions,
    worst_case_alpha,
)
from twoval_makespan.model import Instance
from twoval_makespan.twovalued import solve_two_valued

from helpers import (
    gb_interval_start_bound, reference_worst_case_midpoint, scan_assignment_grid, scan_gb_grid,
)


def test_lift_factors_examples():
    assert lift_factors(Fraction(5, 2)) == (Fraction(6, 5), Fraction(4, 5))
    assert lift_factors(3) == (Fraction(1), Fraction(1))
    assert lift_factors(Fraction(8, 5)) == (Fraction(5, 4), Fraction(5, 8))


def test_ratio_expressions_five_halves():
    expr1, expr2 = ratio_expressions(Fraction(5, 2))
    assert expr1 == Fraction(9, 5)  # 1 + 6/5 - 2/5
    assert expr2 == Fraction(7, 4)  # 5/4 + 1 - 1/2


def test_expressions_balance_at_quadratic_roots():
    for n in (1, 2, 3, 4):
        root = worst_case_alpha(n)
        assert n < root < n + 1
        expr1, expr2 = ratio_expressions(root)
        assert abs(expr1 - expr2) < Fraction(1, 10**9)
        # at the root of x^2 - x - n^2 both expressions equal the root itself
        if n == 1:
            assert abs(expr1 - root) < Fraction(1, 10**9)


def test_worst_case_roots_match_float_reference():
    for n in (1, 2, 3, 4):
        reference = (1 + math.sqrt(1 + 4 * n * n)) / 2
        assert abs(float(worst_case_alpha(n)) - reference) < 1e-9


def test_worst_case_roots_equal_the_bisection():
    # the integer square root lands on the bisection's last interval, so its
    # midpoint, and the capped root, are the bisection's; a k one dyadic step
    # off moves the midpoint by 2^-60
    rng = random.Random(32)
    ns = list(range(1, 2001)) + [rng.randint(10**6, 10**15) for _ in range(300)]
    for n in ns:
        midpoint = reference_worst_case_midpoint(n, graph_balancing=False)
        assert _midpoint(n, 1, 2, 1 + 4 * n * n) == midpoint
        assert worst_case_alpha(n) == midpoint.limit_denominator(10**6)
        if n >= 2:
            midpoint = reference_worst_case_midpoint(n, graph_balancing=True)
            assert _midpoint(n, n, 4, 9 * n * n + 8 * n) == midpoint
            assert gb_worst_case_alpha(n) == midpoint.limit_denominator(10**6)


def test_worst_case_value_below_guarantee():
    root = worst_case_alpha(4)
    value = min(ratio_expressions(root))
    assert abs(float(root) - 4.5311) < 5e-5
    assert abs(float(value) - 1.8828) < 5e-5
    assert value < ASSIGNMENT_GUARANTEE


def test_gb_expressions_five_halves():
    expr1, expr2 = gb_ratio_expressions(Fraction(5, 2))
    assert expr1 == Fraction(8, 5)  # 1 + (6/5)/2
    assert expr2 == Fraction(7, 4)  # 5/4 + 1/2


def test_gb_expressions_integer_alpha():
    assert gb_ratio_expressions(4) == (Fraction(3, 2), Fraction(3, 2))


def test_gb_worst_case_root():
    root = gb_worst_case_alpha(2)
    assert abs(float(root) - 2.3028) < 5e-5
    expr1, expr2 = gb_ratio_expressions(root)
    assert abs(expr1 - expr2) < Fraction(1, 10**9)
    assert min(expr1, expr2) < GB_GUARANTEE
    assert abs(float(min(expr1, expr2)) - 1.6514) < 5e-5


def test_factor_ordering_and_integer_characterization():
    rng = random.Random("bounds-factors")
    for _ in range(200):
        alpha = Fraction(rng.randint(101, 900), rng.randint(1, 100))
        if alpha <= 1:
            continue
        f1, f2 = lift_factors(alpha)
        assert f1 >= 1 >= f2 > 0
        assert (f1 == 1 and f2 == 1) == (alpha.denominator == 1)


def test_expression_monotonicity_within_interval():
    # on (n, n+1): expr1 = 1 + n/alpha decreases, expr2 = (alpha + n - 1)/n increases,
    # so the two branches balance exactly once, at the quadratic root
    for n in (1, 2, 3):
        lo = Fraction(4 * n + 1, 4)
        hi = Fraction(4 * n + 3, 4)
        assert ratio_expressions(lo)[0] > ratio_expressions(hi)[0]
        assert ratio_expressions(lo)[1] < ratio_expressions(hi)[1]


def test_grid_scan_small_denominator():
    value, argmax = scan_assignment_grid(max_denominator=100)
    assert value < ASSIGNMENT_GUARANTEE
    assert 4 < argmax <= 5  # worst interval is (4, 5)


def test_gb_grid_scan_small_denominator():
    value, argmax = scan_gb_grid(max_denominator=100)
    assert value < GB_GUARANTEE
    assert 2 < argmax < 3


def test_gb_tail_intervals_are_harmless():
    for n in range(6, 2000):
        assert gb_interval_start_bound(n) < GB_GUARANTEE
    assert gb_interval_start_bound(6) == Fraction(19, 12)


def test_guarantee_report_notes():
    report = guarantee_report(Fraction(10))
    assert report.nonconstructive_note == Fraction(5, 3) + Fraction(1, 10)
    assert guarantee_report(Fraction(4)).nonconstructive_note is None
    gb = guarantee_report(Fraction(10, 7), graph_balancing=True)
    assert gb.constructive_bound == GB_GUARANTEE
    assert guarantee_report(Fraction(1), graph_balancing=True).constructive_bound == 1
    assert guarantee_report(Fraction(5, 2)).constructive_bound == Fraction(7, 4)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        lift_factors(Fraction(1, 2))
    with pytest.raises(ValueError):
        worst_case_alpha(0)
    with pytest.raises(ValueError):
        gb_worst_case_alpha(1)


def test_two_solves_at_one_alpha_build_one_report():
    instance = Instance.build(2, [(Fraction(5, 2), [0, 1]), (1, [0]), (1, [1]), (1, [0, 1])])
    _guarantee_report.cache_clear()
    first, second = solve_two_valued(instance), solve_two_valued(instance)
    assert first.report == second.report == _guarantee_report.__wrapped__(Fraction(5, 2), False)
    info = _guarantee_report.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert guarantee_report(2) is guarantee_report(Fraction(2))  # keyed on the exact rational


def test_guarantee_reports_stay_right_past_the_cache_size():
    alphas = [Fraction(n, 7) for n in range(7, 157)]  # 150 distinct values
    for graph_balancing in (False, True):
        for alpha in alphas + alphas[:10] + alphas[-10:]:
            report = guarantee_report(alpha, graph_balancing=graph_balancing)
            assert report == _guarantee_report.__wrapped__(alpha, graph_balancing)
            assert report.alpha == alpha and report.graph_balancing == graph_balancing
    assert _guarantee_report.cache_info().currsize == 64
