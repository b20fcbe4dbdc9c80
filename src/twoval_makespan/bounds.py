"""Exact lift factors, ratio expressions, and per-interval worst cases.

For a normalized instance with sizes {1/alpha, 1} the size-rounding
reductions replace the small size by 1/ceil(alpha) or 1/floor(alpha); the
lift factors f1 = ceil(alpha)/alpha >= 1 and f2 = floor(alpha)/alpha <= 1
measure how far the small size moved. The certified ratio of each branch is
an exact rational expression in alpha; on the interval (n, n+1) one
expression increases and the other decreases, and they balance at the
positive root of a quadratic, which pins the interval's worst case. Both
roots are (p + sqrt(d))/q for integers p, q and a non-square d; each is
reported as the midpoint of the 2^-60-wide dyadic interval holding it, found
by an integer square root, capped to a denominator of at most 10^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import as_rational

# LP integrality-gap constant echoed in reports for very small job sizes;
# never claimed for a produced schedule.
NONCONSTRUCTIVE_BASE = Fraction(5, 3)
NONCONSTRUCTIVE_THRESHOLD = Fraction(1, 5)

ASSIGNMENT_GUARANTEE = Fraction(1883, 1000)
GB_GUARANTEE = Fraction(413, 250)


@dataclass(frozen=True)
class GuaranteeReport:
    """Per-instance bound data attached to a solve."""

    alpha: Fraction
    f1: Fraction
    f2: Fraction
    expr1: Fraction
    expr2: Fraction
    constructive_bound: Fraction
    nonconstructive_note: Fraction | None
    graph_balancing: bool = False


def lift_factors(alpha: object) -> tuple[Fraction, Fraction]:
    """(f1, f2) for alpha >= 1; both equal 1 exactly when alpha is an integer."""
    a = as_rational(alpha)
    if a < 1:
        raise ValueError("alpha must be >= 1")
    return Fraction(math.ceil(a)) / a, Fraction(math.floor(a)) / a


def ratio_expressions(alpha: object) -> tuple[Fraction, Fraction]:
    """Branch bounds for general assignment constraints: (1 + f1 - 1/alpha, 1/f2 + 1 - 1/floor(alpha))."""
    a = as_rational(alpha)
    f1, f2 = lift_factors(a)
    expr1 = 1 + f1 - 1 / a
    expr2 = 1 / f2 + 1 - Fraction(1, math.floor(a))
    return expr1, expr2


def gb_ratio_expressions(alpha: object) -> tuple[Fraction, Fraction]:
    """Branch bounds when every job fits on at most 2 machines: (1 + f1/2, 1/f2 + 1/2)."""
    a = as_rational(alpha)
    f1, f2 = lift_factors(a)
    return 1 + f1 / 2, 1 / f2 + Fraction(1, 2)


def _midpoint(n: int, p: int, q: int, d: int) -> Fraction:
    """Midpoint of the 2^-60-wide dyadic interval in (n, n+1) holding (p + sqrt(d)) / q.

    d is never a perfect square, so the root is irrational and lies strictly
    inside the interval [n + k/2^60, n + (k+1)/2^60] that 60 exact halvings
    of (n, n+1) end on, with k = floor(((p - q*n)*2^60 + sqrt(d*2^120)) / q).
    The square root may be taken as isqrt, since the floor of (A + r)/q for an
    integer A and q > 0 depends only on floor(r).
    """
    k = (((p - q * n) << 60) + math.isqrt(d << 120)) // q
    return n + Fraction(2 * k + 1, 1 << 61)


def worst_case_alpha(n: int) -> Fraction:
    """Root of x^2 - x - n^2 in (n, n+1): where both assignment expressions meet."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _midpoint(n, 1, 2, 1 + 4 * n * n).limit_denominator(10**6)


def gb_worst_case_alpha(n: int) -> Fraction:
    """Root of 2x^2 - n*x - n(n+1) in (n, n+1): where both 2-machine expressions meet."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _midpoint(n, n, 4, 9 * n * n + 8 * n).limit_denominator(10**6)


def guarantee_report(alpha: object, graph_balancing: bool = False) -> GuaranteeReport:
    """The bound report attached to a solve result, built once per exact alpha and flag."""
    return _guarantee_report(as_rational(alpha), graph_balancing)


@lru_cache(maxsize=64)
def _guarantee_report(a: Fraction, graph_balancing: bool) -> GuaranteeReport:
    f1, f2 = lift_factors(a)
    if graph_balancing:
        expr1, expr2 = gb_ratio_expressions(a)
        if a == 1:
            bound = Fraction(1)
        elif a >= 2:
            bound = min(expr1, expr2)
        else:
            bound = GB_GUARANTEE  # covers the racing branches for alpha in (1, 2)
        note = None
    else:
        expr1, expr2 = ratio_expressions(a)
        bound = min(expr1, expr2)
        small = 1 / a
        note = NONCONSTRUCTIVE_BASE + small if small < NONCONSTRUCTIVE_THRESHOLD else None
    return GuaranteeReport(
        alpha=a,
        f1=f1,
        f2=f2,
        expr1=expr1,
        expr2=expr2,
        constructive_bound=bound,
        nonconstructive_note=note,
        graph_balancing=graph_balancing,
    )
