"""Property tests for the integer size scaling and the snap to true loads.

They need hypothesis and skip without it. No example database is kept;
hypothesis may still cache source constants under `.hypothesis/`, which git
ignores.
"""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from twoval_makespan.lenstra import _snap_to_grid
from twoval_makespan.model import Instance, integer_sizes

PROPERTY = settings(database=None, deadline=None)


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
@given(st.lists(SIZES, max_size=6))
def test_integer_sizes_uses_the_smallest_clearing_factor(sizes):
    denom, scaled = integer_sizes(Instance.build(1, [(size, [0]) for size in sizes]))
    assert all(type(value) is int for value in scaled)
    assert [Fraction(value, denom) for value in scaled] == sizes
    assert all(any((size * d).denominator != 1 for size in sizes) for d in range(1, denom))
