import random
import time
import tracemalloc
from enum import IntEnum
from fractions import Fraction

import pytest

from twoval_makespan.fileio import format_instance, parse_instance
from twoval_makespan.generator import random_instance
from twoval_makespan.model import (
    Instance,
    ScaledInstance,
    integer_sizes,
    is_graph_balancing,
    machine_loads,
    makespan,
    normalize,
    scale_to_integer,
    size_ratio,
)

from helpers import reference_violation, schedule_of


def test_validate_minimal_instance():
    inst = Instance.build(1, [(1, [0])])
    assert inst.machine_count == 1 and inst.allowed == ((0,),)


def test_validate_empty_allowed_set():
    with pytest.raises(ValueError, match="^invalid instance: job 0: empty allowed set$"):
        Instance.build(2, [(1, [])])


def test_validate_three_sizes():
    with pytest.raises(ValueError, match="^invalid instance: more than two size values$"):
        Instance.build(2, [(1, [0]), (2, [1]), (3, [0])])


def test_validate_machine_count_and_range():
    with pytest.raises(ValueError, match="^invalid instance: machine count must be positive$"):
        Instance.build(0, [])
    with pytest.raises(ValueError, match="^invalid instance: job 0: machine index out of range$"):
        Instance.build(2, [(1, [2])])
    with pytest.raises(ValueError, match="^invalid instance: job 0: nonpositive size$"):
        Instance.build(2, [(0, [0])])


def test_validate_names_the_first_violation_in_job_order():
    # per job: size, then an empty set, then the range; the size count last
    jobs = [(1, [0]), (2, [5]), (0, [0]), (3, [])]
    with pytest.raises(ValueError, match="^invalid instance: job 1: machine index out of range$"):
        Instance.build(2, jobs)
    with pytest.raises(ValueError, match="^invalid instance: job 2: nonpositive size$"):
        Instance.build(6, jobs)
    # the plain constructor checks as well as `build`
    with pytest.raises(ValueError, match="^invalid instance: job 0: empty allowed set$"):
        Instance(1, (Fraction(1),), (frozenset(),))


def test_makespan_sum_of_sizes():
    inst = Instance.build(2, [(1, [0, 1]), (1, [0, 1])])
    assert makespan(inst, schedule_of([0, 0])) == 2


def test_makespan_max_of_loads():
    inst = Instance.build(2, [(2, [0]), (1, [1])])
    assert makespan(inst, schedule_of([0, 1])) == 2


def test_makespan_empty_instance():
    inst = Instance.build(3, [])
    assert makespan(inst, schedule_of([])) == 0


def test_makespan_rejects_disallowed_assignment():
    inst = Instance.build(2, [(1, [0])])
    with pytest.raises(ValueError):
        makespan(inst, schedule_of([1]))


def test_makespan_rejects_a_schedule_of_the_wrong_length():
    inst = Instance.build(2, [(1, [0]), (1, [1]), (1, [0, 1])])
    with pytest.raises(ValueError, match="^schedule covers 2 jobs, instance has 3$"):
        makespan(inst, schedule_of([0, 1]))


def test_normalize_integer_ratio():
    inst = Instance.build(2, [(3, [0]), (6, [1])])
    norm, alpha = normalize(inst)
    assert alpha == 2
    assert norm.distinct_sizes() == (Fraction(1, 2), Fraction(1))


def test_normalize_non_integer_ratio():
    inst = Instance.build(2, [(2, [0]), (5, [1])])
    norm, alpha = normalize(inst)
    assert alpha == Fraction(5, 2)
    assert norm.distinct_sizes() == (Fraction(2, 5), Fraction(1))


def test_normalize_single_size():
    inst = Instance.build(1, [(4, [0])])
    norm, alpha = normalize(inst)
    assert alpha == 1
    assert norm.distinct_sizes() == (Fraction(1),)


def test_scale_to_integer_unit_fraction():
    inst = Instance.build(2, [(Fraction(1, 3), [0]), (1, [1])])
    scaled = scale_to_integer(inst)
    assert scaled == ScaledInstance(2, ((0,), (1,)), (1, 3), 3)


def test_scale_to_integer_identity():
    inst = Instance.build(1, [(1, [0])])
    scaled = scale_to_integer(inst)
    assert scaled.k == 1 and scaled.sizes == (1,)


def test_normalize_rejects_a_nonpositive_small_size():
    # normalize and size_ratio divide by the small size; an instance with a
    # small size of 0 or less cannot be built, so neither can be reached with one
    for small in (0, -1):
        with pytest.raises(ValueError, match="^invalid instance: job 0: nonpositive size$"):
            Instance.build(1, [(small, [0]), (1, [0])])


def test_size_ratio():
    assert size_ratio(Instance.build(2, [(2, [0]), (5, [1]), (2, [1])])) == Fraction(5, 2)
    assert size_ratio(Instance.build(1, [(4, [0])])) == 1
    assert size_ratio(Instance.build(1, [])) == 1


def test_scaled_instance_gives_the_biggest_jobs_size_k():
    big, small = Fraction(7, 3), Fraction(1, 2)
    inst = Instance.build(3, [(big, [0, 2]), (small, [1]), (big, [1])])
    scaled = ScaledInstance.of(inst, 4)
    assert scaled.sizes == (4, 1, 4) and scaled.k == 4 and scaled.machine_count == 3
    assert scaled.allowed == ((0, 2), (1,), (1,))
    assert ScaledInstance.of(inst, 1).sizes == (1, 1, 1)
    assert ScaledInstance.of(Instance.build(2, []), 3).sizes == ()


def test_scale_to_integer_rejects_non_integer_ratio():
    inst = Instance.build(2, [(Fraction(2, 5), [0]), (1, [1])])
    with pytest.raises(ValueError, match="non-integer ratio"):
        scale_to_integer(inst)


def test_scale_to_integer_rejects_an_instance_that_is_not_normalized():
    inst = Instance.build(2, [(1, [0]), (3, [1])])
    with pytest.raises(ValueError, match="^instance is not normalized: big size must be 1$"):
        scale_to_integer(inst)


@pytest.mark.parametrize("jobs, machines", [(-1, 2), (3, 0)])
def test_random_instance_rejects_negative_jobs_or_no_machines(jobs, machines):
    with pytest.raises(ValueError, match="^need jobs >= 0 and machines >= 1$"):
        random_instance(random.Random(0), jobs, machines, 2)


def test_build_rejects_a_string_size():
    # sizes are parsed in fileio; a string is no rational, whatever it spells
    with pytest.raises(TypeError, match="cannot interpret '0.5' as an exact rational"):
        Instance.build(1, [("0.5", [0])])


def test_constructor_rejects_a_float_size():
    # a float is no exact rational: the plain constructor raises as `build` does,
    # instead of building an instance the solvers cannot scale
    with pytest.raises(TypeError, match="^cannot interpret 0.5 as an exact rational$"):
        Instance(1, (0.5,), (frozenset({0}),))
    with pytest.raises(TypeError, match="^cannot interpret 0.5 as an exact rational$"):
        Instance(2, (Fraction(1), 0.5), (frozenset({0}), frozenset({1})))


def test_validate_rejects_a_machine_index_that_is_no_int():
    # a float index used to pass the range check and crash every solver on
    # list indexing; 1.0 == 1, so it must be caught also behind an int 1
    out_of_range = "^invalid instance: job {}: machine index out of range$"
    for allowed in ([1.0], [0, 1.0], [Fraction(1)], ["0"], [None]):
        with pytest.raises(ValueError, match=out_of_range.format(0)):
            Instance.build(2, [(1, allowed), (Fraction(1, 2), [0])])
    with pytest.raises(ValueError, match=out_of_range.format(1)):
        Instance.build(2, [(1, [1]), (Fraction(1, 2), [1.0])])
    with pytest.raises(TypeError, match="^machine count 2.0 is not an int$"):
        Instance.build(2.0, [(1, [0])])
    # a bool is an int, as it is for sizes, and is stored as the plain int
    allowed = Instance.build(2, [(1, [True]), (True, [False])]).allowed
    assert allowed == ((1,), (0,))
    assert all(type(i) is int for machines in allowed for i in machines)


def test_constructor_rejects_columns_that_are_not_tuples():
    # list columns used to build an instance that `hash()` rejected and that
    # could be changed through its lists
    with pytest.raises(TypeError, match="^the sizes and allowed columns must be tuples$"):
        Instance(2, [Fraction(1)], [[0]])
    with pytest.raises(TypeError, match="^the sizes and allowed columns must be tuples$"):
        Instance(2, (Fraction(1),), [frozenset({0})])
    built = Instance.build(2, [(1, [0]), (Fraction(1, 2), [0, 1])])
    parsed = parse_instance(format_instance(built))
    normalized, _ = normalize(built)
    assert hash(parsed) == hash(built)
    assert isinstance(hash(normalized), int)


class _Machine(IntEnum):
    FIRST = 0
    SECOND = 1


class _MachineSet(frozenset):
    pass


def test_the_job_loop_accepts_what_the_column_passes_leave_to_it():
    # the whole-column type pass compares exact types, so an IntEnum index
    # falls through to the per-job loop, which accepts it; every row, a
    # frozenset subclass too, is stored as a tuple of plain ints
    one, two = Fraction(1), Fraction(2)
    allowed = (frozenset({_Machine.SECOND}), _MachineSet({0, 1}), frozenset({0}))
    inst = Instance(2, (one, two, one), allowed)
    assert inst.allowed == ((1,), (0, 1), (0,))
    assert all(type(machines) is tuple for machines in inst.allowed)
    assert all(type(i) is int for machines in inst.allowed for i in machines)
    with pytest.raises(ValueError, match="^invalid instance: job 1: machine index out of range$"):
        Instance(1, (one, two), (_MachineSet({0}), frozenset({_Machine.SECOND})))
    # a set row is a machine set like any other: the first violation is a later job's
    with pytest.raises(ValueError, match="^invalid instance: job 2: nonpositive size$"):
        Instance(2, (one, two, -one), (_MachineSet({1}), {0}, frozenset({5})))


def _column_case(rng):
    """Columns with a few drawn flaws each: sizes, then one allowed set per job."""
    machines = rng.choice([-1, 0, 1, 1, 2, 3, 4, 4])
    pool = [Fraction(1), Fraction(3, 2)]
    if rng.random() < 0.3:
        pool.append(Fraction(1, 2))  # a third size
    if rng.random() < 0.2:
        pool.append(rng.choice([0, Fraction(0), Fraction(-1, 2), -1]))  # nonpositive
    if rng.random() < 0.1:
        pool.append(rng.choice([1.0, "1", None]))  # no rational; 1.0 == Fraction(1)
    indices = list(range(max(machines, 0)))
    if rng.random() < 0.3:
        indices += rng.sample([-1, machines, machines + 1, 1.0, 0.0, "0", Fraction(1), True], 2)
    sizes = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
    allowed = []
    for _ in sizes:
        picked = rng.sample(indices, min(len(indices), rng.randint(0, 3))) if indices else []
        allowed.append(frozenset(picked if picked or rng.random() < 0.2 else indices[:1]))
    if rng.random() < 0.02:
        allowed.append(frozenset({0}))  # columns of different lengths
    if allowed and rng.random() < 0.05:  # a machine set as a set, or a list with repeats
        row = list(allowed[-1])
        allowed[-1] = rng.choice([set(row), row[::-1] + row])
    sizes, allowed = tuple(sizes), tuple(allowed)
    if rng.random() < 0.05:  # a column that is no tuple
        sizes, allowed = rng.choice([(list(sizes), allowed), (sizes, list(allowed))])
    return machines, sizes, allowed


def test_column_validator_names_the_reference_loops_first_violation():
    rng = random.Random("model-column-validator")
    seen: dict[str, int] = {}
    for _ in range(3000):
        machines, sizes, allowed = _column_case(rng)
        expected = reference_violation(machines, sizes, allowed)
        if expected is None:
            inst = Instance(machines, sizes, allowed)
            rows = tuple(tuple(sorted(map(int, set(machines)))) for machines in allowed)
            assert inst.sizes == sizes and inst.allowed == rows
            assert all(type(i) is int for machines in inst.allowed for i in machines)
            kind = "valid"
        else:
            with pytest.raises(expected[0]) as info:
                Instance(machines, sizes, allowed)
            assert type(info.value) is expected[0] and str(info.value) == expected[1]
            kind = expected[1].split(": ")[-1] if expected[0] is ValueError else "TypeError"
            kind = "different lengths" if kind.endswith("allowed sets") else kind
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["valid"] >= 500, seen
    for kind in (
        "machine count must be positive", "nonpositive size", "empty allowed set",
        "machine index out of range", "more than two size values", "TypeError",
        "different lengths",
    ):
        assert seen[kind] >= 20, seen


def test_validation_does_not_depend_on_the_machine_count():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        inst = Instance.build(10**9, [(1, [0, 1]), (2, [1])])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.machine_count == 10**9 and inst.distinct_sizes() == (1, 2)
    assert elapsed < 1 and peak < 2**20
    with pytest.raises(ValueError, match="^invalid instance: job 1: machine index out of range$"):
        Instance.build(10**9, [(1, [0]), (2, [10**9])])


def test_each_row_is_stored_as_its_increasing_tuple_and_derived_instances_share_it():
    # the constructor is the one place a job's machines are ordered (a
    # frozenset of small ints iterates in increasing order, but {9, 1} does
    # not); derived instances share its column
    forms = (
        lambda row: row, lambda row: row[::-1] + row, set, frozenset,
        lambda row: (i for i in reversed(row)),
    )
    sizes, rows = (Fraction(1, 3), 1, 1), ([9, 1], [1], [0, 1, 2, 9])
    for form in forms:
        inst = Instance.build(10, zip(sizes, map(form, rows)))
        assert inst.allowed == ((1, 9), (1,), (0, 1, 2, 9))
        assert all(type(machines) is tuple for machines in inst.allowed)
        assert Instance(10, inst.sizes, tuple(map(form, rows))) == inst
        assert normalize(inst)[0].allowed is inst.allowed
        assert all(ScaledInstance.of(inst, k).allowed is inst.allowed for k in range(1, 5))
    # a row is checked as a set before it is sorted: a string beside an int is
    # out of range, not a failed comparison
    out_of_range = "^invalid instance: job 0: machine index out of range$"
    for row in (["0", 1], [1, "0"], {"0", 1}):
        with pytest.raises(ValueError, match=out_of_range):
            Instance.build(2, [(1, row)])


def test_integer_sizes_in_job_order():
    inst = Instance.build(2, [(Fraction(7, 3), [0]), (Fraction(1, 2), [1]), (Fraction(7, 3), [0])])
    assert integer_sizes(inst) == (6, (14, 3, 14))
    assert integer_sizes(Instance.build(2, [])) == (1, ())


def test_size_facts_are_computed_once():
    inst = Instance.build(2, [(Fraction(7, 3), [0]), (Fraction(1, 2), [1])])
    assert integer_sizes(inst) is integer_sizes(inst)
    assert inst.distinct_sizes() is inst.distinct_sizes()
    # the cache stays out of equality and hashing
    fresh = Instance.build(2, [(Fraction(7, 3), [0]), (Fraction(1, 2), [1])])
    assert fresh == inst and hash(fresh) == hash(inst)


def test_big_small_classification():
    scaled = scale_to_integer(Instance.build(2, [(Fraction(1, 2), [0]), (1, [1])]))
    assert scaled.big_jobs() == (1,) and scaled.sizes[0] == 1
    # single-size instances have no big jobs: k == 1
    uniform = scale_to_integer(Instance.build(2, [(1, [0]), (1, [1])]))
    assert uniform.k == 1 and uniform.big_jobs() == ()


def _random_instance(rng):
    machines = rng.randint(1, 4)
    sizes = [Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))]
    jobs = []
    for _ in range(rng.randint(1, 8)):
        size = rng.choice(sizes)
        allowed = sorted(rng.sample(range(machines), rng.randint(1, machines)))
        jobs.append((size, allowed))
    return Instance.build(machines, jobs)


def _random_schedule(rng, inst):
    return schedule_of(rng.choice(sorted(allowed)) for allowed in inst.allowed)


def test_normalize_preserves_makespan_up_to_big_size():
    rng = random.Random("model-normalize")
    for _ in range(50):
        inst = _random_instance(rng)
        schedule = _random_schedule(rng, inst)
        norm, _ = normalize(inst)
        big = inst.distinct_sizes()[-1]
        assert makespan(norm, schedule) * big == makespan(inst, schedule)


def test_normalize_matches_a_checked_instance_of_the_same_jobs():
    # normalize derives the result's integer units from the two size values
    # instead of checking and scaling every job again
    rng = random.Random("model-normalize-units")
    for case in range(300):
        machines = rng.randint(1, 4)
        sizes = [Fraction(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(2)]
        jobs = [
            (rng.choice(sizes), rng.sample(range(machines), rng.randint(1, machines)))
            for _ in range(rng.randint(0 if case < 10 else 1, 8))
        ]
        norm, alpha = normalize(Instance.build(machines, jobs))
        checked = Instance(norm.machine_count, norm.sizes, norm.allowed)
        assert norm == checked and hash(norm) == hash(checked)
        assert integer_sizes(norm) == integer_sizes(checked)
        assert norm.distinct_sizes() == checked.distinct_sizes()


def test_scale_round_trip():
    rng = random.Random("model-scale")
    for _ in range(50):
        q = rng.randint(1, 6)
        machines = rng.randint(1, 3)
        jobs = [
            (Fraction(1, q) if rng.random() < 0.5 else Fraction(1), [rng.randrange(machines)])
            for _ in range(rng.randint(1, 6))
        ]
        jobs.append((Fraction(1), [0]))  # keep the instance normalized (big size present)
        inst = Instance.build(machines, jobs)
        scaled = scale_to_integer(inst)
        for j, (size, allowed) in enumerate(zip(inst.sizes, inst.allowed)):
            assert Fraction(scaled.sizes[j], scaled.k) == size
            assert scaled.allowed[j] == tuple(sorted(allowed))


def test_normalized_route_matches_the_scaled_view_at_alpha():
    # the CLI's unitk mode builds ScaledInstance.of(i, alpha) for an integer alpha,
    # with k = 1 for a single size or no jobs, where normalize plus scale_to_integer did
    rng = random.Random("model-unitk-route")
    kinds = [0, 0, 0]  # instances with no, one and two sizes
    for case in range(300):
        machines = rng.randint(1, 4)
        small = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        sizes = (small, small * (1 if case % 3 == 0 else rng.randint(2, 6)))
        jobs = [
            (rng.choice(sizes), rng.sample(range(machines), rng.randint(1, machines)))
            for _ in range(0 if case < 10 else rng.randint(1, 8))
        ]
        inst = Instance.build(machines, jobs)
        kinds[len(inst.distinct_sizes())] += 1
        alpha = size_ratio(inst)
        scaled = ScaledInstance.of(inst, alpha.numerator)
        assert alpha.denominator == 1 and scaled.k == alpha
        assert scale_to_integer(normalize(inst)[0]) == scaled
    assert kinds[0] == 10 and min(kinds) >= 10


def test_makespan_invariant_under_machine_permutation():
    rng = random.Random("model-permute")
    for _ in range(30):
        inst = _random_instance(rng)
        schedule = _random_schedule(rng, inst)
        perm = list(range(inst.machine_count))
        rng.shuffle(perm)
        permuted = Instance.build(
            inst.machine_count,
            [(size, [perm[i] for i in allowed]) for size, allowed in zip(inst.sizes, inst.allowed)],
        )
        permuted_schedule = schedule_of(perm[m] for m in schedule.assignment)
        assert makespan(inst, schedule) == makespan(permuted, permuted_schedule)


def test_is_graph_balancing():
    assert is_graph_balancing(Instance.build(3, [(1, [0, 1]), (1, [2])]))
    assert not is_graph_balancing(Instance.build(3, [(1, [0, 1, 2])]))


def test_machine_loads_empty_machines_contribute_zero():
    inst = Instance.build(3, [(2, [1])])
    assert machine_loads(inst, schedule_of([1])) == [0, 2, 0]
