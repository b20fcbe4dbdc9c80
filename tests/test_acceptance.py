"""Acceptance sweeps: one test and one printed PASS/FAIL line per criterion.

Every ratio comparison is exact rational arithmetic against the brute-force
oracle; nothing is checked within a floating-point tolerance except the
quadratic-root residuals, whose stated tolerance is 1e-9.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
from fractions import Fraction

import pytest

from twoval_makespan.bounds import (
    ASSIGNMENT_GUARANTEE,
    GB_GUARANTEE,
    ratio_expressions,
)
from twoval_makespan.cli import main as cli_main
from twoval_makespan.generator import random_instance
from twoval_makespan.graph_balancing import gb_solve_two_valued, gb_solve_unit_k
from twoval_makespan.lenstra import (
    cancel_cycles,
    lenstra_solve,
    min_feasible_fractional,
    round_forest,
)
from twoval_makespan.model import machine_loads, makespan, normalize, scale_to_integer
from twoval_makespan.oracle import brute_force_opt
from twoval_makespan.twovalued import solve_two_valued
from twoval_makespan.unitk import match_big_jobs, solve_unit_k

from helpers import (
    enumerate_opt, fraction, gb_interval_start_bound, integer_instance, scan_assignment_grid,
    scan_gb_grid, support_is_forest,
)

SWEEP = 500
KS = (2, 3, 4, 5, 6)
ALPHAS_TWO_VALUED = ("3/2", "8/5", "2", "5/2", "10/3", "9/2")
ALPHAS_GB = ("10/7", "20/13", "2", "23/10", "3", "4")


def _report(name, violations, checks, detail=""):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"\nACCEPTANCE {name}: {status} [{checks} checks{detail}]")
    assert not violations, f"{name}: first violations: {violations[:3]}"


def _draw(rng):
    return rng.randint(1, 10), rng.randint(1, 4)


def _unitk_row(seed_text, k, gb):
    rng = random.Random(seed_text)
    jobs, machines = _draw(rng)
    inst = random_instance(rng, jobs, machines, Fraction(k), gb=gb)
    scaled = scale_to_integer(normalize(inst)[0])
    solver = gb_solve_unit_k if gb else solve_unit_k
    solution = solver(scaled)
    base = integer_instance(scaled)
    schedule = solution.schedule if solution is not None else lenstra_solve(base).schedule
    oracle = brute_force_opt(base)
    return {
        "k": k,
        "scaled": scaled,
        "solution": solution,
        "schedule": schedule,
        "value": makespan(base, schedule),
        "oracle": oracle,
    }


@pytest.fixture(scope="module")
def unitk_rows():
    return [
        _unitk_row(f"accept-unitk-{k}-{i}", k, gb=False) for k in KS for i in range(SWEEP)
    ]


@pytest.fixture(scope="module")
def gb_rows():
    return [_unitk_row(f"accept-gb32-{k}-{i}", k, gb=True) for k in KS for i in range(SWEEP)]


def test_unit_k_guarantee(unitk_rows):
    violations = []
    for row in unitk_rows:
        bound = 2 - Fraction(1, row["k"])
        opt = row["oracle"].opt_makespan
        if opt > 0 and row["value"] > bound * opt:
            violations.append((row["k"], row["value"], opt))
    _report("unit-k 2-1/k guarantee", violations, len(unitk_rows))


def test_gb_three_halves_guarantee(gb_rows):
    violations = []
    for row in gb_rows:
        opt = row["oracle"].opt_makespan
        if opt > 0 and row["value"] > Fraction(3, 2) * opt:
            violations.append((row["k"], row["value"], opt))
    _report("graph-balancing 3/2 guarantee", violations, len(gb_rows))


def test_two_valued_guarantee():
    violations = []
    checks = 0
    for alpha_text in ALPHAS_TWO_VALUED:
        alpha = Fraction(alpha_text)
        for i in range(SWEEP):
            rng = random.Random(f"accept-twoval-{alpha_text}-{i}")
            jobs, machines = _draw(rng)
            inst = random_instance(rng, jobs, machines, alpha)
            result = solve_two_valued(inst)
            opt = brute_force_opt(inst).opt_makespan
            big = inst.distinct_sizes()[-1]
            bound = Fraction(3, 2) if opt >= 2 * big else result.report.constructive_bound
            checks += 1
            if opt > 0 and result.makespan > bound * opt:
                violations.append((alpha_text, i, result.makespan, opt, bound))
    _report("two-valued branch-bound guarantee", violations, checks)


def test_gb_1652_guarantee():
    violations = []
    checks = 0
    for alpha_text in ALPHAS_GB:
        alpha = Fraction(alpha_text)
        for i in range(SWEEP):
            rng = random.Random(f"accept-gb1652-{alpha_text}-{i}")
            jobs, machines = _draw(rng)
            inst = random_instance(rng, jobs, machines, alpha, gb=True)
            result = gb_solve_two_valued(inst)
            opt = brute_force_opt(inst).opt_makespan
            checks += 1
            if opt > 0 and result.makespan > GB_GUARANTEE * opt:
                violations.append((alpha_text, i, result.makespan, opt))
    _report("graph-balancing 413/250 guarantee", violations, checks)


def test_bound_arithmetic(capsys):
    violations = []
    residual_cap = Fraction(1, 10**9)
    # (a) the bound command balances the expressions at each interval's root
    for n, alpha_text in ((1, "3/2"), (2, "5/2"), (3, "7/2"), (4, "9/2")):
        assert cli_main(["bound", "--alpha", alpha_text]) == 0
        out = capsys.readouterr().out
        root_line = next(line for line in out.splitlines() if line.startswith("worst-alpha"))
        root = Fraction(root_line.split()[1])
        if not n < root < n + 1:
            violations.append(("root-interval", n, root))
        expr1, expr2 = ratio_expressions(root)
        if abs(expr1 - expr2) >= residual_cap:
            violations.append(("residual", n, float(abs(expr1 - expr2))))
    # (b) assignment-constraint grid: max of the min-expression stays under 1.883
    grid_max, grid_arg = scan_assignment_grid(max_denominator=1000)
    if not grid_max < ASSIGNMENT_GUARANTEE:
        violations.append(("assignment-grid", grid_max))
    if not 4 < grid_arg <= 5:
        violations.append(("assignment-argmax", grid_arg))
    # (c) 2-machine grid: max stays under 1.652 and is attained in (2, 3);
    # intervals past the scan window satisfy 1 + f1/2 <= 1 + (n+1)/(2n) < 1.652
    gb_max, gb_arg = scan_gb_grid(max_denominator=1000)
    if not gb_max < GB_GUARANTEE:
        violations.append(("gb-grid", gb_max))
    if not 2 < gb_arg < 3:
        violations.append(("gb-argmax", gb_arg))
    if not all(gb_interval_start_bound(n) < GB_GUARANTEE for n in range(6, 10**6, 997)):
        violations.append(("gb-tail",))
    detail = f", grid maxima {float(grid_max):.6f} @ {grid_arg}, {float(gb_max):.6f} @ {gb_arg}"
    _report("bound arithmetic reproduction", violations, 4 + 4, detail)


def test_lower_bound_property(unitk_rows, gb_rows):
    violations = []
    checks = 0
    for row in unitk_rows + gb_rows:
        if row["solution"] is None:
            continue
        scaled = row["scaled"]
        witness = row["oracle"].witness
        bigs_per_machine = [0] * scaled.machine_count
        for j, machine in enumerate(witness.assignment):
            if scaled.sizes[j] > 1:
                bigs_per_machine[machine] += 1
        if max(bigs_per_machine, default=0) > 1:
            continue  # the found optimum stacks big jobs; the bound is not claimed
        checks += 1
        # the normalized instance's units: its big size is 1, k in the {1, k} units
        estimate_in_original_units = Fraction(row["solution"].estimate, scaled.k)
        opt_in_original_units = row["oracle"].opt_makespan / scaled.k
        if estimate_in_original_units > opt_in_original_units:
            violations.append((row["k"], row["solution"].estimate, row["oracle"].opt_makespan))
    _report("flow estimate lower-bounds the optimum", violations, checks)


def test_structural_invariants(unitk_rows, gb_rows):
    violations = []
    checks = 0
    half = Fraction(1, 2)
    # Hall matching always succeeds and is injective
    for row in unitk_rows:
        if row["solution"] is None:
            continue
        scaled = row["scaled"]
        matched = match_big_jobs(row["solution"].assignment, scaled)
        checks += 1
        if len(set(matched.values())) != len(matched):
            violations.append(("hall-injective", row["k"]))
    # half-split big jobs form a max-degree-2 graph and land on distinct machines
    for row in gb_rows:
        if row["solution"] is None:
            continue
        scaled = row["scaled"]
        assignment = row["solution"].assignment
        degree = {}
        heads = {}
        for j in scaled.big_jobs():
            support = tuple(assignment.shares[j])
            if len(support) == 2 and fraction(assignment, j, support[0]) == half:
                for machine in support:
                    degree[machine] = degree.get(machine, 0) + 1
                head = row["schedule"].assignment[j]
                heads[head] = heads.get(head, 0) + 1
        checks += 1
        if any(d > 2 for d in degree.values()):
            violations.append(("half-edge-degree", row["k"]))
        if any(c > 1 for c in heads.values()):
            violations.append(("orientation-injective", row["k"]))
    # cycle canceling and forest rounding on fresh fractional fixtures
    rng = random.Random("accept-structure")
    for _ in range(200):
        jobs, machines = rng.randint(2, 10), rng.randint(2, 4)
        alpha = Fraction(rng.randint(3, 12), rng.randint(1, 3))
        if alpha < 1:
            continue
        inst = random_instance(rng, jobs, machines, alpha)
        _, assignment = min_feasible_fractional(inst)
        before = [Fraction(0)] * machines
        for j in range(inst.job_count):
            for machine in assignment.shares[j]:
                before[machine] += fraction(assignment, j, machine) * inst.sizes[j]
        canceled = cancel_cycles(assignment)
        after = [Fraction(0)] * machines
        for j in range(inst.job_count):
            for machine in canceled.shares[j]:
                after[machine] += fraction(canceled, j, machine) * inst.sizes[j]
        checks += 1
        if not support_is_forest(canceled):
            violations.append(("cancel-acyclic",))
        if any(a > b for a, b in zip(after, before)):
            violations.append(("cancel-loads",))
        schedule = round_forest(canceled, inst)
        big = inst.distinct_sizes()[-1]
        loads = machine_loads(inst, schedule)
        if any(load > frac + big for load, frac in zip(loads, after)):
            violations.append(("forest-additive",))
    _report("structural invariant suite", violations, checks)


def test_oracle_self_consistency():
    violations = []
    for i in range(200):
        rng = random.Random(f"accept-oracle-{i}")
        jobs, machines = rng.randint(1, 6), rng.randint(1, 3)
        alpha = Fraction(rng.randint(2, 9), rng.randint(1, 3))
        if alpha < 1:
            alpha = 1 / alpha
        inst = random_instance(rng, jobs, machines, alpha)
        pruned = brute_force_opt(inst)
        plain = enumerate_opt(inst)
        if pruned.opt_makespan != plain.opt_makespan or pruned.witness != plain.witness:
            violations.append((i, pruned.opt_makespan, plain.opt_makespan))
    _report("oracle self-consistency", violations, 200)
