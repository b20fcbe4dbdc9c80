"""Every solver's outcome pinned, one sha256 per seeded instance.

For each seed the instance is drawn with `random.random()` alone, whose
sequence CPython keeps across versions, and the digest covers:

- `solve_two_valued` (`gb_solve_two_valued` on graph-balancing draws):
  schedule, makespan, chosen branch and branch makespans;
- `lenstra_solve`: schedule, capacity and the rounded forest;
- `solve_unit_k` on the {1, ceil(alpha)} instance: schedule, estimate and
  assignment, or None;
- `brute_force_opt` when there are at most 8 jobs: optimum and witness.

data/outcomes_pinned.txt holds one `seed digest` line per instance. A
failure names the first seed whose outcome moved and prints its instance.
Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_outcomes_pinned.py
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

from twoval_makespan.graph_balancing import gb_solve_two_valued
from twoval_makespan.lenstra import lenstra_solve
from twoval_makespan.model import Instance, ScaledInstance
from twoval_makespan.oracle import brute_force_opt
from twoval_makespan.twovalued import solve_two_valued
from twoval_makespan.unitk import solve_unit_k

DATA = Path(__file__).resolve().parent / "data" / "outcomes_pinned.txt"
CASES = 1000
ALPHAS = tuple(map(Fraction, ("1", "2", "3", "3/2", "5/2", "7/3", "7/5", "11/7", "13/8")))
BIG_SIZES = tuple(map(Fraction, ("1", "7/3", "5")))
ORACLE_JOBS = 8


def _pick(rng: random.Random, options):
    return options[int(rng.random() * len(options))]


def draw(seed: int) -> tuple[Instance, bool]:
    """The seed's instance, up to 12 jobs on up to 4 machines, and whether it is graph balancing."""
    rng = random.Random(seed)
    alpha, big = _pick(rng, ALPHAS), _pick(rng, BIG_SIZES)
    machines = 1 + int(rng.random() * 4)
    gb = rng.random() < 0.4
    jobs = []
    for _ in range(int(rng.random() * 13)):
        size = big if rng.random() < 0.5 else big / alpha
        if gb:
            allowed = {int(rng.random() * machines), int(rng.random() * machines)}
        else:
            allowed = {i for i in range(machines) if rng.random() < 0.5}
            allowed = allowed or {int(rng.random() * machines)}
        jobs.append((size, allowed))
    return Instance.build(machines, jobs), gb


def _shares(assignment) -> str:
    return ";".join(
        ",".join(f"{machine}:{share}" for machine, share in sorted(shares.items()))
        + f"/{size}"
        for shares, size in zip(assignment.shares, assignment.sizes)
    )


def outcome(instance: Instance, gb: bool) -> str:
    """The text the digest covers, one line per solver."""
    race = (gb_solve_two_valued if gb else solve_two_valued)(instance)
    branches = ",".join(f"{name}={value}" for name, value in race.branch_makespans.items())
    lines = [f"race {race.schedule.assignment} {race.makespan} {race.chosen} {branches}"]
    additive = lenstra_solve(instance)
    lines.append(
        f"lenstra {additive.schedule.assignment} {additive.capacity} {_shares(additive.forest)}"
    )
    sizes = instance.distinct_sizes()
    k = math.ceil(sizes[-1] / sizes[0]) if sizes else 1
    unit_k = solve_unit_k(ScaledInstance.of(instance, k))
    if unit_k is None:
        lines.append(f"unitk {k} None")
    else:
        lines.append(
            f"unitk {k} {unit_k.schedule.assignment} {unit_k.estimate} {_shares(unit_k.assignment)}"
        )
    if instance.job_count <= ORACLE_JOBS:
        opt = brute_force_opt(instance)
        lines.append(f"oracle {opt.opt_makespan} {opt.witness.assignment}")
    return "\n".join(lines)


def digest(seed: int) -> str:
    return hashlib.sha256(outcome(*draw(seed)).encode("ascii")).hexdigest()[:32]


def test_every_outcome_is_pinned():
    pinned = [line.split() for line in DATA.read_text(encoding="utf-8").splitlines()]
    assert [int(seed) for seed, _ in pinned] == list(range(CASES))
    for seed, expected in pinned:
        instance, gb = draw(int(seed))
        assert digest(int(seed)) == expected, (
            f"seed {seed} moved (graph balancing: {gb}): {instance}\n{outcome(instance, gb)}"
        )


def test_the_draws_cover_the_regimes():
    draws = [draw(seed) for seed in range(CASES)]
    assert sum(gb for _, gb in draws) >= 300
    assert sum(instance.job_count <= ORACLE_JOBS for instance, _ in draws) >= 500
    assert sum(instance.job_count == 0 for instance, _ in draws) >= 1
    assert len({instance.distinct_sizes() for instance, _ in draws}) >= 20


if __name__ == "__main__":
    DATA.write_text("".join(f"{seed} {digest(seed)}\n" for seed in range(CASES)), encoding="utf-8")
