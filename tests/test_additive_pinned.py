"""Cycle canceling and forest rounding pinned on seeded instances.

For each case in data/additive_pinned.json the fractional assignment at the
smallest feasible load bound is canceled to a forest and rounded; the file
holds a sha256 of the canceled per-job fractions (in dict order) and of the
rounded schedule. Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_additive_pinned.py
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from twoval_makespan.generator import random_instance
from twoval_makespan.lenstra import cancel_cycles, min_feasible_fractional, round_forest

from helpers import support_is_forest

DATA = Path(__file__).resolve().parent / "data" / "additive_pinned.json"
ALPHAS = ("3/2", "5/2", "7/3", "7/5", "11/7", "13/8")
CASES = 400


def _instance(seed: int):
    rng = random.Random(seed)
    alpha = Fraction(ALPHAS[seed % len(ALPHAS)])
    gb = seed % 3 == 0
    return random_instance(rng, rng.randint(1, 40), rng.randint(2, 8), alpha, gb=gb)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def render(seed: int) -> dict:
    """The case's hashes, and whether its fractional assignment had a cycle."""
    instance = _instance(seed)
    _, assignment = min_feasible_fractional(instance)
    canceled = cancel_cycles(assignment)
    schedule = round_forest(canceled, instance)
    per_job = ";".join(
        ",".join(f"{machine}:{Fraction(share, size)}" for machine, share in shares.items())
        for shares, size in zip(canceled.shares, canceled.sizes)
    )
    return {
        "seed": seed,
        "cycle": not support_is_forest(assignment),
        "per_job": _sha(per_job),
        "schedule": _sha(",".join(map(str, schedule.assignment))),
    }


def test_cancel_and_round_are_pinned():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    assert len(expected) == CASES
    mismatched = [case["seed"] for case in expected if render(case["seed"]) != case]
    assert mismatched == []


def test_pinned_cases_cancel_cycles():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    assert sum(case["cycle"] for case in expected) >= 50


if __name__ == "__main__":
    cases = [render(seed) for seed in range(CASES)]
    DATA.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n", encoding="utf-8")
