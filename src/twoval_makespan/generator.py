"""Seed-reproducible random instances for sweeps and the CLI generator."""

from __future__ import annotations

import random
from fractions import Fraction

from .model import Instance, as_rational


def random_instance(
    rng: random.Random,
    jobs: int,
    machines: int,
    alpha: object,
    gb: bool = False,
    ensure_big: bool = True,
) -> Instance:
    """Random instance with sizes {1/alpha, 1} and nonempty allowed sets.

    gb restricts every allowed set to at most 2 machines. ensure_big flips
    job 0 to the big size when the draw produced none, so two-size sweeps
    always exercise the big-job machinery.
    """
    a = as_rational(alpha)
    if a < 1:
        raise ValueError("alpha must be >= 1")
    if jobs < 0 or machines < 1:
        raise ValueError("need jobs >= 0 and machines >= 1")
    small = 1 / a
    specs: list[tuple[Fraction, list[int]]] = []
    for _ in range(jobs):
        size = Fraction(1) if rng.random() < 0.5 else small
        if gb:
            set_size = 1 if machines == 1 else rng.randint(1, 2)
        else:
            set_size = rng.randint(1, machines)
        specs.append((size, rng.sample(range(machines), set_size)))
    if ensure_big and a > 1 and specs and all(size != 1 for size, _ in specs):
        specs[0] = (Fraction(1), specs[0][1])
    return Instance.build(machines, specs)
