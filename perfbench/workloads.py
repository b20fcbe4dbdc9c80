"""Seeded instance generator and workload definitions for the solve benchmark.

The generator is the benchmark's own, so a change to the package's
`generator` module cannot move the workloads. An instance is kept as integer
sizes plus allowed sets; the solver only ever sees the instance file text
rendered from it, and the checker judges outputs against it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Spec:
    """One generated instance: integer job sizes and allowed machine sets."""

    machines: int
    sizes: tuple[int, ...]
    allowed: tuple[frozenset[int], ...]
    big_size: int
    small_size: int

    @property
    def gb(self) -> bool:
        """Graph balancing: every job allows at most two machines."""
        return all(len(machines) <= 2 for machines in self.allowed)

    @property
    def jobs(self) -> int:
        return len(self.sizes)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.big_size, self.small_size)

    @property
    def big_count(self) -> int:
        return sum(1 for size in self.sizes if size == self.big_size)

    def assignments(self) -> int:
        """Number of eligible schedules, the size of an unpruned search."""
        return math.prod(len(machines) for machines in self.allowed)

    def lower_bound(self) -> Fraction:
        """max(big size, total size / m): no schedule has a smaller makespan."""
        return max(Fraction(self.big_size), Fraction(sum(self.sizes), self.machines))

    def text(self) -> str:
        lines = [f"machines {self.machines}", f"jobs {self.jobs}"]
        for job, (size, allowed) in enumerate(zip(self.sizes, self.allowed)):
            lines.append(f"job {job} {size} " + " ".join(map(str, sorted(allowed))))
        return "\n".join(lines) + "\n"


def generate(
    rng: random.Random,
    jobs: int,
    machines: int,
    big_size: int,
    small_size: int,
    big_count: int,
    width: tuple[int, int],
    gb: bool,
    planted: bool,
    wide: int | None = None,
) -> Spec:
    """Random instance with exactly `big_count` big jobs.

    Each job allows a uniform number of machines in `width` (at most 2 when
    `gb`), or with `wide` exactly that many jobs allow the most machines and
    the rest the fewest. With `planted`, the big jobs get distinct home
    machines inside their allowed sets, so a schedule with one big job per
    machine exists.
    """
    if planted and big_count > machines:
        raise ValueError("planted big jobs need distinct home machines")
    lo, hi = (min(bound, 2) for bound in width) if gb else width
    hi = min(hi, machines)
    if wide is None:
        counts = [rng.randint(lo, hi) for _ in range(jobs)]
    else:
        counts = [hi] * wide + [lo] * (jobs - wide)
        rng.shuffle(counts)
    big_jobs = sorted(rng.sample(range(jobs), big_count))
    homes = dict(zip(big_jobs, rng.sample(range(machines), big_count))) if planted else {}
    big_set = set(big_jobs)
    sizes = []
    allowed = []
    for job, count in enumerate(counts):
        home = homes.get(job)
        if home is None:
            chosen = set(rng.sample(range(machines), count))
        else:
            others = [i for i in range(machines) if i != home]
            chosen = {home, *rng.sample(others, count - 1)}
        sizes.append(big_size if job in big_set else small_size)
        allowed.append(frozenset(chosen))
    return Spec(machines, tuple(sizes), tuple(allowed), big_size, small_size)


@dataclass(frozen=True)
class Workload:
    """A seeded instance pool plus the solve entry point it is timed through.

    Every instance has `jobs` jobs, `big` of them big, on `machines`
    machines; `width`, `planted` and `wide` are passed on to `generate`.
    `gb` is "yes", "no" or "mixed" (every third instance graph balancing).
    """

    name: str
    why: str
    solver: str  # "unitk", "general", "gb" or "certify"
    jobs: int
    machines: int
    big_size: int
    small_size: int
    big: int
    width: tuple[int, int]
    gb: str
    planted: bool
    pool: int
    wide: int | None = None

    def instances(self, seed: int) -> list[Spec]:
        rng = random.Random(f"{self.name}:{seed}")
        return [
            generate(
                rng, self.jobs, self.machines, self.big_size, self.small_size, self.big,
                self.width, self.gb == "yes" or (self.gb == "mixed" and index % 3 == 0),
                self.planted, self.wide,
            )
            for index in range(self.pool)
        ]

    def params(self) -> dict:
        return {
            "solver": self.solver,
            "jobs": self.jobs,
            "machines": self.machines,
            "sizes": [self.big_size, self.small_size],
            "big": self.big,
            "width": list(self.width),
            "gb": self.gb,
            "planted": self.planted,
            "pool": self.pool,
            "wide": self.wide,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="unitk-planted",
            why="{1,3} sizes, sparse eligibility, planted big jobs: max-flow, flow probes "
            "and matching do the work and the additive rounding never runs",
            solver="unitk",
            jobs=300,
            machines=60,
            big_size=3,
            small_size=1,
            big=45,
            width=(1, 6),
            gb="no",
            planted=True,
            pool=40,
        ),
        Workload(
            name="general-many-big",
            why="alpha 5/2 with half the jobs big: both reductions fail at once and the "
            "additive rounding (load grid, fractional probes, forest) does the work",
            solver="general",
            jobs=90,
            machines=9,
            big_size=5,
            small_size=2,
            big=45,
            width=(1, 9),
            gb="no",
            planted=False,
            pool=40,
        ),
        Workload(
            name="gb-small-alpha",
            why="graph balancing at alpha 3/2 with planted big jobs: the only workload "
            "running orientation, perfect matching and the duplicate forest branch",
            solver="gb",
            jobs=60,
            machines=16,
            big_size=3,
            small_size=2,
            big=12,
            width=(1, 2),
            gb="yes",
            planted=True,
            pool=100,
        ),
        Workload(
            name="certify-small",
            why="mixed graph-balancing and general instances at alpha 5/2 certified by "
            "the exact oracle, which does nearly all the work",
            solver="certify",
            jobs=17,
            machines=3,
            big_size=5,
            small_size=2,
            big=8,
            width=(2, 3),
            gb="mixed",
            planted=False,
            pool=100,
            # 2^11 * 3^6 eligible schedules: with every width >= 2 an exhaustive
            # search tries fewer than twice that many placements, well inside
            # the oracle's default budget of 10^7
            wide=6,
        ),
    )
}
