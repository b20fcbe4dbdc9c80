"""Machine speed, measured alongside the benchmark, to normalize its timings.

On a shared host the same Python code runs up to twice as slowly, switching
between a fast and a slow state within a second and staying mostly slow for
minutes at a time; CPU time slows with it, so the processor itself is
slower, not the process descheduled. The benchmark therefore times a fixed
pure-Python reference kernel, which never touches the package, before each
of its operations and scales the phase's timings by

    REFERENCE_S / mean(kernel time over the same phase of the run)

so a figure reads as seconds on a host where the kernel takes REFERENCE_S.
Means, of the kernel and of each instance's runs, follow the share of time
spent in the slow state; a median jumps between the two states instead,
and in trials steadied the figures less. The kernel's mean drops the
fastest and slowest tenth of its timings, which are mostly interrupts. A
change to the package moves the timed operations and not the kernel.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

# about the kernel's time with CPython 3.11 on an unloaded 2-vCPU x86-64 host
REFERENCE_S = 0.005
TRIM = 0.1  # share of timings dropped at each end of a mean

GRAPH_NODES = 300
GRAPH = {v: [(v * 7 + k * 13) % GRAPH_NODES for k in range(1, 5)] for v in range(GRAPH_NODES)}
SIZES = (5, 2, 5, 2, 2, 5, 2, 2, 5)


def best_split(machines: int = 3) -> int:
    """Smallest makespan of SIZES on identical machines, by pruned recursion."""
    loads = [0] * machines
    best = sum(SIZES)

    def search(job: int, current: int) -> None:
        nonlocal best
        if job == len(SIZES):
            best = min(best, current)
            return
        for machine in range(machines):
            load = loads[machine] + SIZES[job]
            if max(current, load) >= best:
                continue
            loads[machine] = load
            search(job + 1, max(current, load))
            loads[machine] -= SIZES[job]

    search(0, 0)
    return best


def kernel() -> tuple:
    """A fixed mix of the interpreter work the solvers and the oracle do: integer
    arithmetic and dict stores, tuple building and sorting, Fraction sums,
    breadth-first search and a pruned recursive search."""
    total = 0
    table: dict[int, int] = {}
    for i in range(10000):
        total += i * i % 7
        table[i % 1000] = total
    rows = sorted((i % 97, i, [i, i + 1]) for i in range(1500))
    groups: dict[int, list] = {}
    for key, _, pair in rows:
        groups.setdefault(key, []).append(pair)
    fraction = Fraction(0)
    for i in range(1, 200):
        fraction += Fraction(i % 13 + 1, i % 7 + 2)
    reached = 0
    for source in range(0, GRAPH_NODES, 40):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in GRAPH[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        reached += sum(dist.values())
    return total, len(groups), fraction, reached, best_split()


class SpeedMeter:
    """Kernel timings taken over one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Multiply a time measured while samples[start:stop] were taken by
        this to express it at reference speed."""
        return REFERENCE_S / trimmed_mean(self.samples[start:stop])


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest TRIM share of the values."""
    ordered = sorted(values)
    drop = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[drop:len(ordered) - drop])
