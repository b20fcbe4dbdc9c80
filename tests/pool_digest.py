"""One hash of every benchmark pool's outcomes and max-flow count.

    python3 tests/pool_digest.py [--workload W]

Run from the root of a source checkout. For each workload (or only W) and
each seed in SEEDS, it runs perfbench's own timed operation, `run.solve`,
over `workload.instances(seed)` in order, untimed and unchecked. Each
operation's outcome, as `repr((assignment, makespan, estimate, chosen,
branches, opt, witness))`, goes into one sha256 per pool, and then the
pool's count of `maxflow.Dinic.max_flow` calls. It prints one line per
pool:

    <workload> <seed> <first 16 hex digits> <max-flows>

Two checkouts whose lines match produced the same outputs with the same
number of max-flows on every benchmark instance.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, which imports the package from src/)
from workloads import WORKLOADS  # noqa: E402

SEEDS = (5, 7, 11)


def counting(pkg) -> list[int]:
    """Wrap `Dinic.max_flow` on the class; the list's one entry counts its calls."""
    dinic = pkg.maxflow.Dinic
    inner = dinic.max_flow
    calls = [0]

    def max_flow(self, *args, **kwargs):
        calls[0] += 1
        return inner(self, *args, **kwargs)

    dinic.max_flow = max_flow
    return calls


def pool_line(pkg, calls: list[int], name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    digest = hashlib.sha256()
    calls[0] = 0
    for spec in workload.instances(seed):
        o = run.solve(pkg, workload.solver, spec.text())
        outcome = (o.assignment, o.makespan, o.estimate, o.chosen, o.branches, o.opt, o.witness)
        digest.update(repr(outcome).encode())
    digest.update(str(calls[0]).encode())
    return f"{name} {seed} {digest.hexdigest()[:16]} {calls[0]}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    pkg = run.load_package()
    calls = counting(pkg)
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        for seed in SEEDS:
            print(pool_line(pkg, calls, name, seed), flush=True)


if __name__ == "__main__":
    main()
