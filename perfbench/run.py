"""Seeded solve benchmark for twoval_makespan.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else. One closed-loop client in one process
runs one operation after another over a pool of seeded instances, in order
and round again, until the time is up and every instance has run once. An
operation is `parse_instance` on the instance text followed by the
workload's solve entry point (and on certify-small the exact oracle), the
library form of `twoval-makespan solve|verify`. Every output is checked
exactly by `checker.py`, which does not call the package.

A fixed reference kernel (`speed.py`) runs before every operation and
between set-ups, and every reported time is scaled to reference speed by
the kernel's mean over the same phase, so that a shared host running
slowly moves the figures less. Each instance's time is the mean of its
runs: throughput is instances per second of those times, and the latencies
are their median and the highest percentile with ten instances above it.
Set-up time is the median of SETUP_REPEATS set-ups, each scaled by the
kernel timings just before and after it. The log lines above the result
give the unscaled figures and the scale factors.

With `--trace 0` the last stdout line is JSON with the end-to-end metrics;
with `--trace 1` half the time runs untraced and half traced, the line holds
the per-layer metrics (self times scaled like the end-to-end timings) and
the spans go to `.perfbench_out/`. Exit code 1 means the checker proved an
output wrong or a traced layer recorded no span; 2 means the package could
not be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checker import CheckError, check_branches, check_certificate, check_schedule, check_unitk
from spans import PACKAGE, Tracer
from speed import SpeedMeter
from workloads import WORKLOADS, Spec, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_SAMPLES = 10  # kernel timings before the first set-up and after each
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it


def load_package():
    """Fresh import of the package from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if SRC not in Path(package.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} resolved to {package.__file__}, outside {SRC}")
    return package


@dataclass
class Outcome:
    assignment: tuple[int, ...]
    makespan: Fraction
    estimate: int | None = None
    chosen: str | None = None
    branches: dict | None = None
    opt: Fraction | None = None
    witness: tuple[int, ...] | None = None


def solve(pkg, solver: str, text: str) -> Outcome:
    """The timed operation: parse, then the workload's entry point."""
    instance = pkg.parse_instance(text)
    if solver == "unitk":
        normalized, _ = pkg.normalize(instance)
        solution = pkg.solve_unit_k(pkg.scale_to_integer(normalized))
        if solution is None:
            return Outcome((), Fraction(0))
        schedule = solution.schedule
        return Outcome(schedule.assignment, pkg.makespan(instance, schedule), solution.estimate)
    if solver == "general" or (solver == "certify" and not pkg.is_graph_balancing(instance)):
        result = pkg.solve_two_valued(instance)
    else:
        result = pkg.gb_solve_two_valued(instance)
    outcome = Outcome(
        result.schedule.assignment, result.makespan,
        chosen=result.chosen, branches=result.branch_makespans,
    )
    if solver == "certify":
        oracle = pkg.brute_force_opt(instance)
        outcome.opt, outcome.witness = oracle.opt_makespan, oracle.witness.assignment
    return outcome


def check(spec: Spec, solver: str, outcome: Outcome) -> Fraction:
    """Raise CheckError on a wrong output; return the exact makespan."""
    if solver == "unitk" and outcome.estimate is None:
        raise CheckError("flow rounding found no estimate on a planted instance")
    value = check_schedule(spec, outcome.assignment, outcome.makespan)
    if solver == "unitk":
        check_unitk(spec, outcome.assignment, outcome.estimate)
    else:
        check_branches(outcome.makespan, outcome.chosen, outcome.branches)
    if solver == "certify":
        check_certificate(spec, value, outcome.opt, outcome.witness)
    return value


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)  # every operation, in order
    times: dict[int, list[float]] = field(default_factory=dict)  # correct runs per instance
    meter: SpeedMeter = field(default_factory=SpeedMeter)
    passes: int = 0  # complete passes over the pool
    completed: int = 0
    errors: list[str] = field(default_factory=list)   # exceptions, budget overruns included
    wrong: list[str] = field(default_factory=list)    # outputs the checker rejected
    budget_exceeded: int = 0
    chosen: dict[str, int] = field(default_factory=dict)
    makespan_sum: Fraction = Fraction(0)
    lower_bound_sum: Fraction = Fraction(0)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)

    def instance_times(self, scale: float = 1.0) -> list[float]:
        """Each instance's mean correct run, times `scale`."""
        return [statistics.fmean(runs) * scale for runs in self.times.values()]


def measure(pkg, workload: Workload, pool: list[Spec], texts: list[str],
            seconds: float, tracer: Tracer | None = None) -> Stats:
    """Closed loop over the pool, in order and round again, until `seconds`
    have passed and every instance has run at least once."""
    stats = Stats()
    started = time.perf_counter()
    while True:
        for index, (spec, text) in enumerate(zip(pool, texts)):
            if stats.passes and time.perf_counter() - started >= seconds:
                return stats
            stats.meter.sample()
            t0 = time.perf_counter()
            try:
                with tracer.operation() if tracer else nullcontext():
                    outcome = solve(pkg, workload.solver, text)
            except pkg.BudgetExceeded as exc:
                stats.latencies.append(time.perf_counter() - t0)
                stats.budget_exceeded += 1
                stats.errors.append(str(exc))
                continue
            except Exception as exc:  # every failure is counted, RecursionError included
                stats.latencies.append(time.perf_counter() - t0)
                stats.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t0
            stats.latencies.append(latency)
            try:
                value = check(spec, workload.solver, outcome)
            except CheckError as exc:
                stats.wrong.append(str(exc))
                continue
            stats.completed += 1
            stats.times.setdefault(index, []).append(latency)
            if outcome.chosen is not None:
                stats.chosen[outcome.chosen] = stats.chosen.get(outcome.chosen, 0) + 1
            if not stats.passes:
                stats.makespan_sum += value
                stats.lower_bound_sum += spec.lower_bound()
        stats.passes += 1


def setup(workload: Workload, seed: int):
    """Import, generate the pool and run one checked warm-up operation."""
    t0 = time.perf_counter()
    pkg = load_package()
    pool = workload.instances(seed)
    texts = [spec.text() for spec in pool]
    check(pool[0], workload.solver, solve(pkg, workload.solver, texts[0]))
    return time.perf_counter() - t0, pkg, pool, texts


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(stats: Stats, setup_s: float) -> dict[str, tuple[float, str]]:
    """Timings at reference speed, set-up time already scaled by the caller."""
    times = stats.instance_times(stats.meter.factor())
    tail_s, _ = tail(times)
    ratio = stats.makespan_sum / stats.lower_bound_sum if stats.lower_bound_sum else Fraction(0)
    return {
        "throughput_ips": (len(times) / sum(times), "instances/s"),
        "latency_p50_ms": (1000 * statistics.median(times), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "makespan_over_lb": (float(ratio), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def describe(workload: Workload, seed: int, trace: int, pool: list[Spec]) -> None:
    widths = [len(allowed) for spec in pool for allowed in spec.allowed]
    print(f"workload {workload.name} seed {seed} trace {trace} "
          f"python {platform.python_version()} nproc {os.cpu_count()}")
    print(f"why: {workload.why}")
    print(f"pool {len(pool)} instances: n {workload.jobs}, m {workload.machines}, "
          f"big {workload.big}, mean eligibility width {sum(widths) / len(widths):.3f}")


def report(stats: Stats) -> None:
    print(f"operations {stats.attempted} attempted, {stats.completed} completed, "
          f"{stats.failed} failed (fail_frac {stats.failed / stats.attempted} ratio), "
          f"{stats.budget_exceeded} oracle budget overruns")
    for message in (stats.wrong + stats.errors)[:5]:
        print(f"failure: {message}")
    if stats.times:
        times = stats.instance_times()
        _, percentile = tail(times)
        print(f"timings are each instance's mean of {stats.attempted / len(times):.2f} runs; "
              f"latency_tail_ms is p{percentile:.1f} of {len(times)} instances, "
              f"{min(TAIL_BEYOND, len(times) - 1)} beyond it")
        print(f"unscaled: throughput {len(times) / sum(times)} instances/s, "
              f"p50 {1000 * statistics.median(times)} ms; speed factor {stats.meter.factor()} "
              f"from {len(stats.meter.samples)} kernel timings")


def execute(workload: Workload, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    """One benchmark run; returns the exit code and the result object, if any."""
    setup_times = []
    scaled = []
    meter = SpeedMeter()
    for _ in range(SETUP_SAMPLES):
        meter.sample()
    for repeat in range(SETUP_REPEATS):
        try:
            elapsed, pkg, pool, texts = setup(workload, seed)
        except ImportError as exc:
            print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
            return 2, None
        for _ in range(SETUP_SAMPLES):
            meter.sample()
        setup_times.append(elapsed)
        scaled.append(elapsed * meter.factor(repeat * SETUP_SAMPLES, (repeat + 2) * SETUP_SAMPLES))
    describe(workload, seed, trace, pool)
    setup_s = statistics.median(scaled)
    print(f"setup: unscaled median {statistics.median(setup_times)} s of {SETUP_REPEATS}, "
          f"effective speed factor {setup_s / statistics.median(setup_times)}")

    if not trace:
        stats = measure(pkg, workload, pool, texts, seconds)
        report(stats)
        if not stats.times:
            print("error: no operation completed", file=sys.stderr)
            return 1, None
        metrics = end_to_end(stats, setup_s)
        phases = [stats]
    else:
        untraced = measure(pkg, workload, pool, texts, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            stats = measure(pkg, workload, pool, texts, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(ROOT / ".perfbench_out" / f"spans-{workload.name}-{seed}.jsonl")
        phases = [untraced, stats]
        for phase in phases:
            report(phase)
        missing = tracer.missing(workload.name)
        if missing:
            print(f"error: no spans recorded for {', '.join(missing)}", file=sys.stderr)
            return 1, None
        factor = stats.meter.factor()
        metrics = {name: (value * factor if unit == "s/op" else value, unit)
                   for name, (value, unit) in tracer.metrics().items()}
        for branch in ("small-down", "small-up", "additive", "matching", "forest"):
            share = stats.chosen.get(branch, 0) / max(stats.completed, 1)
            metrics[f"twovalued.chosen.{branch}"] = (share, "ratio")
        metrics["oracle.budget_exceeded"] = (float(stats.budget_exceeded), "count")
        overhead = (statistics.fmean(stats.latencies) * factor
                    / (statistics.fmean(untraced.latencies) * untraced.meter.factor()) - 1)
        metrics["trace.overhead_frac"] = (overhead, "ratio")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = not any(phase.wrong for phase in phases)
    result = {
        "correct": correct,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return (0 if correct else 1), result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    code, result = execute(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
