"""Tests of the solve benchmark itself: tiny runs, metric names, checker rejections."""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans
import speed
from checker import CheckError, check_certificate, check_schedule, makespan_of
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "unitk-planted": dict(jobs=60, machines=15, big=10, pool=2),
    "general-many-big": dict(jobs=30, machines=5, big=15, pool=2),
    "gb-small-alpha": dict(jobs=30, machines=10, big=6, pool=2),
    "certify-small": dict(jobs=8, big=4, wide=3, pool=4),
}


def tiny_run(name: str, trace: int) -> dict:
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    code, result = run.execute(workload, seed=3, seconds=0.01, trace=trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name):
    metrics = tiny_run(name, trace=0)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {key: value["unit"] for key, value in metrics.items()} == expected
    assert all(value["value"] > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_prints_every_per_layer_metric(name):
    metrics = tiny_run(name, trace=1)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {key: value["unit"] for key, value in metrics.items()} == expected


def test_traced_run_fails_when_an_expected_layer_records_no_span(monkeypatch):
    monkeypatch.setitem(spans.EXPECTED, "general-many-big", ("oracle.brute_force_opt",))
    workload = dataclasses.replace(WORKLOADS["general-many-big"], **TINY["general-many-big"])
    assert run.execute(workload, seed=3, seconds=0.01, trace=1) == (1, None)


def test_workloads_match_benchmark_file():
    listed = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert listed == {name: w.why for name, w in WORKLOADS.items()}


def test_seed_fixes_the_instances():
    workload = WORKLOADS["certify-small"]
    assert workload.instances(5) == workload.instances(5)
    assert workload.instances(5) != workload.instances(6)


def test_generator_draws_the_requested_shape():
    workload = WORKLOADS["unitk-planted"]
    for spec in workload.instances(1)[:2]:
        assert spec.big_count == workload.big and spec.machines == workload.machines
        assert all(1 <= len(allowed) <= 6 for allowed in spec.allowed)


def test_certify_pool_stays_inside_the_oracle_budget():
    for spec in WORKLOADS["certify-small"].instances(1):
        assert min(len(a) for a in spec.allowed) >= 2
        assert 2 * spec.assignments() < 10_000_000


def test_speed_factor_uses_the_trimmed_mean_of_the_chosen_samples():
    assert speed.trimmed_mean([9.0] + [2.0] * 8 + [0.0]) == 2.0
    meter = speed.SpeedMeter()
    meter.samples = [1.0] * 10 + [4.0] * 10
    assert meter.factor() == speed.REFERENCE_S / 2.5
    assert meter.factor(10) == speed.REFERENCE_S / 4.0


def test_end_to_end_timings_are_instance_means_at_reference_speed():
    stats = run.Stats()
    stats.meter.samples = [speed.REFERENCE_S * 2] * 10  # a host at half speed
    stats.times = {0: [0.1, 0.3], 1: [0.4]}
    stats.lower_bound_sum = Fraction(1)
    metrics = run.end_to_end(stats, setup_s=1.0)
    assert metrics["throughput_ips"][0] == pytest.approx(2 / 0.3)
    assert metrics["latency_p50_ms"][0] == pytest.approx(150.0)


def test_kernel_is_fixed_work():
    assert speed.kernel() == speed.kernel()
    assert speed.best_split() == sum(speed.SIZES) // 3  # 5+5, 5+5 and 2*5 split 30 evenly


def sample_spec():
    return generate(random.Random(0), 12, 4, 5, 2, 6, (1, 3), gb=False, planted=False)


def test_checker_accepts_a_valid_schedule():
    spec = sample_spec()
    assignment = tuple(min(allowed) for allowed in spec.allowed)
    value = makespan_of(spec, assignment)
    assert check_schedule(spec, assignment, value) == value


def test_checker_rejects_a_job_on_an_ineligible_machine():
    spec = sample_spec()
    assignment = [min(allowed) for allowed in spec.allowed]
    job = next(j for j, allowed in enumerate(spec.allowed) if len(allowed) < spec.machines)
    assignment[job] = next(i for i in range(spec.machines) if i not in spec.allowed[job])
    with pytest.raises(CheckError, match="outside its allowed set"):
        check_schedule(spec, tuple(assignment), Fraction(10**6))


def test_checker_rejects_a_wrong_reported_makespan():
    spec = sample_spec()
    assignment = tuple(min(allowed) for allowed in spec.allowed)
    value = makespan_of(spec, assignment)
    with pytest.raises(CheckError, match="differs"):
        check_schedule(spec, assignment, value - Fraction(1, 2))


def test_checker_rejects_a_ratio_above_the_certified_bound():
    spec = sample_spec()
    assignment = tuple(min(allowed) for allowed in spec.allowed)
    opt = makespan_of(spec, assignment)
    with pytest.raises(CheckError, match="exceeds the certified bound"):
        check_certificate(spec, 2 * opt, opt, assignment)


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
