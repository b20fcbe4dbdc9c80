"""Record a traced baseline of every workload in perfbench/BASELINE.json.

    python3 perfbench/baseline.py [--seed 1] [--seconds 20]

Runs `run.py --trace 1` once per workload, one after another, and stores the
per-layer metrics next to what they were measured on: each workload's
parameters, reason and seed, each metric's unit and direction, the Python
version and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"]}
                    for m in benchmark["end_to_end"] + benchmark["per_layer"]},
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = {key: value["value"] for key, value in result["metrics"].items()}
        widths = [len(allowed) for spec in workload.instances(args.seed) for allowed in spec.allowed]
        record["workloads"][name] = {
            "why": workload.why,
            "params": workload.params(),
            "mean_width": sum(widths) / len(widths),
            "self_time_share": {key: value for key, value in metrics.items()
                                if key.startswith("share.")},
            "per_layer": metrics,
        }
    (HERE / "BASELINE.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
