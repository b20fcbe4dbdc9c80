"""`solve` output pinned, byte for byte, for every mode on fixed small instances.

Each instance file in data/solve_pinned/ has a matching .out file holding what
`twoval-makespan solve <file> --mode <mode>` printed for every mode, with the
`# wall-time` line dropped. Regenerate the .out files (only when an output
change is intended) with

    PYTHONPATH=src python tests/test_solve_pinned.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from twoval_makespan.cli import MODES, main

DATA = Path(__file__).resolve().parent / "data" / "solve_pinned"
INSTANCES = sorted(DATA.glob("*.txt"))


def render(path: Path) -> str:
    """Exit code, stdout and stderr of `solve` in every mode, wall time dropped."""
    parts = []
    for mode in MODES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path), "--mode", mode])
        lines = [line for line in out.getvalue().splitlines() if not line.startswith("# wall-time ")]
        parts.append(f"== solve --mode {mode}: exit {code}\n")
        parts.extend(line + "\n" for line in lines)
        if err.getvalue():
            parts.append("-- stderr\n" + err.getvalue())
    return "".join(parts)


def test_pinned_set_covers_the_regimes():
    names = {path.stem for path in INSTANCES}
    assert len(names) >= 12
    assert {"empty", "alpha1-general", "alpha1-gb", "alpha3_2-gb-forest",
            "alpha3_2-gb-matching", "alpha5_2-gb-small-down"} <= names


@pytest.mark.parametrize("path", INSTANCES, ids=[path.stem for path in INSTANCES])
def test_solve_output_is_pinned(path):
    assert render(path) == path.with_suffix(".out").read_text(encoding="utf-8")


if __name__ == "__main__":
    for instance in INSTANCES:
        instance.with_suffix(".out").write_text(render(instance), encoding="utf-8")
