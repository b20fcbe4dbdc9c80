"""`verify` and `bound` output pinned, byte for byte, the way `solve` is.

`verify` runs on every instance file in data/solve_pinned/ in every mode with
no flag, with `--bound 3/2` and with `--budget 5`; data/verify_pinned/ holds
one .out file per instance. `bound` runs on a fixed list of arguments and
data/bound_pinned.out holds its output. Regenerate the .out files (only when
an output change is intended) with

    PYTHONPATH=src python tests/test_verify_bound_pinned.py
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

from twoval_makespan.cli import MODES, ORACLE_BUDGET_ENV, main

DATA = Path(__file__).resolve().parent / "data"
INSTANCES = sorted((DATA / "solve_pinned").glob("*.txt"))
VERIFY_DIR = DATA / "verify_pinned"
BOUND_OUT = DATA / "bound_pinned.out"
VERIFY_FLAGS = ((), ("--bound", "3/2"), ("--budget", "5"))
BOUND_ARGS = (("5/2",), ("23/10", "--gb"), ("10",), ("3",), ("7/4", "--gb"))


def run(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one CLI call, headed by the call
    without its second argument (the instance path, or `--alpha`)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"== {' '.join(argv[:1] + argv[2:])}: exit {code}\n" + out.getvalue()
    if err.getvalue():
        text += "-- stderr\n" + err.getvalue()
    return text


def render_verify(path: Path) -> str:
    return "".join(
        run(["verify", str(path), "--mode", mode, *flags])
        for mode in MODES
        for flags in VERIFY_FLAGS
    )


def render_bound() -> str:
    return "".join(run(["bound", "--alpha", *args]) for args in BOUND_ARGS)


@pytest.fixture(autouse=True)
def no_budget_env(monkeypatch):
    monkeypatch.delenv(ORACLE_BUDGET_ENV, raising=False)


@pytest.mark.parametrize("path", INSTANCES, ids=[path.stem for path in INSTANCES])
def test_verify_output_is_pinned(path):
    expected = (VERIFY_DIR / path.with_suffix(".out").name).read_text(encoding="utf-8")
    assert render_verify(path) == expected


def test_bound_output_is_pinned():
    assert render_bound() == BOUND_OUT.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop(ORACLE_BUDGET_ENV, None)
    VERIFY_DIR.mkdir(exist_ok=True)
    for instance in INSTANCES:
        (VERIFY_DIR / instance.with_suffix(".out").name).write_text(
            render_verify(instance), encoding="utf-8"
        )
    BOUND_OUT.write_text(render_bound(), encoding="utf-8")
