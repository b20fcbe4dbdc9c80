import os
import random
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import twoval_makespan
from twoval_makespan import cli, fileio, graph_balancing
from twoval_makespan.cli import main
from twoval_makespan.fileio import (
    FileFormatError,
    format_fraction,
    format_instance,
    parse_fraction,
    parse_instance,
)
from twoval_makespan.generator import random_instance
from twoval_makespan.model import Instance, is_graph_balancing
from twoval_makespan.oracle import brute_force_opt


def test_fraction_round_trip():
    assert parse_fraction("3") == 3
    assert parse_fraction("3/1") == 3
    assert parse_fraction("7/2") == Fraction(7, 2)
    assert format_fraction(Fraction(7, 2)) == "7/2"
    assert format_fraction(Fraction(4)) == "4"


def test_fraction_rejects_decimals():
    with pytest.raises(FileFormatError):
        parse_fraction("1.5")
    with pytest.raises(FileFormatError, match="^bad rational '1/0': zero denominator$"):
        parse_fraction("1/0")


def test_instance_round_trip():
    rng = random.Random("fileio-roundtrip")
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 4), Fraction(7, 2))
        assert parse_instance(format_instance(inst)) == inst


def test_bool_and_int_enum_indices_are_stored_as_plain_ints():
    # a bool or IntEnum index used to be kept as it was given: the file then
    # read `job 0 1 True`, which the parser rejects, and the oracle's witness
    # named machine True
    class Machine(IntEnum):
        SECOND = 1

    for index in (True, Machine.SECOND):
        inst = Instance.build(2, [(1, [index]), (1, [0, index])])
        assert format_instance(inst) == "machines 2\njobs 2\njob 0 1 1\njob 1 1 0 1\n"
        assert parse_instance(format_instance(inst)) == inst
        witness = brute_force_opt(inst).witness.assignment
        assert witness == (1, 0) and all(type(machine) is int for machine in witness)


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\n\nmachines 2\njobs 1\n# another\njob 0 1/2 0 1\n"
    inst = parse_instance(text)
    assert inst.machine_count == 2
    assert inst.sizes[0] == Fraction(1, 2)
    assert inst.allowed[0] == (0, 1)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("machines 2\n", "expected 'machines <m>' and 'jobs <n>' header lines"),  # no jobs header
        ("machines 2\njobs 1\n", "expected 1 job lines, found 0"),  # missing job line
        ("machines 2\njobs 1\njob 1 1 0\n", "expected job 0, got 1 in 'job 1 1 0'"),
        ("machines 2\njobs 1\njob 0 1.5 0\n", "bad rational '1.5': not an integer: '1.5'"),
        ("machines 2\njobs 1\njob 0 1 x\n", "bad machine index in 'job 0 1 x'"),
        ("machines 2\njobs 2\njob 0 1 0\n", "expected 2 job lines, found 1"),
        # digit separators
        ("machines 1_0\njobs 1\njob 0 1 0\n", "bad count in 'machines 1_0'"),
        ("machines 2\njobs 0_1\njob 0 1 0\n", "bad count in 'jobs 0_1'"),
        ("machines 2\njobs 1\njob 0_0 1 0\n", "bad job id in 'job 0_0 1 0'"),
        ("machines 2\njobs 1\njob 0 1_0 0\n", "bad rational '1_0': not an integer: '1_0'"),
        ("machines 2\njobs 1\njob 0 1/1_0 0\n", "bad rational '1/1_0': not an integer: '1_0'"),
        ("machines 2\njobs 1\njob 0 1 0_1\n", "bad machine index in 'job 0 1 0_1'"),
        # Arabic-Indic and fullwidth digits
        ("machines \u0662\njobs 1\njob 0 1 0\n", "bad count in 'machines \u0662'"),
        ("machines 2\njobs 1\njob \u0660 1 0\n", "bad job id in 'job \u0660 1 0'"),
        ("machines 2\njobs 1\njob 0 \u0661/2 0\n", "bad rational '\u0661/2': not an integer: '\u0661'"),
        ("machines 2\njobs 1\njob 0 1 \u0661\n", "bad machine index in 'job 0 1 \u0661'"),
        ("machines 2\njobs 1\njob 0 1 \uff11\n", "bad machine index in 'job 0 1 \uff11'"),
        ("machines 2\njobs 1\njob 0 1/ 0\n", "bad rational '1/': not an integer: ''"),  # no denominator
        ("machines 2\njobs 1\njob 0 +-1 0\n", "bad rational '+-1': not an integer: '+-1'"),
        # comments are whole lines only
        ("machines 2\njobs 1\njob 0 1 0 1  # big\n", "bad machine index in 'job 0 1 0 1  # big'"),
        ("machines 2 # two\njobs 0\n", "expected 'machines <count>', got 'machines 2 # two'"),
        # a bad machine token after good ones, and on a later line sharing a size token
        ("machines 3\njobs 1\njob 0 1 0 2 x\n", "bad machine index in 'job 0 1 0 2 x'"),
        ("machines 2\njobs 2\njob 0 1/2 0\njob 1 1/2 -\n", "bad machine index in 'job 1 1/2 -'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(FileFormatError) as info:
        parse_instance(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("text", "line"),
    [("machines -1\njobs 0\n", "machines -1"), ("machines 2\njobs -1\n", "jobs -1")],
)
def test_parse_names_a_negative_count(text, line):
    with pytest.raises(FileFormatError, match=f"^bad count in '{line}'$"):
        parse_instance(text)


def test_parse_quotes_a_job_line_out_of_order():
    text = "machines 2\njobs 2\njob 1 3 0\njob 0 1 1\n"
    with pytest.raises(FileFormatError, match="^expected job 0, got 1 in 'job 1 3 0'$"):
        parse_instance(text)


def test_parse_keeps_signs_for_validate():
    inst = parse_instance("machines 2\njobs 2\njob 0 +1 0\njob 1 +1/2 1\n")
    assert list(inst.sizes) == [1, Fraction(1, 2)]
    # a negative size parses, and the instance check then rejects it by job
    with pytest.raises(FileFormatError, match="^invalid instance: job 0: nonpositive size$"):
        parse_instance("machines 2\njobs 2\njob 0 -1 0\njob 1 +1/2 1\n")


def _read(text):
    """The instance `parse_instance` reads from `text`, or the type and text of what it raises."""
    try:
        return parse_instance(text)
    except Exception as exc:
        return type(exc), str(exc)


def _per_token(text):
    """What `parse_instance` makes of `text` with the one-pass reader switched off."""
    with mock.patch.object(fileio, "_one_pass", return_value=None):
        return _read(text)


def _never(*args):
    raise AssertionError("a job line was read token by token")


def _variant(rng, value, signed=True):
    """An integer token for `value`: sometimes with leading zeros, sometimes with a '+'."""
    token = "0" * rng.choice((0, 0, 0, 1, 2)) + str(value)
    return "+" + token if signed and rng.random() < 0.1 else token


def _messy_text(rng):
    """A well-formed instance file in a mix of the spellings the format allows.

    About half the files are in the one-pass layout: single spaces, no signs,
    padding or comment lines, and plain ids (sizes and indices may still carry
    leading zeros).
    """
    machines = rng.randint(1, 5)
    small, big = rng.randint(1, 4), rng.randint(1, 9)
    den = rng.choice((1, 1, 2, 3))
    seps = (" ", " ", " ", " ", "  ", "\t", " \t")
    n = rng.randint(0, 8)
    layout = rng.random() < 0.5
    lines = [f"machines {machines}", f"jobs {n}"]
    for job in range(n):
        plain = layout or rng.random() < 0.5  # single spaces and no signs
        size = _variant(rng, rng.choice((small, big)), not plain)
        if den > 1 or rng.random() < 0.2:
            size += "/" + _variant(rng, den, signed=False)
        allowed = rng.sample(range(machines), rng.randint(1, machines))
        machine_tokens = (_variant(rng, i, not plain) for i in allowed)
        job_id = str(job) if layout else _variant(rng, job, not plain)
        tokens = ["job", job_id, size, *machine_tokens]
        line = tokens[0]
        for token in tokens[1:]:
            line += (" " if plain else rng.choice(seps)) + token
        if not layout:
            line = rng.choice(("", "", "", " ", "\t")) + line + rng.choice(("", "", " "))
        lines.append(line)
    for _ in range(0 if layout else rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "# note", "  # job 0 1 0")))
    return "\n".join(lines) + "\n"


def test_parse_matches_the_per_token_path():
    rng = random.Random("fileio-fast-path")
    one_pass = per_token = 0
    for _ in range(800):
        text = _messy_text(rng)
        assert parse_instance(text) == _per_token(text), text
        read = fileio._one_pass(text) is not None
        one_pass, per_token = one_pass + read, per_token + (not read)
    assert one_pass >= 300 and per_token >= 300  # both readers read many files


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("machines 2\njobs 2\njob 0 1 0\njob 0 1 1\n", "expected job 1, got 0 in 'job 0 1 1'"),
        ("machines 2\njobs 1\njob 0 1/0 0\n", "bad rational '1/0': zero denominator"),
        (
            "machines 2\njobs 3\njob 0 1 0\njob 1 2/0 1\njob 2 1/0 0\n",
            "bad rational '2/0': zero denominator",
        ),
        ("machines 1\njobs 1\njob 0 1 5\n", "invalid instance: job 0: machine index out of range"),
        (
            "machines 2\njobs 2\njob 0 1 0\njob 1 1 2\n",
            "invalid instance: job 1: machine index out of range",
        ),
        ("machines 2\njobs 2\njob 0 1 0\njob 1 0 1\n", "invalid instance: job 1: nonpositive size"),
        (
            "machines 1\njobs 3\njob 0 1 0\njob 1 2 0\njob 2 3 0\n",
            "invalid instance: more than two size values",
        ),
    ],
)
def test_parse_errors_in_the_one_pass_layout(monkeypatch, text, message):
    # the one-pass reader reads each file: its header and then n whole job lines
    header = fileio._HEADER.match(text)
    job_count = int(header[2])
    assert len(fileio._JOB_LINES.findall(text)) == job_count == text.count("\n", header.end())
    ids = [line.split()[1] for line in text.splitlines()[2:]]
    if ids == [str(job) for job in range(job_count)]:
        # the one-pass reader raises, or the instance it builds does
        monkeypatch.setattr(fileio, "_job_tokens", _never)
    with pytest.raises(FileFormatError) as info:
        parse_instance(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        # a line the job pattern skips, after the last job line or before a last line with no "\n"
        ("machines 2\njobs 1\njob 0 1 0\njob 1 1 0 # one\n", "expected 1 job lines, found 2"),
        ("machines 2\njobs 2\njob 0 1 0 # a\njob 0 1 0\njob 1 1 1", "expected 2 job lines, found 3"),
    ],
)
def test_the_one_pass_reader_skips_no_line(text, message):
    with pytest.raises(FileFormatError) as info:
        parse_instance(text)
    assert str(info.value) == message


def test_a_canonical_file_reads_no_job_line_token_by_token(monkeypatch):
    instance = random_instance(random.Random("fileio-one-pass"), 300, 7, Fraction(7, 3))
    text = format_instance(instance)
    monkeypatch.setattr(fileio, "_job_tokens", _never)
    assert parse_instance(text) == instance


def _mutate(rng, lines, machines):
    """One drawn mutation of a file's lines, in place; returns its name, or None for no change."""
    kind = rng.choice(_MUTATIONS)
    jobs = [j for j, line in enumerate(lines) if line.startswith("job ") and line.count(" ") >= 3]
    if kind == "comment":
        lines.insert(rng.randint(0, len(lines)), rng.choice(("# note", "  # job 0 1 0", "#")))
    elif kind == "blank line":
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", " ", "\t")))
    elif kind == "extra line":
        extra = rng.choice((*lines[2:], "job 0 1 0 # again", "jobs 1"))  # a copy, or junk
        lines.insert(rng.randint(2, len(lines)), extra)
    elif kind == "tab" and jobs:
        j = rng.choice(jobs)
        spaces = [i for i, char in enumerate(lines[j]) if char == " "]
        i = rng.choice(spaces)
        lines[j] = lines[j][:i] + rng.choice(("\t", " \t", "  ")) + lines[j][i + 1 :]
    elif kind == "bad id" and jobs:
        j = rng.choice(jobs)
        tokens = lines[j].split(" ")
        tokens[1] = rng.choice((str(j - 1), str(j - 3), "0" + tokens[1], "+" + tokens[1], "x"))
        lines[j] = " ".join(tokens)
    elif kind in ("size 0", "size 1/0", "third size") and jobs:
        j = rng.choice(jobs)
        tokens = lines[j].split(" ")
        tokens[2] = {"size 0": "0", "size 1/0": "1/0", "third size": "999/7"}[kind]
        lines[j] = " ".join(tokens)
    elif kind == "index out of range" and jobs:
        j = rng.choice(jobs)
        lines[j] += f" {rng.choice((machines, machines + 5))}"
    elif kind == "wrong count":
        keyword = rng.choice(("machines ", "jobs "))
        i = next(i for i, line in enumerate(lines) if line.startswith(keyword))
        count = lines[i].split(" ")[1]
        lines[i] = f"{keyword}{max(int(count) + rng.choice((-1, 1)), 0)}"
    elif kind not in ("CRLF", "no final newline"):  # those two act when the lines are joined
        return None
    return kind


_MUTATIONS = (
    "comment", "blank line", "extra line", "tab", "bad id", "size 0", "size 1/0",
    "third size", "index out of range", "wrong count", "CRLF", "no final newline",
)


def test_both_readers_agree_on_mutated_canonical_files():
    rng = random.Random("fileio-reader-sweep")
    seen: dict[str, int] = {}
    read = {"one pass": 0, "per token": 0, "error": 0}
    for _ in range(2000):
        machines = rng.randint(1, 6)
        small = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        sizes = (small, small * Fraction(rng.randint(2, 12), rng.randint(1, 4)))
        subsets = [[i for i in range(machines) if mask >> i & 1] for mask in range(1, 2**machines)]
        n = rng.choice((rng.randint(0, 12), rng.randint(0, 300)))
        jobs = [(rng.choice(sizes), rng.choice(subsets)) for _ in range(n)]
        instance = Instance.build(machines, jobs)
        lines = format_instance(instance).splitlines()
        kinds = [_mutate(rng, lines, machines) for _ in range(rng.randint(0, 2))]
        newline = "\r\n" if "CRLF" in kinds else "\n"
        text = newline.join(lines) + ("" if "no final newline" in kinds else newline)
        for kind in kinds:
            seen[kind] = seen.get(kind, 0) + 1
        expected = _per_token(text)
        assert _read(text) == expected, (kinds, text)
        if not kinds:
            assert expected == instance
        if not isinstance(expected, Instance):
            read["error"] += 1
        else:
            read["one pass" if fileio._one_pass(text) else "per token"] += 1
    assert all(seen.get(kind, 0) >= 60 for kind in _MUTATIONS), seen
    assert min(read.values()) >= 300, read


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    ("content", "message"),
    [
        (
            "machines 0\njobs 1\njob 0 1 0\n",
            "invalid instance: machine count must be positive",
        ),
        (
            "machines 2\njobs 2\njob 0 1 0\njob 1 0 1\n",
            "invalid instance: job 1: nonpositive size",
        ),
        (
            "machines 2\njobs 1\njob 0 -1/2 0\n",
            "invalid instance: job 0: nonpositive size",
        ),
        # a job line needs at least one machine, so the file format rejects an
        # empty allowed set before any instance is built
        (
            "machines 2\njobs 1\njob 0 1\n",
            "expected 'job <id> <size> <machines...>', got 'job 0 1'",
        ),
        (
            "machines 2\njobs 2\njob 0 1 0\njob 1 1 0 2\n",
            "invalid instance: job 1: machine index out of range",
        ),
        (
            "machines 2\njobs 1\njob 0 1 -1\n",
            "invalid instance: job 0: machine index out of range",
        ),
        (
            "machines 2\njobs 3\njob 0 1 0\njob 1 2 1\njob 2 3 0 1\n",
            "invalid instance: more than two size values",
        ),
    ],
)
def test_cli_rejects_an_invalid_instance(tmp_path, capsys, command, content, message):
    path = _write(tmp_path, "invalid.txt", content)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_solve_single_job(tmp_path, capsys):
    path = _write(tmp_path, "one.txt", "machines 2\njobs 1\njob 0 3/2 1\n")
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "assign 0 1" in out
    assert "makespan 3/2 1.5000" in out


def test_solve_four_jobs_two_machines_unitk(tmp_path, capsys):
    content = "machines 2\njobs 4\njob 0 2 0\njob 1 1 0 1\njob 2 1 1\njob 3 2 0 1\n"
    path = _write(tmp_path, "four.txt", content)
    assert main(["solve", path, "--mode", "unitk"]) == 0
    out = capsys.readouterr().out
    assert "bound 3/2 1.5000" in out  # 2 - 1/k with k = 2
    assignments = [line for line in out.splitlines() if line.startswith("assign ")]
    assert len(assignments) == 4


def test_solve_gb_triangle(tmp_path, capsys):
    content = "machines 3\njobs 3\njob 0 2 0 1\njob 1 2 1 2\njob 2 2 0 2\n"
    path = _write(tmp_path, "tri.txt", content)
    assert main(["solve", path, "--mode", "gb"]) == 0
    out = capsys.readouterr().out
    machines = [int(line.split()[2]) for line in out.splitlines() if line.startswith("assign ")]
    assert sorted(machines) == [0, 1, 2]  # each machine exactly one big job


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "machines 2\njobs 1\njob 0 0 0\n")
    assert main(["solve", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt")]) == 2


def test_gb_mode_rejects_wide_sets(tmp_path, capsys):
    path = _write(tmp_path, "wide.txt", "machines 3\njobs 1\njob 0 1 0 1 2\n")
    assert main(["solve", path, "--mode", "gb"]) == 2


def test_a_gb_solve_scans_eligibility_three_times(monkeypatch, capsys):
    # the CLI scans once, to pick gb mode or to check an explicit one, and
    # gb_solve_two_valued and its gb_solve_unit_k once each
    scans = []

    def counting(instance):
        scans.append(instance)
        return is_graph_balancing(instance)

    monkeypatch.setattr(cli, "is_graph_balancing", counting)
    monkeypatch.setattr(graph_balancing, "is_graph_balancing", counting)
    path = str(Path(__file__).parent / "data" / "solve_pinned" / "alpha2-gb.txt")
    for mode in ("auto", "gb"):
        scans.clear()
        assert main(["solve", path, "--mode", mode]) == 0
        assert len(scans) == 3, mode
    capsys.readouterr()


def test_unitk_mode_rejects_non_integer_ratio(tmp_path, capsys):
    path = _write(tmp_path, "ratio.txt", "machines 2\njobs 2\njob 0 2/5 0\njob 1 1 1\n")
    assert main(["solve", path, "--mode", "unitk"]) == 2


def test_gen_deterministic(capsys):
    args = ["gen", "--seed", "11", "--jobs", "6", "--machines", "3", "--alpha", "5/2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_gen_gb_flag_limits_allowed_sets(capsys):
    assert main(["gen", "--seed", "3", "--jobs", "8", "--machines", "4", "--gb"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("job "):
            assert len(line.split()) - 3 <= 2


def test_gen_solve_round_trip(tmp_path, capsys):
    assert main(["gen", "--seed", "5", "--jobs", "10", "--machines", "4", "--alpha", "3"]) == 0
    text = capsys.readouterr().out
    path = _write(tmp_path, "gen.txt", text)
    assert main(["solve", path]) == 0


def test_verify_pass_and_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, "v.txt", "machines 2\njobs 2\njob 0 1 0 1\njob 1 1/2 0 1\n")
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "verdict pass" in out
    assert "opt 1 1.0000" in out


def test_verify_fail_with_tight_bound(tmp_path, capsys):
    # forced schedule: both jobs on machine 0, but bound 1 only allows the optimum
    path = _write(tmp_path, "vf.txt", "machines 2\njobs 3\njob 0 1 0 1\njob 1 1 0 1\njob 2 1 0 1\n")
    code = main(["verify", path, "--bound", "1/2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict fail" in out


def test_verify_budget_exceeded(tmp_path, capsys):
    path = _write(
        tmp_path,
        "vb.txt",
        "machines 4\njobs 6\n" + "".join(f"job {j} 1 0 1 2 3\n" for j in range(6)),
    )
    assert main(["verify", path, "--budget", "3"]) == 3
    assert "budget-exceeded" in capsys.readouterr().out


def test_verify_budget_exceeded_on_1500_jobs(tmp_path, capsys):
    # the oracle's descents are 1500 jobs deep, past the recursion limit. At the
    # confined-work floor (500) the search finds a schedule in 2233 nodes; a
    # budget below 1500 ends inside the first descent
    assert main(["gen", "--seed", "1", "--jobs", "1500", "--machines", "3", "--alpha", "1"]) == 0
    path = _write(tmp_path, "deep.txt", capsys.readouterr().out)
    assert main(["verify", path, "--budget", "5000"]) == 0
    assert capsys.readouterr().out == (
        "opt 500 500.0000\nmakespan 500 500.0000\nratio 1 1.0000\nbound 3/2 1.5000\nverdict pass\n"
    )
    assert main(["verify", path, "--budget", "1000"]) == 3
    assert capsys.readouterr().out == "verdict budget-exceeded\n"


def test_verify_budget_exceeded_on_1500_jobs_at_alpha_5_2(tmp_path, capsys):
    # two sizes: the additive branch's load search runs over 1500 jobs first
    assert main(["gen", "--seed", "1", "--jobs", "1500", "--machines", "3", "--alpha", "5/2"]) == 0
    path = _write(tmp_path, "deep.txt", capsys.readouterr().out)
    assert main(["verify", path, "--budget", "5000"]) == 3
    assert capsys.readouterr().out == "verdict budget-exceeded\n"


def test_oracle_budget_env_var(tmp_path, capsys, monkeypatch):
    path = _write(
        tmp_path,
        "env.txt",
        "machines 4\njobs 6\n" + "".join(f"job {j} 1 0 1 2 3\n" for j in range(6)),
    )
    monkeypatch.setenv("TWOVAL_ORACLE_BUDGET", "3")
    assert main(["verify", path]) == 3


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_verify_rejects_nonpositive_budget(tmp_path, capsys, budget):
    path = _write(tmp_path, "nb.txt", "machines 2\njobs 2\njob 0 1 0 1\njob 1 1 0 1\n")
    assert main(["verify", path, "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --budget must be at least 1, got {budget}\n"


@pytest.mark.parametrize("bound", ["0", "-1/2", "0/7"])
def test_verify_rejects_nonpositive_bound(tmp_path, capsys, bound):
    path = _write(tmp_path, "nbd.txt", "machines 2\njobs 2\njob 0 1 0 1\njob 1 1 0 1\n")
    assert main(["verify", path, f"--bound={bound}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --bound must be positive, got {bound}\n"


@pytest.mark.parametrize(
    "size, argv, text",
    [
        ("1/0", ["solve", "FILE"], "1/0"),
        ("1", ["verify", "FILE", "--bound", "1/0"], "1/0"),
        ("1", ["gen", "--seed", "1", "--jobs", "2", "--machines", "2", "--alpha", "0/0"], "0/0"),
        ("1", ["bound", "--alpha", "3/0"], "3/0"),
    ],
)
def test_zero_denominator_is_reported_by_name(tmp_path, capsys, size, argv, text):
    path = _write(tmp_path, "zd.txt", f"machines 1\njobs 1\njob 0 {size} 0\n")
    assert main([path if arg == "FILE" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad rational '{text}': zero denominator\n"


@pytest.mark.parametrize(
    "jobs, alpha, message",
    [
        ("2", "1/2", "alpha must be >= 1"),
        ("2", "-3", "alpha must be >= 1"),
        ("0", "1/2", "jobs and machines must be >= 1"),  # the counts are checked first
    ],
)
def test_gen_rejects_a_bad_alpha_after_the_counts(capsys, jobs, alpha, message):
    argv = ["gen", "--seed", "1", "--jobs", jobs, "--machines", "2", "--alpha", alpha]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_parses_the_bound_before_the_oracle(tmp_path, capsys):
    # the oracle would exceed its budget here; a bad bound must be reported first
    path = _write(
        tmp_path,
        "bb.txt",
        "machines 4\njobs 6\n" + "".join(f"job {j} 1 0 1 2 3\n" for j in range(6)),
    )
    assert main(["verify", path, "--budget", "3", "--bound", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad rational 'abc'")


# budget 3 is exceeded on this instance, so an option read as 3 (or 10) exits 3
WIDE_SIX = "machines 4\njobs 6\n" + "".join(f"job {j} 1 0 1 2 3\n" for j in range(6))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{path}", "--budget", "\uff13"],  # fullwidth 3
        ["verify", "{path}", "--budget", "1_0"],
        ["verify", "{path}", "--budget", " 3"],
        ["gen", "--seed", "1", "--jobs", "3", "--machines", "1_0"],
        ["gen", "--seed", "\u0661", "--jobs", "3", "--machines", "2"],  # Arabic-Indic 1
        ["gen", "--seed", "1", "--jobs", "3 ", "--machines", "2"],
    ],
    ids=["budget-fullwidth", "budget-underscore", "budget-space", "machines-underscore",
         "seed-arabic-indic", "jobs-space"],
)
def test_integer_options_take_only_ascii_digits(tmp_path, capsys, argv):
    path = _write(tmp_path, "wide.txt", WIDE_SIX)
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not an integer" in captured.err


def test_integer_options_keep_signs(capsys):
    assert main(["gen", "--seed", "+7", "--jobs", "+4", "--machines", "3"]) == 0
    signed = capsys.readouterr().out
    assert main(["gen", "--seed", "7", "--jobs", "4", "--machines", "3"]) == 0
    assert capsys.readouterr().out == signed
    assert main(["gen", "--seed", "-7", "--jobs", "4", "--machines", "3"]) == 0


@pytest.mark.parametrize("env", ["0_3", " 4 ", "\uff13", "+\u0663"])
def test_oracle_budget_env_var_takes_only_ascii_digits(tmp_path, capsys, monkeypatch, env):
    path = _write(tmp_path, "wide.txt", WIDE_SIX)
    monkeypatch.setenv("TWOVAL_ORACLE_BUDGET", env)
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: TWOVAL_ORACLE_BUDGET must be an integer, got {env!r}\n"


def test_oracle_budget_env_var_rejects_nonpositive(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "nbe.txt", "machines 2\njobs 2\njob 0 1 0 1\njob 1 1 0 1\n")
    monkeypatch.setenv("TWOVAL_ORACLE_BUDGET", "-3")
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TWOVAL_ORACLE_BUDGET must be at least 1, got -3\n"


def test_solve_output_schedule_is_valid(tmp_path, capsys):
    from twoval_makespan.model import machine_loads

    from helpers import schedule_of

    assert main(["gen", "--seed", "21", "--jobs", "9", "--machines", "4", "--alpha", "7/3"]) == 0
    text = capsys.readouterr().out
    inst = parse_instance(text)  # raises unless the generated instance is valid
    path = _write(tmp_path, "sched.txt", text)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assignment = [None] * inst.job_count
    for line in out.splitlines():
        if line.startswith("assign "):
            _, job, machine = line.split()
            assignment[int(job)] = int(machine)
    machine_loads(inst, schedule_of(assignment))  # raises if any placement is disallowed


def test_solve_prints_the_nonconstructive_note_above_alpha_five(tmp_path, capsys):
    assert main(["gen", "--seed", "4", "--jobs", "12", "--machines", "3", "--alpha", "6"]) == 0
    path = _write(tmp_path, "alpha6.txt", capsys.readouterr().out)
    assert main(["solve", path]) == 0
    assert "# nonconstructive 11/6 1.8333\n" in capsys.readouterr().out


def test_solve_rejects_a_size_with_two_slashes(tmp_path, capsys):
    path = _write(tmp_path, "slashes.txt", "machines 1\njobs 1\njob 0 1/2/3 0\n")
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad rational '1/2/3'\n"


def test_bound_table(capsys):
    assert main(["bound", "--alpha", "5/2"]) == 0
    out = capsys.readouterr().out
    assert "f1 6/5 1.2000" in out
    assert "expr1 9/5 1.8000" in out
    assert "expr2 7/4 1.7500" in out
    assert "min 7/4 1.7500" in out


def test_bound_table_gb(capsys):
    assert main(["bound", "--alpha", "23/10", "--gb"]) == 0
    out = capsys.readouterr().out
    assert "min 33/20 1.6500" in out
    assert "worst-alpha" in out


def test_bound_rejects_bad_alpha(capsys):
    assert main(["bound", "--alpha", "1"]) == 2
    assert main(["bound", "--alpha", "3/2", "--gb"]) == 2


def test_bound_nonconstructive_note(capsys):
    assert main(["bound", "--alpha", "10"]) == 0
    out = capsys.readouterr().out
    assert "nonconstructive 53/30" in out


def _child_env():
    """The environment with the imported package's src directory on PYTHONPATH."""
    src = str(Path(twoval_makespan.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_runs():
    # the child imports the package from wherever this test imported it
    proc = subprocess.run(
        [sys.executable, "-m", "twoval_makespan", "bound", "--alpha", "5/2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "min 7/4 1.7500" in proc.stdout


def test_solve_into_a_pipe_closed_early_exits_141(tmp_path, capsys):
    # as in `solve big.txt | head -1`: the schedule, about 170 KB, outgrows a
    # 64 KB pipe buffer, so the solver is still writing when the pipe closes
    assert main(["gen", "--seed", "1", "--jobs", "12000", "--machines", "5", "--alpha", "1"]) == 0
    path = _write(tmp_path, "big.txt", capsys.readouterr().out)
    proc = subprocess.Popen(
        [sys.executable, "-m", "twoval_makespan", "solve", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.readline().startswith(b"assign 0 ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err
