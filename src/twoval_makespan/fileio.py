"""Line-based instance files.

    # a comment: only whole lines starting with '#'
    machines <m>
    jobs <n>
    job <id> <num>/<den> <machine indices...>

Sizes are exact rationals, `/1` optional for integers; decimals are rejected.
Every integer is ASCII digits with an optional sign; the counts must not be
negative. A '#' after other text is no comment: it makes the line an error.
Job ids must be 0..n-1 in order. Printing then parsing is the identity.

An invalid instance (see `model`) raises `FileFormatError` with the text
`Instance` raises: "invalid instance: <violation>".

A file in exactly `format_instance`'s layout (no comments or blank lines,
single spaces, unsigned digits, ids 0..n-1 in order) is read in one pass: one
match for the header, one `findall` for the job lines. Any other text is read
line by line and token by token (`_job_tokens`); both readers read the same
jobs and raise the same errors. Each distinct size token is parsed once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat

from .model import Instance

_INTEGER = re.compile(r"[+-]?[0-9]+")
_HEADER = re.compile(r"machines ([0-9]+)\njobs ([0-9]+)\n")
_JOB_LINES = re.compile(r"^job ([0-9]+) ([0-9]+(?:/[0-9]+)?) ([0-9]+(?: [0-9]+)*)$", re.M)
_Columns = tuple[int, tuple[Fraction, ...], tuple[frozenset[int], ...]]  # machine count, sizes, sets


class FileFormatError(ValueError):
    pass


def parse_int(token: str) -> int:
    """ASCII digits with an optional sign (int() alone also takes '1_0' and non-ASCII digits)."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_fraction(text: str) -> Fraction:
    """Parse `num` or `num/den`; anything else (decimals included) is rejected."""
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(parse_int(parts[0]))
        if len(parts) == 2:
            return Fraction(parse_int(parts[0]), parse_int(parts[1]))
    except ValueError as exc:
        raise FileFormatError(f"bad rational {text!r}: {exc}") from None
    except ZeroDivisionError:
        raise FileFormatError(f"bad rational {text!r}: zero denominator") from None
    raise FileFormatError(f"bad rational {text!r}")


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_instance(text: str) -> Instance:
    columns = _one_pass(text) or _per_token(text)
    try:
        return Instance(*columns)
    except ValueError as exc:  # the instance's own check: same text, as a format error
        raise FileFormatError(str(exc)) from None


def _one_pass(text: str) -> _Columns | None:
    """The columns of a nonempty file in `format_instance`'s layout, else None."""
    header = _HEADER.match(text)
    rows = _JOB_LINES.findall(text, header.end()) if header and text.endswith("\n") else ()
    # every line after the header is one whole job line, and the ids count up from 0
    if not rows or not len(rows) == int(header[2]) == text.count("\n", header.end()):
        return None
    ids, tokens, indices = zip(*rows)
    if ids != tuple(map(str, range(len(rows)))):
        return None
    values = {token: parse_fraction(token) for token in dict.fromkeys(tokens)}
    allowed = map(frozenset, map(map, repeat(int), map(str.split, indices)))
    return int(header[1]), tuple(map(values.__getitem__, tokens)), tuple(allowed)


def _per_token(text: str) -> _Columns:
    """The machine count and columns of any text, line by line; raises on the first error."""
    stripped = (line.strip() for line in text.splitlines())
    lines = [line for line in stripped if line and not line.startswith("#")]
    if len(lines) < 2:
        raise FileFormatError("expected 'machines <m>' and 'jobs <n>' header lines")

    def header(line: str, keyword: str) -> int:
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise FileFormatError(f"expected '{keyword} <count>', got {line!r}")
        if _INTEGER.fullmatch(parts[1]) is None or int(parts[1]) < 0:
            raise FileFormatError(f"bad count in {line!r}")
        return int(parts[1])

    machine_count = header(lines[0], "machines")
    job_count = header(lines[1], "jobs")
    body = lines[2:]
    if len(body) != job_count:
        raise FileFormatError(f"expected {job_count} job lines, found {len(body)}")
    values: dict[str, Fraction] = {}  # size token -> its value, parsed once per distinct token
    jobs = [_job_tokens(line, position, values) for position, line in enumerate(body)]
    return machine_count, tuple(size for size, _ in jobs), tuple(machines for _, machines in jobs)


def _job_tokens(
    line: str, position: int, values: dict[str, Fraction]
) -> tuple[Fraction, frozenset[int]]:
    """Job line `position` read token by token, any whitespace and signs allowed.

    Raises on the first bad token; `values` caches each size token's value.
    """
    parts = line.split()
    if len(parts) < 4 or parts[0] != "job":
        raise FileFormatError(f"expected 'job <id> <size> <machines...>', got {line!r}")
    if _INTEGER.fullmatch(parts[1]) is None:
        raise FileFormatError(f"bad job id in {line!r}")
    if int(parts[1]) != position:
        raise FileFormatError(f"expected job {position}, got {int(parts[1])} in {line!r}")
    size = values.get(parts[2])
    if size is None:
        size = values[parts[2]] = parse_fraction(parts[2])
    machines = parts[3:]
    if not all(map(_INTEGER.fullmatch, machines)):
        raise FileFormatError(f"bad machine index in {line!r}")
    return size, frozenset(map(int, machines))


def format_instance(instance: Instance) -> str:
    lines = [f"machines {instance.machine_count}", f"jobs {instance.job_count}"]
    for idx, (size, allowed) in enumerate(zip(instance.sizes, instance.allowed)):
        machines = " ".join(map(str, allowed))
        lines.append(f"job {idx} {format_fraction(size)} {machines}")
    return "\n".join(lines) + "\n"
