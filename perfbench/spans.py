"""Span tracing around the package's public functions, from outside the package.

Each traced function is wrapped once and the wrapper is rebound in every
module namespace of the package that holds the original, so calls made
through `from .flow import min_feasible_T` in `unitk` are seen as well as
calls through `flow` itself. `Dinic.max_flow` is rebound on the class.
Spans (name, start, end, parent, operation) stay in memory until the run
writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "twoval_makespan"

# module.attribute paths; the span name is the module plus the last attribute
TRACED = (
    "maxflow.Dinic.max_flow",
    "flow.build_network",
    "flow.max_flow_integral",
    "flow.min_feasible_T",
    "flow.extract_assignment",
    "matching.maximum_bipartite_matching",
    "unitk.solve_unit_k",
    "lenstra.load_grid",
    "lenstra.fractional_assign_plain",
    "lenstra.min_feasible_fractional",
    "lenstra.cancel_cycles",
    "lenstra.round_forest",
    "lenstra.lenstra_solve",
    "graph_balancing.gb_solve_two_valued",
    "graph_balancing.gb_solve_unit_k",
    "graph_balancing.orient_components",
    "graph_balancing.gb_perfect_matching_opt1",
    "graph_balancing.gb_forest_round",
    "twovalued.solve_two_valued",
    "twovalued.pick_best",
    "oracle.brute_force_opt",
    "fileio.parse_instance",
    "model.makespan",
)

# per-call observations of a span's result, reported as their mean per call
NOTES = {
    "flow.build_network": ("arcs", "count", lambda network: len(network.arcs)),
    "flow.min_feasible_T": ("none_frac", "ratio", lambda estimate: estimate is None),
    "lenstra.load_grid": ("points", "count", len),
    "lenstra.fractional_assign_plain": ("feasible_frac", "ratio", lambda found: found is not None),
    "graph_balancing.gb_perfect_matching_opt1": (
        "found_frac", "ratio", lambda found: found is not None,
    ),
}

OPERATION = "bench.op"
MODULES = (
    "maxflow", "flow", "matching", "unitk", "lenstra", "graph_balancing",
    "twovalued", "oracle", "fileio", "model", "bench",
)

# spans each workload must record, so a missed rebinding fails instead of reading 0
EXPECTED = {
    "unitk-planted": (
        "fileio.parse_instance", "unitk.solve_unit_k", "flow.min_feasible_T",
        "flow.build_network", "flow.max_flow_integral", "flow.extract_assignment",
        "maxflow.max_flow", "matching.maximum_bipartite_matching", "model.makespan",
    ),
    "general-many-big": (
        "fileio.parse_instance", "twovalued.solve_two_valued", "unitk.solve_unit_k",
        "flow.min_feasible_T", "maxflow.max_flow", "lenstra.lenstra_solve",
        "lenstra.load_grid", "lenstra.fractional_assign_plain",
        "lenstra.min_feasible_fractional", "lenstra.cancel_cycles", "lenstra.round_forest",
        "twovalued.pick_best", "model.makespan",
    ),
    "gb-small-alpha": (
        "fileio.parse_instance", "graph_balancing.gb_solve_two_valued",
        "graph_balancing.gb_solve_unit_k", "graph_balancing.orient_components",
        "graph_balancing.gb_perfect_matching_opt1", "graph_balancing.gb_forest_round",
        "matching.maximum_bipartite_matching", "flow.min_feasible_T", "maxflow.max_flow",
        "lenstra.lenstra_solve", "lenstra.load_grid", "lenstra.min_feasible_fractional",
        "lenstra.cancel_cycles", "lenstra.round_forest", "twovalued.pick_best",
    ),
    "certify-small": (
        "fileio.parse_instance", "oracle.brute_force_opt", "twovalued.solve_two_valued",
        "graph_balancing.gb_solve_two_valued", "lenstra.lenstra_solve",
    ),
}

NAME, START, END, PARENT, OP, NOTE = range(6)


def span_name(target: str) -> str:
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent, self.ops, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def operation(self):
        """Root span of one timed operation; spans inside share its id."""
        span = self._begin(OPERATION)
        try:
            yield
        finally:
            self._end(span)
            self.ops += 1

    def _wrap(self, name: str, function):
        note = NOTES.get(name, (None, None, None))[2]
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._end(span)
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function; a missing one raises AttributeError."""
        package_modules = [
            module for key, module in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for target in TRACED:
            module_name, *path = target.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(span_name(target), original)
            holders = package_modules if len(path) == 1 else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        return counts

    def missing(self, workload: str) -> list[str]:
        counts = self.calls()
        return [name for name in EXPECTED[workload] if not counts.get(name)]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures per operation, self-time shares and span notes."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        self_time: dict[str, float] = {}
        notes: dict[str, list] = {}
        probes = 0
        for index, span in enumerate(self.spans):
            name = span[NAME]
            self_time[name] = self_time.get(name, 0.0) + span[END] - span[START] - covered[index]
            if span[NOTE] is not None:
                notes.setdefault(name, []).append(span[NOTE])
            parent = span[PARENT]
            if name == "flow.max_flow_integral" and parent >= 0 \
                    and self.spans[parent][NAME] == "flow.min_feasible_T":
                probes += 1
        ops = max(self.ops, 1)
        counts = self.calls()
        result: dict[str, tuple[float, str]] = {}
        for target in TRACED:
            name = span_name(target)
            result[f"{name}.calls"] = (counts.get(name, 0) / ops, "count/op")
            result[f"{name}.self_s"] = (self_time.get(name, 0.0) / ops, "s/op")
        for name, (label, unit, _) in NOTES.items():
            values = notes.get(name, [])
            result[f"{name}.{label}"] = (sum(values) / len(values) if values else 0.0, unit)
        searches = counts.get("flow.min_feasible_T", 0)
        result["flow.probes_per_search"] = (probes / searches if searches else 0.0, "count")
        total = sum(s[END] - s[START] for s in self.spans if s[NAME] == OPERATION) or 1.0
        for module in MODULES:
            busy = sum(t for name, t in self_time.items() if name.split(".")[0] == module)
            result[f"share.{module}"] = (busy / total, "ratio")
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = dict(zip(("name", "start", "end", "parent", "op"), span))
                handle.write(json.dumps(record) + "\n")
