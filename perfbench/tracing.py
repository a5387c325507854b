"""Spans around calls into swmat's modules, recorded from outside the package.

``Tracer.installed()`` replaces each traced public function with a wrapper in
every ``swmat`` module namespace that holds it (``from .stparse import
parse_file`` binds a second name), so calls between modules are seen too.
A span is (id, parent id, request id, name, start, end); spans stay in
memory and the caller writes them out at the end.  Counts are taken at the
same boundaries from each call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

Counter = Callable[[tuple, Any], dict[str, float]]


def _sites(result) -> dict[str, float]:
    return {
        "project.call_sites": len(result),
        "project.external_sites": sum(s.resolution.name == "EXTERNAL" for s in result),
    }


# (module, attribute) -> counter over (args, result); a class attribute is
# written as "Class.method"
TRACED: dict[tuple[str, str], Counter | None] = {
    ("stparse", "tokenize"): lambda a, r: {"stparse.tokens": len(r[0]),
                                           "stparse.bytes": len(a[0])},  # ASCII sources
    ("stparse", "parse_file"): None,
    ("project", "parse_project"): lambda a, r: {"project.globals": len(r[0].globals)},
    ("project", "build_symbol_table"): None,
    ("project", "extract_call_sites"): lambda a, r: _sites(r),
    ("project", "extract_global_accesses"): None,
    ("model", "validate_project"): lambda a, r: {"model.diagnostics": len(r)},
    ("graphs", "complexity"): None,
    ("graphs", "build_call_graph"): lambda a, r: {"graphs.call_edges": len(r.edges)},
    ("graphs", "build_global_comm_graph"): lambda a, r: {"graphs.global_edges": len(r.edges)},
    ("graphs", "emit_dot"): lambda a, r: {"graphs.dot_bytes": len(r)},
    ("modularity", "assess_project"): None,
    ("modularity", "assign_levels"): None,
    ("modularity", "classify_structure_style"): None,
    ("modularity", "detect_clones"): lambda a, r: {"modularity.clone_groups": len(r.groups)},
    ("modularity", "detect_cross_cutting"): None,
    ("modularity", "grade_meyer"): None,
    ("maturity", "load_answers_file"): None,
    ("maturity", "build_report"): lambda a, r: {"maturity.companies": 1},
    ("maturity", "cohort_stats"): None,
    ("maturity", "normalized_answers"): None,
    ("maturity", "pearson"): None,
    ("reporting", "emit_radar_svg"): lambda a, r: {"reporting.bytes": len(r)},
    ("reporting", "emit_overview_csv"): lambda a, r: {"reporting.bytes": len(r)},
    ("reporting", "emit_scatter_csv"): lambda a, r: {"reporting.bytes": len(r)},
    ("configurator", "generate_parameter_project"): lambda a, r: {
        "configurator.lines": sum(len(f.lines) for f in r.files)},
    ("configurator", "GeneratedProject.write_to"): None,
}

# inclusive time of one span name -> metric; the remaining time metrics are
# derived in Tracer.take_metrics
_INCLUSIVE = {
    "stparse.tokenize": "stparse.tokenize_s",
    "project.parse_project": "project.parse_project_s",
    "model.validate_project": "model.validate_project_s",
    "graphs.complexity": "graphs.complexity_s",
    "graphs.build_call_graph": "graphs.build_call_graph_s",
    "graphs.build_global_comm_graph": "graphs.build_global_comm_graph_s",
    "graphs.emit_dot": "graphs.emit_dot_s",
    "modularity.assign_levels": "modularity.assign_levels_s",
    "modularity.classify_structure_style": "modularity.classify_structure_style_s",
    "modularity.detect_clones": "modularity.detect_clones_s",
    "modularity.detect_cross_cutting": "modularity.detect_cross_cutting_s",
    "modularity.grade_meyer": "modularity.grade_meyer_s",
    "modularity.assess_project": "modularity.assess_project_s",
    "maturity.load_answers_file": "maturity.load_answers_s",
    "maturity.build_report": "maturity.build_report_s",
    "maturity.cohort_stats": "maturity.cohort_stats_s",
    "maturity.normalized_answers": "maturity.normalized_answers_s",
    "maturity.pearson": "maturity.pearson_s",
    "reporting.emit_radar_svg": "reporting.emit_radar_svg_s",
    "reporting.emit_overview_csv": "reporting.emit_overview_csv_s",
    "reporting.emit_scatter_csv": "reporting.emit_scatter_csv_s",
    "configurator.generate_parameter_project": "configurator.generate_parameter_project_s",
    "configurator.GeneratedProject.write_to": "configurator.write_to_s",
}
_RESOLVE = ("project.build_symbol_table", "project.extract_call_sites",
            "project.extract_global_accesses")
_COUNTS = ("stparse.tokens", "stparse.bytes", "project.call_sites", "project.external_sites",
           "project.globals", "model.diagnostics", "graphs.call_edges", "graphs.global_edges",
           "graphs.dot_bytes", "modularity.clone_groups", "maturity.companies",
           "reporting.bytes", "configurator.lines")


class Tracer:
    """Records spans and counts; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._request = 0
        self._counts: dict[str, float] = {}
        self._first_span = 0  # index of the first span not yet summarized

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self._request, name, start, end))
            if counter is not None:
                for key, value in counter(args, result).items():
                    self._counts[key] = self._counts.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = {n: m for n, m in sys.modules.items()
                   if n.startswith("swmat.") and m is not None}
        undo: list[tuple[object, str, object]] = []
        for (module, attr), counter in TRACED.items():
            owner: object = modules[f"swmat.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(f"{module}.{attr}", original, counter)
            holders = [owner] if path else [m for m in modules.values()
                                            if getattr(m, leaf, None) is original]
            for holder in holders:
                undo.append((holder, leaf, original))
                setattr(holder, leaf, wrapper)
        try:
            yield self
        finally:
            for holder, leaf, original in reversed(undo):
                setattr(holder, leaf, original)

    @contextlib.contextmanager
    def request(self, name: str):
        """One CLI command: a root span that the module spans nest under."""
        self._request += 1
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, None, self._request, f"cli.{name}", start, end))

    def take_metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans and counts since the last call."""
        spans = self.spans[self._first_span:]
        self._first_span = len(self.spans)
        inclusive: dict[str, float] = {}
        for _, _, _, name, start, end in spans:
            inclusive[name] = inclusive.get(name, 0.0) + end - start
        own = self_times(spans)

        metrics = {metric: inclusive.get(name, 0.0) for name, metric in _INCLUSIVE.items()}
        metrics["stparse.parse_s"] = own.get("stparse.parse_file", 0.0)
        metrics["project.resolve_s"] = sum(inclusive.get(n, 0.0) for n in _RESOLVE)
        metrics["project.self_s"] = own.get("project.parse_project", 0.0)
        counts, self._counts = self._counts, {}
        metrics.update({name: counts.get(name, 0) for name in _COUNTS})
        parsing = inclusive.get("stparse.parse_file", 0.0)
        metrics["stparse.tokens_per_s"] = metrics["stparse.tokens"] / parsing if parsing else 0.0
        return metrics


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children."""
    child_time: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    own: dict[str, float] = {}
    for span_id, _, _, name, start, end in spans:
        own[name] = own.get(name, 0.0) + end - start - child_time.get(span_id, 0.0)
    return own


def import_time(src: Path) -> float:
    """Seconds a fresh interpreter spends importing swmat.cli and building its parser."""
    code = ("import time; t = time.perf_counter(); import swmat.cli as c; "
            "c.build_parser(); print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)
