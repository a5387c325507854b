"""Output checks against the generators' ground truth.

Each check returns a list of problems; an empty list means the command's
outputs are correct.  Nothing here imports swmat: expected values come from
``gen.py`` only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

from gen import CohortTruth, ConfigureTruth, StTruth

_SUMMARY_RE = re.compile(
    r"^project \S+: (\d+) POUs, (\d+) call edges, (\d+) global edges$", re.MULTILINE
)


def digests(paths: list[Path]) -> dict[str, str]:
    """sha256 of each file, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_help(code: int, stdout: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    for command in ("analyze", "score", "cohort", "correlate", "configure"):
        if command not in stdout:
            problems.append(f"--help does not list {command!r}")
    return problems


def check_analyze(code: int, stdout: str, out: Path, pous: int, call_edges: int,
                  global_edges: int, clone_groups: list[list[str]]) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    if code != 0:
        return problems
    match = _SUMMARY_RE.search(stdout)
    if match is None:
        return problems + ["summary line missing from stdout"]
    _expect(problems, "POUs", int(match.group(1)), pous)
    _expect(problems, "call edges", int(match.group(2)), call_edges)
    _expect(problems, "global edges", int(match.group(3)), global_edges)
    _expect(problems, "call DOT edges", (out / "calls.dot").read_bytes().count(b" -> "),
            call_edges)
    _expect(problems, "globals DOT edges",
            (out / "globals.dot").read_bytes().count(b" -> "), global_edges)
    assessment = json.loads((out / "assessment.json").read_text(encoding="utf-8"))
    _expect(problems, "assessment pous", assessment.get("pous"), pous)
    _expect(problems, "clone groups", assessment.get("clone_groups"), clone_groups)
    return problems


def check_st_analyze(code: int, stdout: str, out: Path, truth: StTruth) -> list[str]:
    return check_analyze(code, stdout, out, truth.pous, truth.call_edges,
                         truth.global_edges, truth.clone_groups)


def check_roundtrip_analyze(code: int, stdout: str, out: Path,
                            truth: ConfigureTruth) -> list[str]:
    return check_analyze(code, stdout, out, truth.pous, truth.call_edges, 0,
                         truth.clone_groups)


def check_configure(code: int, generated: Path, truth: ConfigureTruth) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    if code != 0:
        return problems
    _expect(problems, "generated files", sorted(p.name for p in generated.iterdir()),
            truth.output_files)
    _expect(problems, "tasks.txt", (generated / "tasks.txt").read_text(encoding="utf-8"),
            truth.task_line + "\n")
    declared = (generated / "parameters_globals.st").read_text(encoding="utf-8").splitlines()
    if sorted(declared[1:-1]) != truth.global_lines or declared[:1] != ["VAR_GLOBAL"]:
        problems.append("parameters_globals.st does not declare the table's parameters")
    return problems


def check_cohort(code: int, out: Path, truth: CohortTruth) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    if code != 0:
        return problems
    rows = list(csv.reader(io.StringIO((out / "overview.csv").read_text(encoding="utf-8"))))
    _expect(problems, "overview header", rows[:1],
            [["company", "category", "m_mod", "m_test", "m_op", "overall"]])
    body = rows[1:]
    _expect(problems, "overview rows", len(body), truth.companies)
    mismatched = [got for got, want in zip(body, truth.overview) if got != want]
    if mismatched:
        problems.append(f"{len(mismatched)} overview rows differ, first {mismatched[0]}")
    radars = list(out.glob("radar_*.svg"))
    _expect(problems, "radar files", len(radars), truth.companies)
    for pair, points in truth.scatter_points.items():
        path = out / f"scatter_{pair}.csv"
        if not path.exists():
            problems.append(f"{path.name} missing")
            continue
        kinds = [row[-1] for row in csv.reader(io.StringIO(path.read_text(encoding="utf-8")))]
        _expect(problems, f"{path.name} points", kinds.count("point"), points)
    return problems


def check_correlate(code: int, out_file: Path, truth: CohortTruth) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    if code != 0:
        return problems
    rows = list(csv.reader(io.StringIO(out_file.read_text(encoding="utf-8"))))
    _expect(problems, "correlate header", rows[:1], [["target", "r", "n", "significance"]])
    got = {int(row[0]): row for row in rows[1:]}
    _expect(problems, "correlate targets", sorted(got), sorted(truth.correlate))
    for target, (n, r) in truth.correlate.items():
        row = got.get(target)
        if row is None:
            continue
        _expect(problems, f"target {target} n", int(row[2]), n)
        # r is printed with four decimals
        if abs(float(row[1]) - r) > 6e-5:
            problems.append(f"target {target} r: got {row[1]}, expected {r:.6f}")
        if row[3] not in ("none", "p<0.05", "p<0.01"):
            problems.append(f"target {target}: unknown significance {row[3]!r}")
    return problems
