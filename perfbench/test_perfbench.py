"""Tests of the benchmark itself: generators, ground truth and a smoke run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0.1", "--seed", "5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _names(result: dict) -> dict[str, set[str]]:
    by_workload: dict[str, set[str]] = {}
    for key in result["metrics"]:
        workload, name = key.split("/")
        by_workload.setdefault(workload, set()).add(name)
    return by_workload


def test_smoke_run_reports_every_end_to_end_metric():
    result = _smoke(trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert _names(result) == {w["name"]: expected for w in BENCHMARK["workloads"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = _smoke(trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    assert _names(result) == {w["name"]: expected for w in BENCHMARK["workloads"]}


def test_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    for metric in BENCHMARK["per_layer"]:
        assert run._layer_unit(metric["name"]) == metric["unit"]


def test_global_edges_match_brute_force():
    truth = gen.StTruth(pous=3, call_edges=0,
                        writers={"a": {"P", "Q"}, "b": {"P"}},
                        readers={"a": {"P", "Q", "R"}, "b": {"Q"}, "c": {"R"}})
    brute = sum(
        1
        for g, ws in truth.writers.items()
        for w in ws
        for r in truth.readers.get(g, ())
        if w != r
    )
    assert truth.global_edges == brute == 5


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_inputs_depend_only_on_seed(tmp_path):
    workload = run.SMOKE["analyze"]
    first = run.make_inputs(workload, 7, tmp_path / "a")
    second = run.make_inputs(workload, 7, tmp_path / "b")
    other = run.make_inputs(workload, 8, tmp_path / "c")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")
    assert first.truth_json() == second.truth_json()
    assert other.st_truth is not None and other.st_truth.global_edges > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
