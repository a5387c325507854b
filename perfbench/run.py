"""Seeded end-to-end benchmark for the swmat command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

The benchmark generates its inputs from ``--seed``, then runs a closed loop
for ``--seconds``: one client, one command at a time, no parallel workers.
Each pass times one fresh ``python -m swmat --help`` (set-up) and then the
workload's job, its commands run back to back, each as a fresh ``python -m
swmat`` process under a memory cap.  Every output is checked against the
generators' ground truth, and its sha256 must repeat across passes.

With ``--trace 1`` all four commands (configure, analyze, cohort,
correlate) run in this process through ``swmat.cli.run``, the workload's
inputs large and the rest small, with spans recorded around calls into each
module (see ``tracing.py``); that run reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (samples, host facts, output
sha256 digests) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# A command that needs more than this much address space fails cleanly
# (MemoryError or a kill) instead of taking the machine's memory.
MEMORY_CAP_BYTES = 1536 * 2**20
# Children cannot hang the run: each one gets this much CPU time at most.
CPU_CAP_S = 120


@dataclass(frozen=True)
class Workload:
    why: str
    job: tuple[str, ...]  # the commands one timed pass runs, in order
    items: str  # what job_items_per_s counts: "pous", "companies" or "rows"
    fbs: int  # size of the analyzed ST project; 0 analyzes the configured output
    hot_globals: int
    hot_per_fb: int
    clone_pairs: int
    rows: int  # parameter-table rows for configure
    companies: int  # answer files for cohort and correlate


WORKLOADS = {
    # Parsing, resolution and the global graph together: 300 FBs with 20
    # IF/ELSE blocks each in a deep call DAG, every FB reading and writing 9
    # of 30 hot globals, which makes ~240k writer x reader edges.  Parsing
    # and the global graph with its DOT each take a large share of analyze.
    "analyze": Workload(
        "300 FBs with 20 IF/ELSE blocks in a deep call DAG sharing 30 hot globals "
        "(~240k writer x reader edges): parsing and the global graph dominate",
        job=("analyze",), items="pous",
        fbs=300, hot_globals=30, hot_per_fb=9, clone_pairs=4, rows=10, companies=20,
    ),
    # 1000 answer files: cohort scores each company (twice, today) and writes
    # a radar SVG per company; correlate only reads the same directory.  No
    # ST code is parsed, so analyze-side changes should show no change here.
    "cohort": Workload(
        "1000 answer files through cohort (scoring, one radar SVG each) and then "
        "correlate on the same directory",
        job=("cohort", "correlate"), items="companies",
        fbs=20, hot_globals=0, hot_per_fb=0, clone_pairs=1, rows=10, companies=1000,
    ),
    # The only workload that exercises the configurator at size, per-instance
    # expansion (a linear POU lookup per instance), and a project where every
    # component is a clone.  It has no global accesses, so the global graph
    # stays empty: global-graph changes should show no change here.
    "configure-roundtrip": Workload(
        "600-row parameter table through configure, then analyze --per-instance "
        "on the generated project, where every component is a clone",
        job=("configure", "analyze"), items="rows",
        fbs=0, hot_globals=0, hot_per_fb=0, clone_pairs=0, rows=600, companies=20,
    ),
}

SMOKE = {
    name: replace(w, fbs=(12 if w.fbs else 0), hot_globals=min(w.hot_globals, 4),
                  hot_per_fb=min(w.hot_per_fb, 2), clone_pairs=min(w.clone_pairs, 1),
                  rows=6, companies=12)
    for name, w in WORKLOADS.items()
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
}


# --- inputs -----------------------------------------------------------------------


@dataclass
class Inputs:
    work: Path
    project: Path
    st_truth: gen.StTruth | None
    config_dir: Path
    configure_truth: gen.ConfigureTruth
    cohort_dir: Path
    cohort_truth: gen.CohortTruth

    def items(self, kind: str) -> int:
        if kind == "companies":
            return self.cohort_truth.companies
        if kind == "rows":
            return self.configure_truth.rows
        return self.st_truth.pous if self.st_truth else self.configure_truth.pous

    def truth_json(self) -> dict:
        return {
            "analyze": (self.st_truth or self.configure_truth).to_json(),
            "configure": self.configure_truth.to_json(),
            "cohort": self.cohort_truth.to_json(),
        }


def make_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config_dir = work / "config"
    configure_truth = gen.parameter_config(config_dir, seed, workload.rows)
    if workload.fbs:
        project = work / "project"
        st_truth = gen.st_project(project, seed, workload.fbs,
                                  clone_pairs=workload.clone_pairs,
                                  hot_globals=workload.hot_globals,
                                  hot_per_fb=workload.hot_per_fb)
    else:
        project, st_truth = work / "generated", None
    cohort_dir = work / "cohort"
    cohort_truth = gen.cohort(cohort_dir, seed, workload.companies)
    return Inputs(work, project, st_truth, config_dir, configure_truth, cohort_dir,
                  cohort_truth)


# --- commands -----------------------------------------------------------------------


@dataclass
class Command:
    key: str
    argv: list[str]
    outputs: Path  # file or directory the command writes
    check: Callable[[int, str], list[str]]

    def output_files(self) -> list[Path]:
        if self.outputs.is_dir():
            return [p for p in self.outputs.iterdir() if p.is_file()]
        return [self.outputs] if self.outputs.exists() else []

    def clean(self) -> None:
        if self.outputs.is_dir():
            shutil.rmtree(self.outputs)
        elif self.outputs.exists():
            self.outputs.unlink()
        if self.key == "analyze":  # analyze writes into the directory, not creates it
            self.outputs.mkdir(parents=True)


def commands(inputs: Inputs) -> list[Command]:
    work = inputs.work
    generated = work / "generated"
    analysis = work / "analysis"
    cohort_out = work / "cohort_out"
    correlations = work / "correlations.csv"
    schema = str(inputs.cohort_dir / "schema.json")
    answers = str(inputs.cohort_dir / "answers")
    analyze = ["analyze", str(inputs.project), "--dot", str(analysis / "calls.dot"),
               "--globals-dot", str(analysis / "globals.dot"),
               "--assessment", str(analysis / "assessment.json")]
    if inputs.st_truth is None:
        analyze.append("--per-instance")
        check_analyze = lambda code, out: checks.check_roundtrip_analyze(  # noqa: E731
            code, out, analysis, inputs.configure_truth)
    else:
        check_analyze = lambda code, out: checks.check_st_analyze(  # noqa: E731
            code, out, analysis, inputs.st_truth)
    return [
        Command("configure",
                ["configure", "--mode", "parameter",
                 "--templates", str(inputs.config_dir / "templates"),
                 "--config", str(inputs.config_dir / "config.json"), "--out", str(generated)],
                generated,
                lambda code, out: checks.check_configure(code, generated,
                                                         inputs.configure_truth)),
        Command("analyze", analyze, analysis, check_analyze),
        Command("cohort",
                ["cohort", "--schema", schema, "--answers-dir", answers,
                 "--out", str(cohort_out)],
                cohort_out,
                lambda code, out: checks.check_cohort(code, cohort_out, inputs.cohort_truth)),
        Command("correlate",
                ["correlate", "--schema", schema, "--answers-dir", answers,
                 "--interaction", ",".join(map(str, gen.INTERACTION)),
                 "--targets", ",".join(map(str, gen.TARGETS)), "--out", str(correlations)],
                correlations,
                lambda code, out: checks.check_correlate(code, correlations,
                                                         inputs.cohort_truth)),
    ]


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S))


def run_child(argv: list[str], log: Path) -> tuple[int, str, float, float]:
    """Run ``python -m swmat ARGV``; return exit code, stdout, wall s, peak RSS MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "swmat", *argv], stdout=out,
                                stderr=err, env=env, cwd=ROOT, preexec_fn=_limit_child)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, log.read_text(encoding="utf-8"), wall, usage.ru_maxrss / 1024


class Ledger:
    """Counts commands and failures; remembers each command's first output digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict[str, str]] = {}

    def record(self, key: str, problems: list[str], outputs: list[Path] | None) -> bool:
        self.attempted += 1
        if outputs is not None and not problems:
            found = checks.digests(outputs)
            first = self.digests.setdefault(key, found)
            if found != first:
                changed = sorted(k for k in set(found) | set(first) if found.get(k) != first.get(k))
                problems = [f"outputs differ from the first repeat: {changed[:3]}"]
        if problems:
            self.failed += 1
            print(f"FAILED {key}: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems


def checked(cmd: Command, code: int, stdout: str) -> list[str]:
    """The command's check; unreadable or missing outputs are problems too."""
    try:
        return cmd.check(code, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# --- untraced run -------------------------------------------------------------------


def measure(inputs: Inputs, workload: Workload, seconds: float,
            ledger: Ledger) -> dict[str, list[float]]:
    """Closed loop of CLI processes for ``seconds``; per-command and per-pass samples."""
    logs = inputs.work / "logs"
    logs.mkdir(exist_ok=True)
    samples: dict[str, list[float]] = {"setup_s": [], "job_s": [], "peak_rss_mb": []}

    def setup_sample() -> None:
        code, out, wall, _ = run_child(["--help"], logs / "help.out")
        if ledger.record("help", checks.check_help(code, out), None):
            samples["setup_s"].append(wall)

    run_child(["--help"], logs / "help.out")  # fills the bytecode cache
    for _ in range(6):
        setup_sample()
    job = [cmd for cmd in commands(inputs) if cmd.key in workload.job]
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        setup_sample()
        walls, peaks = [], []
        for cmd in job:
            cmd.clean()
            code, out, wall, rss = run_child(cmd.argv, logs / f"{cmd.key}.out")
            if ledger.record(cmd.key, checked(cmd, code, out), cmd.output_files()):
                samples.setdefault(f"{cmd.key}_s", []).append(wall)
                samples.setdefault(f"{cmd.key}_peak_rss_mb", []).append(rss)
                walls.append(wall)
                peaks.append(rss)
        if len(walls) == len(job):
            samples["job_s"].append(sum(walls))
            samples["peak_rss_mb"].append(max(peaks))
    return samples


def end_to_end(samples: dict[str, list[float]]) -> dict[str, float]:
    if not samples["job_s"] or not samples["setup_s"]:
        return {}
    return {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}


def per_command(inputs: Inputs, workload: Workload,
                samples: dict[str, list[float]]) -> dict[str, float]:
    """Throughput of the job, and the medians of each command it ran with their rates."""
    if not samples["job_s"]:
        return {}
    out = {"job_items_per_s": inputs.items(workload.items) / statistics.median(samples["job_s"])}
    out.update({k: statistics.median(v) for k, v in samples.items()
                if v and k.split("_")[0] in ("analyze", "configure", "cohort", "correlate")})
    if "analyze_s" in out:
        out["analyze_pous_per_s"] = inputs.items("pous") / out["analyze_s"]
    if "cohort_s" in out:
        out["cohort_companies_per_s"] = inputs.items("companies") / out["cohort_s"]
    return out


# --- traced run ---------------------------------------------------------------------


def run_traced(inputs: Inputs, seconds: float, ledger: Ledger) -> tuple[dict, dict, list]:
    """In-process traced loop over every command.

    Returns the per-layer medians over iterations, the mean self time per
    iteration of each span name, and every span.
    """
    import tracing

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES * 2, MEMORY_CAP_BYTES * 2))
    run_child(["--help"], inputs.work / "help.out")  # fills the bytecode cache
    import_s = statistics.median(tracing.import_time(SRC) for _ in range(5))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from swmat import cli

    tracer = tracing.Tracer()
    plan = commands(inputs)
    analyze_cmd = next(c for c in plan if c.key == "analyze")

    def in_process(cmd: Command) -> tuple[int, float]:
        cmd.clean()
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(cmd.argv)
        except MemoryError:
            code = -1
        wall = time.perf_counter() - start
        ledger.record(cmd.key, checked(cmd, code, stdout.getvalue()), cmd.output_files())
        return code, wall

    per_iteration: list[dict[str, float]] = []
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not per_iteration or time.perf_counter() - start < seconds:
        # alternate which side of the overhead pair runs first; the first
        # iteration runs traced first, so configure-roundtrip has its project
        if len(per_iteration) % 2 == 1:
            untraced.append(in_process(analyze_cmd)[1])
        with tracer.installed():
            for cmd in plan:
                with tracer.request(cmd.key):
                    _, wall = in_process(cmd)
                if cmd is analyze_cmd:
                    traced.append(wall)
        if len(per_iteration) % 2 == 0:
            untraced.append(in_process(analyze_cmd)[1])
        per_iteration.append(tracer.take_metrics())
    metrics = {
        name: statistics.median(it[name] for it in per_iteration)
        for name in per_iteration[0]
    }
    metrics["cli.import_s"] = import_s
    metrics["trace.analyze_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    self_s = {name: total / len(per_iteration)
              for name, total in sorted(tracing.self_times(tracer.spans).items())}
    return metrics, self_s, tracer.spans


# --- running a workload ----------------------------------------------------------


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(name: str, workload: Workload, seed: int, seconds: float,
                 traced: bool) -> dict:
    host = host_facts()
    work = STATE / "work" / f"{name}-{seed}"
    setup_start = time.perf_counter()
    inputs = make_inputs(workload, seed, work)
    generate_s = time.perf_counter() - setup_start
    ledger = Ledger()
    spans: list = []
    self_s: dict[str, float] = {}
    try:
        if traced:
            metrics, self_s, spans = run_traced(inputs, seconds, ledger)
            units = {k: _layer_unit(k) for k in metrics}
            samples, commands_run = {}, {}
        else:
            samples = measure(inputs, workload, seconds, ledger)
            metrics = end_to_end(samples)
            commands_run = per_command(inputs, workload, samples)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "host": host,
        "generate_s": generate_s,
        "truth": inputs.truth_json(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "commands": commands_run,
        "self_s_per_iteration": self_s,
        "samples": samples,
        "sha256": ledger.digests,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    if spans:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    _print_summary(record)
    return record


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def _print_summary(record: dict) -> None:
    host = record["host"]
    samples = record["samples"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['why']}")
    print(f"  host nproc {host['nproc']} (affinity {host['affinity']}), "
          f"python {host['python']}, load {host['loadavg_start'][0]:.2f} -> "
          f"{host['loadavg_end'][0]:.2f}")

    def line(name: str, value: float, unit: str, source: str) -> None:
        text = f"  {name:<44} {value:>14.6g} {unit}"
        values = samples.get(source)
        if values and source != name:
            text += f"  (from the median {source} of {len(values)})"
        elif values:
            q1, q3 = quartiles(values)
            text += f"  (median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(text)

    rates = {"job_items_per_s": "job_s", "analyze_pous_per_s": "analyze_s",
             "cohort_companies_per_s": "cohort_s"}
    for name, metric in record["metrics"].items():
        line(name, metric["value"], metric["unit"], rates.get(name, name))
    if record["commands"]:
        print("  not gated (throughput, and each command of the job):")
        for name, value in record["commands"].items():
            unit = "MB" if name.endswith("_mb") else "1/s" if name.endswith("_per_s") else "s"
            line(name, value, unit, rates.get(name, name))
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"  failed_ratio {ratio:.4f} ({record['failed']} of {record['attempted']} commands)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "swmat" / "cli.py").is_file():
        print(f"error: no swmat sources under {SRC}", file=sys.stderr)
        return 2
    table = SMOKE if args.smoke else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    records = [run_workload(name, table[name], args.seed, args.seconds, bool(args.trace))
               for name in names]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    complete = all(r["metrics"] for r in records)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
