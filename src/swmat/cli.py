"""Command-line front end: score and report questionnaires, analyze code,
generate configured projects.

Exit codes: 0 success, 1 usage error, 2 unreadable or unparseable input,
3 inputs that parse but violate an invariant (unknown option keys, dangling
references, degenerate samples).  Diagnostics go to stderr with
file:line positions where available.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

# modules, not names: the package loads each one on first use, so a
# command runs only the half it needs and --help runs neither
from . import configurator, graphs, maturity, model, modularity, project, reporting

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

THRESHOLDS_ENV = "SWMAT_THRESHOLDS"


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A002 - argparse API
        raise UsageError(message)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="swmat",
        description="Software maturity benchmark for PLC projects: "
        "questionnaire scoring and static code analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="statically analyze an ST project")
    analyze.add_argument("project_dir")
    analyze.add_argument("--dot", metavar="FILE", help="write the call graph as DOT")
    analyze.add_argument(
        "--globals-dot", metavar="FILE", help="write the global-communication graph as DOT"
    )
    analyze.add_argument(
        "--assessment", metavar="FILE", help="write the modularity assessment as JSON"
    )
    analyze.add_argument(
        "--per-instance", action="store_true", help="expand FB instances into own nodes"
    )
    analyze.add_argument(
        "--plant", action="store_true", help="map the entry level to plant instead of facility"
    )
    analyze.add_argument("--thresholds", metavar="FILE")
    analyze.add_argument(
        "--governance",
        action="append",
        choices=("templates", "parameters", "provenance"),
        default=[],
        help="process evidence for the governance estimate (repeatable)",
    )

    score = sub.add_parser("score", help="score one answer set")
    score.add_argument("--schema", metavar="FILE", help="schema JSON (default: built-in)")
    score.add_argument("--answers", metavar="FILE", required=True)
    score.add_argument("--strict", action="store_true",
                       help="count unanswered questions against the denominator")
    score.add_argument("--out", metavar="FILE")

    cohort = sub.add_parser("cohort", help="overview and radar reports for a cohort")
    cohort.add_argument("--schema", metavar="FILE")
    cohort.add_argument("--answers-dir", metavar="DIR", required=True)
    cohort.add_argument("--category", choices=("machine", "plant", "platform"))
    cohort.add_argument("--strict", action="store_true")
    cohort.add_argument("--out", metavar="DIR", required=True)

    correlate = sub.add_parser("correlate", help="interaction-variable correlations")
    correlate.add_argument("--schema", metavar="FILE")
    correlate.add_argument("--answers-dir", metavar="DIR", required=True)
    correlate.add_argument("--interaction", default="23,24,26,27",
                           help="question ids forming the interaction variable")
    correlate.add_argument("--targets", default="28,30",
                           help="question ids to correlate against")
    correlate.add_argument("--out", metavar="FILE", required=True)

    configure = sub.add_parser("configure", help="generate an ST project")
    configure.add_argument("--mode", choices=("template", "parameter"), required=True)
    configure.add_argument("--templates", metavar="DIR", required=True)
    configure.add_argument("--config", metavar="FILE", required=True)
    configure.add_argument("--out", metavar="DIR", required=True)

    return parser


def _print_diagnostics(diags: list[model.Diagnostic]) -> None:
    for diag in diags:
        print(diag.render(), file=sys.stderr)


def _load_schema(path: str | None):
    if path is None:
        # on the package, ``default_schema`` names the function, not the
        # module, so ``from . import`` above cannot hold it without running it
        from .default_schema import default_schema

        return default_schema()
    return maturity.load_schema_file(path)


def _load_thresholds(path: str | None) -> modularity.Thresholds:
    chosen = path or os.environ.get(THRESHOLDS_ENV)
    if chosen:
        return modularity.load_thresholds(chosen)
    return modularity.Thresholds()


def _require_distinct(input_path: str, output_path: str) -> None:
    if Path(input_path).resolve() == Path(output_path).resolve():
        raise UsageError("output directory must differ from the input directory")


def _load_answer_dir(directory: str) -> list[tuple[Path, model.AnswerSet]]:
    """Each answer file in ``directory`` with its answer set, in name order."""
    root = Path(directory)
    if not root.is_dir():
        raise InputError(f"{directory}: not a directory")
    files = sorted(root.glob("*.json"))
    if not files:
        raise InputError(f"{directory}: no answer files (*.json)")
    return [(path, maturity.load_answers_file(path)) for path in files]


def _scored(path: str | Path, score, *args, **kwargs):
    """``score(*args, **kwargs)``; a scoring error names the answer file ``path``."""
    try:
        return score(*args, **kwargs)
    except maturity.ScoringError as exc:
        raise maturity.ScoringError(f"{path}: {exc}") from None


def _cmd_analyze(args: argparse.Namespace) -> int:
    for output in (args.dot, args.globals_dot, args.assessment):
        if output and Path(output).resolve().parent == Path(args.project_dir).resolve():
            raise UsageError("output files must live outside the project directory")
    parsed, diagnostics = project.parse_project(args.project_dir)
    _print_diagnostics(diagnostics)
    if any(d.severity == "error" for d in diagnostics):
        return EXIT_INPUT

    thresholds = _load_thresholds(args.thresholds)
    evidence = modularity.GovernanceEvidence(
        templates_present="templates" in args.governance,
        parameters_present="parameters" in args.governance,
        provenance_log_present="provenance" in args.governance,
    )
    call_graph = graphs.build_call_graph(parsed, per_instance=args.per_instance)
    global_graph = graphs.build_global_comm_graph(parsed)
    analysis = modularity.assess_project(
        parsed, call_graph, global_graph, thresholds, evidence, plant=args.plant
    )

    # written as the chunks come, so memory does not grow with the DOT text
    for path, graph in ((args.dot, call_graph), (args.globals_dot, global_graph)):
        if path:
            with open(path, "w", encoding="utf-8") as out:
                out.writelines(graphs.dot_chunks(graph))

    assessment = analysis.assessment
    summary = {
        "project": parsed.name,
        "pous": len(parsed.pous),
        "tasks": len(parsed.tasks),
        "entries": list(call_graph.entries),
        "levels_below_entry": assessment.levels_below_entry,
        "structure_style": assessment.structure_style.value,
        "coupling_fraction": str(assessment.coupling_fraction),
        "grades": {k: g.value for k, g in assessment.grades.items()},
        "governance": assessment.governance.value,
        "governance_mark": assessment.governance.mark,
        "score_sum": assessment.score_sum,
        "rationale": assessment.rationale,
        "clone_ratio": str(analysis.clones.clone_ratio),
        "clone_groups": [list(g) for g in analysis.clones.groups],
        "cross_cutting": list(analysis.cross_cutting),
        "unreachable": list(analysis.levels.unreachable),
    }
    if args.assessment:
        Path(args.assessment).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"project {parsed.name}: {len(parsed.pous)} POUs, "
          f"{len(call_graph.edges)} call edges, {global_graph.edge_count} global edges")
    print(f"style {assessment.structure_style.value}, "
          f"f = {assessment.coupling_fraction}, "
          f"depth {assessment.levels_below_entry}")
    grades = ", ".join(f"{k} {g.value}" for k, g in assessment.grades.items())
    print(f"grades: {grades}")
    print(f"governance {assessment.governance.value} ({assessment.governance.mark}), "
          f"score sum {assessment.score_sum}")
    print(f"governance rationale: {assessment.rationale}")
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    answers = maturity.load_answers_file(args.answers)
    report = _scored(args.answers, maturity.build_report, schema, answers, strict=args.strict)
    for note in maturity.numeric_notes(schema, answers):
        print(note, file=sys.stderr)
    payload = (
        json.dumps(
            maturity.report_to_dict(report, answers, schema), indent=2, sort_keys=True
        )
        + "\n"
    )
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _radar_for(
    report: model.MaturityReport, mean: dict[int, Fraction | None]
) -> reporting.RadarSpec:
    qids = sorted(report.per_question_normalized)
    spokes = tuple((qid, "") for qid in qids)
    company = reporting.RadarSeries(
        report.company,
        tuple(report.per_question_normalized[qid] for qid in qids),
    )
    cohort_mean = reporting.RadarSeries(
        "cohort mean",
        tuple(mean.get(qid) for qid in qids),
        dashed=True,
    )
    return reporting.RadarSpec(spokes, (company, cohort_mean))


def _radar_file_name(company: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in company)
    return f"radar_{safe}.svg"


def _cmd_cohort(args: argparse.Namespace) -> int:
    _require_distinct(args.answers_dir, args.out)
    schema = _load_schema(args.schema)
    answer_sets = _load_answer_dir(args.answers_dir)
    category = model.CompanyCategory(args.category) if args.category else None
    if category is not None:
        answer_sets = [(p, a) for p, a in answer_sets if a.category == category]
        if not answer_sets:
            raise InputError(f"no answer sets in category {category.value!r}")
    # one radar file per company; a second one would overwrite the first
    radar_files: dict[str, str] = {}
    for _, answers in answer_sets:
        name = _radar_file_name(answers.company)
        if name in radar_files:
            print(f"error: companies {radar_files[name]!r} and {answers.company!r} "
                  f"both map to radar file {name}", file=sys.stderr)
            return EXIT_INVARIANT
        radar_files[name] = answers.company
    reports = [
        _scored(path, maturity.build_report, schema, answers, strict=args.strict)
        for path, answers in answer_sets
    ]
    stats = maturity.cohort_stats(reports)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "overview.csv").write_text(
        reporting.emit_overview_csv(reports), encoding="utf-8"
    )
    for report, name in zip(reports, radar_files):
        spec = _radar_for(report, stats.question_means)
        (out / name).write_text(
            reporting.emit_radar_svg(spec), encoding="utf-8"
        )

    pairs = (
        ("m_mod", "m_test", lambda r: (r.m_mod, r.m_test)),
        ("m_mod", "m_op", lambda r: (r.m_mod, r.m_op)),
        ("m_test", "m_op", lambda r: (r.m_test, r.m_op)),
    )
    for x_label, y_label, pick in pairs:
        points = [
            reporting.ScatterPoint(
                x_label, y_label, x, y, r.company, r.company_category.value
            )
            for r in reports
            for x, y in [pick(r)]
            if x is not None and y is not None
        ]
        if points:
            (out / f"scatter_{x_label}_{y_label}.csv").write_text(
                reporting.emit_scatter_csv(points), encoding="utf-8"
            )
    print(f"wrote reports for {len(reports)} companies to {out}")
    return EXIT_OK


def _parse_id_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated question ids") from None


def _cmd_correlate(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    answer_sets = _load_answer_dir(args.answers_dir)
    interaction_ids = _parse_id_list(args.interaction, "--interaction")
    target_ids = _parse_id_list(args.targets, "--targets")

    normalized = [
        _scored(path, maturity.normalized_answers, schema, answers)
        for path, answers in answer_sets
    ]
    interaction = [
        maturity.interaction_variable(n, interaction_ids) for n in normalized
    ]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("target", "r", "n", "significance"))
    for target in target_ids:
        ys = [n.get(target) for n in normalized]
        result = maturity.pearson(interaction, ys)
        writer.writerow((target, f"{result.r:.4f}", result.n, result.significance.value))
    Path(args.out).write_text(buffer.getvalue(), encoding="utf-8")
    print(f"wrote correlations for {len(target_ids)} targets to {args.out}")
    return EXIT_OK


def _cmd_configure(args: argparse.Namespace) -> int:
    _require_distinct(args.templates, args.out)
    if args.mode == "template":
        templates = configurator.load_template_dir(args.templates)
        config = configurator.load_module_config(args.config)
        generated = configurator.generate_template_project(templates, config)
    else:
        pp = configurator.load_parameter_project(args.config, args.templates)
        generated = configurator.generate_parameter_project(pp)
    generated.write_to(args.out)
    ratio = configurator.specificity_ratio(generated)
    manual = configurator.count_manual_markers(generated)
    print(
        f"wrote {len(generated.files)} files to {args.out} "
        f"(specificity {maturity.format_ratio(ratio)}, manual stubs {manual})"
    )
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "score": _cmd_score,
    "cohort": _cmd_cohort,
    "correlate": _cmd_correlate,
    "configure": _cmd_configure,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # naming a module's exception loads that module, so these clauses come
    # last, and a scoring error never loads the configurator
    except (maturity.ScoringError, maturity.DegenerateSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except configurator.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
