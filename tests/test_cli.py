from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from swmat import maturity, project
from swmat.cli import run
from swmat.stparse import MAX_NESTING
from synth import chain_project

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

OP_EXAMPLE = {
    "company": "case-op",
    "category": "machine",
    "answers": {
        "36": "never",
        "37": "whole-source",
        "38": "remote-and-on-demand",
        "39": "very-often",
    },
}


def _write_answers(path: Path, payload=None) -> Path:
    path.write_text(json.dumps(payload or OP_EXAMPLE), encoding="utf-8")
    return path


def test_score_table_example(tmp_path, capsys):
    answers = _write_answers(tmp_path / "answers.json")
    out = tmp_path / "report.json"
    code = run(["score", "--answers", str(answers), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["m_op"] == "0.7500"


def test_score_with_schema_file(tmp_path, schema):
    from model_codec import schema_to_dict

    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
    answers = _write_answers(tmp_path / "answers.json")
    code = run(["score", "--schema", str(schema_path), "--answers", str(answers)])
    assert code == 0


def test_score_unknown_option_exit_3(tmp_path, capsys):
    bad = dict(OP_EXAMPLE, answers={"36": "whenever"})
    answers = _write_answers(tmp_path / "answers.json", bad)
    code = run(["score", "--answers", str(answers)])
    assert code == 3
    assert f"error: {answers}: question 36: unknown option 'whenever'" in capsys.readouterr().err


def test_score_free_text_question_is_not_read_as_a_number(tmp_path, schema):
    from model_codec import schema_to_dict

    payload = schema_to_dict(schema)
    (question,) = [q for q in payload["questions"] if q["id"] == 14]
    question["mode"] = "free-text"
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(payload), encoding="utf-8")
    answers = _write_answers(
        tmp_path / "answers.json", dict(OP_EXAMPLE, answers={"14": "lots", "9": 4, "7": 2})
    )
    out = tmp_path / "report.json"
    code = run(["score", "--schema", str(schema_path), "--answers", str(answers),
                "--out", str(out)])
    assert code == 0
    # question 14 is free text, so the measure falls back to 0.5 (CPUs + programmers)
    assert json.loads(out.read_text(encoding="utf-8"))["complexity"] == "3"


@pytest.mark.parametrize(
    "answer, message",
    [
        ({"7": "many"}, "question 7: cannot read 'many' as a number"),
        ({"15": 3}, "question 15: expected an option key, got 3"),
    ],
)
def test_score_unreadable_answer_names_question_exit_3(tmp_path, capsys, answer, message):
    answers = _write_answers(tmp_path / "answers.json", dict(OP_EXAMPLE, answers=answer))
    assert run(["score", "--answers", str(answers)]) == 3
    assert capsys.readouterr().err == f"error: {answers}: {message}\n"


def test_score_missing_file_exit_2(tmp_path):
    assert run(["score", "--answers", str(tmp_path / "none.json")]) == 2


def test_analyze_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run(["analyze", str(empty)])
    assert code == 2
    assert "no source files" in capsys.readouterr().err


def test_analyze_plant_outputs(tmp_path, capsys):
    dot = tmp_path / "calls.dot"
    gdot = tmp_path / "globals.dot"
    assessment = tmp_path / "assessment.json"
    code = run(
        [
            "analyze",
            str(FIXTURES / "filling_plant"),
            "--dot", str(dot),
            "--globals-dot", str(gdot),
            "--assessment", str(assessment),
        ]
    )
    assert code == 0
    assert dot.read_text(encoding="utf-8").startswith("digraph")
    assert "digraph" in gdot.read_text(encoding="utf-8")
    payload = json.loads(assessment.read_text(encoding="utf-8"))
    assert payload["entries"] == ["main"]
    assert set(payload["grades"]) == {
        "decomposability", "composability", "understandability", "protection",
    }
    out = capsys.readouterr().out
    assert "POUs" in out and "governance" in out


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_run_leaves_the_callers_collector_as_it_found_it(monkeypatch, enabled):
    """``analyze`` neither switches the cyclic collector off nor on: it
    parses with the caller's setting and returns with it."""
    seen = []
    parse = project.parse_project

    def parse_and_look(*args, **kwargs):
        seen.append(gc.isenabled())
        return parse(*args, **kwargs)

    monkeypatch.setattr(project, "parse_project", parse_and_look)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(["analyze", str(FIXTURES / "filling_plant")]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [enabled]


def test_analyze_dot_names_the_directory(tmp_path, monkeypatch, capsys):
    plant = tmp_path / "plant"
    shutil.copytree(FIXTURES / "filling_plant", plant)
    monkeypatch.chdir(plant)
    assert run(["analyze", ".", "--assessment", str(tmp_path / "a.json")]) == 0
    assert capsys.readouterr().out.startswith("project plant: ")
    assert json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))["project"] == "plant"


@pytest.mark.parametrize("bad", ["nodir/o.json", "d"])
def test_analyze_unwritable_output_exits_2_before_writing(tmp_path, monkeypatch, capsys, bad):
    """An output in a missing directory, or one that is a directory, is
    named and fails the command before any other output is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    argv = ["analyze", str(FIXTURES / "filling_plant"), "--dot", "d/x.dot"]
    flag = "--assessment" if bad.endswith(".json") else "--globals-dot"
    assert run([*argv, flag, bad]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: cannot write" in err and "Traceback" not in err
    assert list((tmp_path / "d").iterdir()) == []
    assert not (tmp_path / "nodir").exists()


def test_analyze_governance_flags(tmp_path):
    assessment = tmp_path / "a.json"
    code = run(
        [
            "analyze", str(FIXTURES / "filling_plant"),
            "--governance", "templates",
            "--assessment", str(assessment),
        ]
    )
    assert code == 0
    assert json.loads(assessment.read_text(encoding="utf-8"))["governance"] == "L3"


def test_analyze_deterministic_outputs(tmp_path):
    first = tmp_path / "a.dot"
    second = tmp_path / "b.dot"
    for target in (first, second):
        assert run(["analyze", str(FIXTURES / "filling_plant"), "--dot", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_analyze_does_not_modify_inputs(tmp_path):
    source = FIXTURES / "filling_plant"
    mirror = tmp_path / "copy"
    shutil.copytree(source, mirror)
    before = {p.name: p.read_bytes() for p in mirror.iterdir()}
    assert run(["analyze", str(mirror)]) == 0
    after = {p.name: p.read_bytes() for p in mirror.iterdir()}
    assert before == after


def test_analyze_thresholds_env(tmp_path, monkeypatch):
    thresholds = tmp_path / "th.txt"
    thresholds.write_text("clone_min_tokens = 5\n", encoding="utf-8")
    monkeypatch.setenv("SWMAT_THRESHOLDS", str(thresholds))
    assert run(["analyze", str(FIXTURES / "filling_plant")]) == 0


@pytest.mark.parametrize("per_instance", [[], ["--per-instance"]], ids=["types", "instances"])
def test_analyze_call_to_local_named_like_a_pou(tmp_path, capsys, per_instance):
    # `motor` is an INT, so `motor();` stays unresolved; its text spells the
    # FB `Motor` in another case and reaches that node
    project = tmp_path / "proj"
    project.mkdir()
    (project / "a.st").write_text(
        "PROGRAM Main\nVAR\n  motor : INT;\nEND_VAR\nmotor();\nEND_PROGRAM\n"
        "FUNCTION_BLOCK Motor\nEND_FUNCTION_BLOCK\n",
        encoding="utf-8",
    )
    dot = tmp_path / "calls.dot"
    assert run(["analyze", str(project), "--dot", str(dot), *per_instance]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert '"Main" -> "Motor" [label="1"];' in dot.read_text(encoding="utf-8")


_WEIGHT_ZERO_SCHEMA = {"questions": [{
    "id": 36, "text": "t", "category": "OP", "weight": 0, "options": [{"key": "a", "score": 0}],
}]}


@pytest.mark.parametrize(
    "kind, content, code, needle",
    [
        ("thresholds", b"fan_out_bound = 1/0\n", 2,
         ":1: fan_out_bound: expected a number, got '1/0'"),
        ("thresholds", b"depth_min = 1.5\n", 2, ":1: depth_min: expected an integer, got '1.5'"),
        ("thresholds", b"# knobs\nfan_out_bound = abc\n", 2,
         ":2: fan_out_bound: expected a number, got 'abc'"),
        ("thresholds", b"\xff", 2, ": 'utf-8' codec can't decode byte 0xff"),
        ("template", b"\xff", 2, ": 'utf-8' codec can't decode byte 0xff"),
        ("schema", json.dumps(_WEIGHT_ZERO_SCHEMA).encode(), 3,
         ": invalid schema: question 36: weight 0 must be > 0"),
    ],
    ids=["thresholds-zero-denominator", "thresholds-fraction-for-int", "thresholds-not-a-number",
         "thresholds-not-utf-8", "template-not-utf-8", "schema-weight-zero"],
)
def test_bad_input_file_named_in_error(tmp_path, capsys, kind, content, code, needle):
    bad = tmp_path / "in" / {"thresholds": "th.txt", "template": "x.st.tpl",
                             "schema": "schema.json"}[kind]
    bad.parent.mkdir()
    bad.write_bytes(content)
    out = tmp_path / "out"
    if kind == "thresholds":
        argv = ["analyze", str(FIXTURES / "filling_plant"), "--thresholds", str(bad)]
    elif kind == "template":
        config = tmp_path / "config.json"
        config.write_text('{"instances": []}', encoding="utf-8")
        argv = ["configure", "--mode", "template", "--templates", str(bad.parent),
                "--config", str(config), "--out", str(out)]
    else:
        answers = _write_answers(tmp_path / "answers.json", dict(OP_EXAMPLE, answers={"36": "a"}))
        argv = ["score", "--schema", str(bad), "--answers", str(answers)]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert f"error: {bad}{needle}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cohort_outputs(tmp_path):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json")
    second = dict(OP_EXAMPLE, company="two", answers={"36": "rarely", "15": "separated"})
    _write_answers(answers_dir / "b.json", second)
    out = tmp_path / "reports"
    code = run(["cohort", "--answers-dir", str(answers_dir), "--out", str(out)])
    assert code == 0
    overview = (out / "overview.csv").read_text(encoding="utf-8")
    assert overview.splitlines()[0].startswith("company,")
    assert len(overview.splitlines()) == 3
    assert (out / "radar_case-op.svg").exists()
    assert (out / "radar_two.svg").exists()
    # pairwise maturity projections for companies with both axes present
    assert (out / "scatter_m_mod_m_op.csv").exists()


def test_cohort_schema_of_two_scored_questions_exit_2(tmp_path, capsys, schema):
    from model_codec import schema_to_dict

    payload = schema_to_dict(schema)
    payload["questions"] = [q for q in payload["questions"] if q["id"] in (36, 37)]
    schema_path = tmp_path / "two.json"
    schema_path.write_text(json.dumps(payload), encoding="utf-8")
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json", dict(OP_EXAMPLE, answers={"36": "never"}))
    out = tmp_path / "reports"
    argv = ["cohort", "--schema", str(schema_path), "--answers-dir", str(answers_dir),
            "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {schema_path}: cohort draws a radar over the scored questions "
        "and needs at least 3; the schema has 2\n"
    )
    assert not out.exists()


def test_cohort_category_filter(tmp_path):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json")
    plant = dict(OP_EXAMPLE, company="p", category="plant")
    _write_answers(answers_dir / "b.json", plant)
    out = tmp_path / "reports"
    code = run(
        ["cohort", "--answers-dir", str(answers_dir), "--category", "plant",
         "--out", str(out)]
    )
    assert code == 0
    assert len((out / "overview.csv").read_text(encoding="utf-8").splitlines()) == 2


@pytest.mark.parametrize(
    "first, second, radar",
    [("ACME GmbH", "ACME_GmbH", "radar_ACME_GmbH.svg"), ("ACME", "ACME", "radar_ACME.svg")],
    ids=["mapped-alike", "same-company"],
)
def test_cohort_radar_file_collision_exit_3(tmp_path, capsys, first, second, radar):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json", dict(OP_EXAMPLE, company=first))
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company=second))
    out = tmp_path / "reports"
    assert run(["cohort", "--answers-dir", str(answers_dir), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"error: companies {first!r} and {second!r} both map to radar file {radar}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cohort", "correlate"])
def test_unknown_option_names_its_answer_file_exit_3(tmp_path, capsys, command):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    for index in range(5):
        _write_answers(answers_dir / f"co{index}.json", dict(OP_EXAMPLE, company=f"co{index}"))
    bad = _write_answers(
        answers_dir / "co3.json", dict(OP_EXAMPLE, company="co3", answers={"15": "nope"})
    )
    out = tmp_path / ("reports" if command == "cohort" else "corr.csv")
    assert run([command, "--answers-dir", str(answers_dir), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: question 15: unknown option 'nope' (valid keys: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_cohort_same_dir_usage_error(tmp_path):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json")
    code = run(["cohort", "--answers-dir", str(answers_dir), "--out", str(answers_dir)])
    assert code == 1


def test_correlate_single_set_degenerate(tmp_path, capsys):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json")
    code = run(
        ["correlate", "--answers-dir", str(answers_dir),
         "--out", str(tmp_path / "corr.csv")]
    )
    assert code == 3
    assert "degenerate sample" in capsys.readouterr().err


def _write_correlate_answers(answers_dir: Path) -> Path:
    answers_dir.mkdir()
    variants = [
        ("a", "always", "defined-tested", "yes", "tool-complete", "often", "yes"),
        ("b", "rarely", "informal", "no", "manual", "never", "no"),
        ("c", "often", "defined", "partially", "tool-partial", "sometimes", "partially"),
        ("d", "never", "none", "no", "none", "rarely", "no"),
    ]
    for name, q23, q24, q26, q27, q28, q30 in variants:
        payload = {
            "company": name,
            "category": "machine",
            "answers": {"23": q23, "24": q24, "26": q26, "27": q27, "28": q28, "30": q30},
        }
        _write_answers(answers_dir / f"{name}.json", payload)
    return answers_dir


def test_correlate_writes_rows(tmp_path):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    out = tmp_path / "corr.csv"
    code = run(["correlate", "--answers-dir", str(answers_dir), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "target,r,n,significance"
    assert len(lines) == 3  # targets 28 and 30


# error precedence over one answers directory: an unreadable file (2) beats
# every other error; then the command's own checks; then the first scoring
# error in name order (3)

_UNKNOWN_OPTION = {"15": "nope"}


def _questionnaire_argv(command: str, answers_dir: Path, tmp_path: Path, *extra: str):
    out = tmp_path / ("reports" if command == "cohort" else "corr.csv")
    return [command, "--answers-dir", str(answers_dir), "--out", str(out), *extra]


@pytest.mark.parametrize("command", ["cohort", "correlate"])
def test_malformed_file_after_a_scoring_error_exit_2(tmp_path, capsys, command):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company="b", answers=_UNKNOWN_OPTION))
    malformed = answers_dir / "z.json"
    malformed.write_text("{", encoding="utf-8")
    assert run(_questionnaire_argv(command, answers_dir, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {malformed}: ")
    assert "nope" not in err


def test_cohort_collision_after_a_scoring_error_exit_3(tmp_path, capsys):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json", dict(OP_EXAMPLE, company="a", answers=_UNKNOWN_OPTION))
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company="ACME GmbH"))
    _write_answers(answers_dir / "c.json", dict(OP_EXAMPLE, company="ACME_GmbH"))
    assert run(_questionnaire_argv("cohort", answers_dir, tmp_path)) == 3
    assert capsys.readouterr().err == (
        "error: companies 'ACME GmbH' and 'ACME_GmbH' both map to radar file "
        "radar_ACME_GmbH.svg\n"
    )


def test_cohort_empty_category_before_a_scoring_error_exit_2(tmp_path, capsys):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json", dict(OP_EXAMPLE, answers=_UNKNOWN_OPTION))
    argv = _questionnaire_argv("cohort", answers_dir, tmp_path, "--category")
    assert run([*argv, "plant"]) == 2
    assert capsys.readouterr().err == "error: no answer sets in category 'plant'\n"
    assert run([*argv, "machine"]) == 3
    assert "unknown option 'nope'" in capsys.readouterr().err


def test_cohort_category_ignores_scoring_errors_elsewhere(tmp_path, capsys):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json", dict(OP_EXAMPLE, answers=_UNKNOWN_OPTION))
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company="p", category="plant"))
    out = tmp_path / "reports"
    argv = _questionnaire_argv("cohort", answers_dir, tmp_path, "--category", "plant")
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.glob("radar_*")) == ["radar_p.svg"]


def test_cohort_first_scoring_error_in_name_order(tmp_path, capsys):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    _write_answers(answers_dir / "a.json")
    for name, key in (("b", "first"), ("c", "second")):
        _write_answers(answers_dir / f"{name}.json",
                       dict(OP_EXAMPLE, company=name, answers={"15": key}))
    assert run(_questionnaire_argv("cohort", answers_dir, tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {answers_dir / 'b.json'}: question 15: unknown option 'first'")
    assert "second" not in err


@pytest.mark.parametrize("flag", ["--targets", "--interaction"])
def test_correlate_bad_id_list_before_a_scoring_error_exit_1(tmp_path, capsys, flag):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company="b", answers=_UNKNOWN_OPTION))
    assert run(_questionnaire_argv("correlate", answers_dir, tmp_path, flag, "x")) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {flag}: expected comma-separated question ids\n"


def test_correlate_scoring_error_before_a_degenerate_sample_exit_3(tmp_path, capsys):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    bad = _write_answers(answers_dir / "a.json", dict(OP_EXAMPLE, answers={"28": "nope"}))
    assert run(_questionnaire_argv("correlate", answers_dir, tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: question 28: unknown option 'nope'")


@pytest.mark.parametrize(
    "flag, ids, needle",
    [("--targets", "999", "--targets: question 999 is not scored"),
     ("--targets", "28,10", "--targets: question 10 is not scored"),
     ("--interaction", "23,7", "--interaction: question 7 is not scored"),
     ("--interaction", "", "--interaction: expected at least one question id")],
    ids=["unknown-target", "free-text-target", "numeric-interaction", "empty-interaction"],
)
def test_correlate_unscored_id_usage_error_exit_1(tmp_path, capsys, flag, ids, needle):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    # a usage error, so it comes before the scoring error in b.json
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company="b", answers=_UNKNOWN_OPTION))
    assert run(_questionnaire_argv("correlate", answers_dir, tmp_path, flag, ids)) == 1
    assert capsys.readouterr().err == f"usage error: {needle}\n"


def test_correlate_degenerate_sample_names_its_target(tmp_path, capsys):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    # nobody answered question 29
    assert run(_questionnaire_argv("correlate", answers_dir, tmp_path, "--targets", "28,29")) == 3
    assert capsys.readouterr().err == (
        "error: target 29: degenerate sample: fewer than 2 complete pairs\n"
    )
    assert not (tmp_path / "corr.csv").exists()


@pytest.mark.parametrize("command", ["cohort", "correlate"])
@pytest.mark.parametrize(
    "answer, message",
    [({"999": "x"}, "answer for unknown question 999"),
     ({"9": "lots"}, "question 9: cannot read 'lots' as a number")],
    ids=["unknown-question", "unreadable-number"],
)
def test_both_commands_check_the_answers_exit_3(tmp_path, capsys, command, answer, message):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    for path in answers_dir.iterdir():
        payload = json.loads(path.read_text(encoding="utf-8"))
        _write_answers(path, dict(payload, answers={**payload["answers"], **answer}))
    assert run(_questionnaire_argv(command, answers_dir, tmp_path, *(
        ("--targets", "28") if command == "correlate" else ()))) == 3
    assert capsys.readouterr().err == f"error: {answers_dir / 'a.json'}: {message}\n"
    assert not (tmp_path / ("reports" if command == "cohort" else "corr.csv")).exists()


def test_correlate_bad_id_list_before_an_unknown_question_exit_1(tmp_path, capsys):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company="b", answers={"999": "x"}))
    assert run(_questionnaire_argv("correlate", answers_dir, tmp_path, "--targets", "x")) == 1
    assert capsys.readouterr().err == "usage error: --targets: expected comma-separated question ids\n"


_NEGATIVE_CPUS = {"9": -1, "7": 2}


@pytest.mark.parametrize("command", ["score", "cohort"])
def test_negative_count_names_file_and_question_exit_3(tmp_path, capsys, command):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    bad = _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, answers=_NEGATIVE_CPUS))
    argv = (["score", "--answers", str(bad)] if command == "score"
            else _questionnaire_argv(command, answers_dir, tmp_path))
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        f"error: {bad}: question 9: CPU count -1 must be non-negative\n"
    )


def test_negative_count_is_held_like_a_scoring_error(tmp_path, capsys):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    _write_answers(answers_dir / "b.json", dict(OP_EXAMPLE, company="b", answers=_NEGATIVE_CPUS))
    _write_answers(answers_dir / "c.json", dict(OP_EXAMPLE, company="c", answers=_UNKNOWN_OPTION))
    assert run(_questionnaire_argv("cohort", answers_dir, tmp_path)) == 3
    assert "c.json" not in capsys.readouterr().err  # the first in name order
    (answers_dir / "z.json").write_text("{", encoding="utf-8")
    assert run(_questionnaire_argv("cohort", answers_dir, tmp_path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {answers_dir / 'z.json'}: ")


def test_negative_count_only_fails_where_the_complexity_reads_it(tmp_path, capsys):
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    payload = json.loads((answers_dir / "a.json").read_text(encoding="utf-8"))
    _write_answers(answers_dir / "a.json",
                   dict(payload, answers={**payload["answers"], **_NEGATIVE_CPUS}))
    # correlate never computes the complexity
    assert run(_questionnaire_argv("correlate", answers_dir, tmp_path)) == 0
    # nor does score when question 14 gives it
    answered = _write_answers(tmp_path / "x.json",
                              dict(OP_EXAMPLE, answers={"14": 3, **_NEGATIVE_CPUS}))
    assert run(["score", "--answers", str(answered)]) == 0
    assert '"complexity": "3"' in capsys.readouterr().out


@pytest.mark.parametrize("command", ["cohort", "correlate"])
def test_answer_sets_are_scored_one_at_a_time(tmp_path, monkeypatch, command):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    variants = [
        {"23": "always", "24": "defined-tested", "28": "often", "30": "yes"},
        {"23": "rarely", "24": "informal", "28": "never", "30": "no"},
        {"23": "often", "24": "defined", "28": "sometimes", "30": "partially"},
    ]
    for index in range(50):
        payload = dict(OP_EXAMPLE, company=f"co{index:02}", answers=variants[index % 3])
        _write_answers(answers_dir / f"co{index:02}.json", payload)

    live = peak = 0

    def release():
        nonlocal live
        live -= 1

    load = maturity.load_answers_file

    class Answers(dict):
        """An answer set's dict that takes a weak reference, which the
        set, a tuple, cannot; it lives at least as long as its set."""

    def counted(path):
        nonlocal live, peak
        answers = load(path)
        answers = answers._replace(answers=Answers(answers.answers))
        weakref.finalize(answers.answers, release)
        live += 1
        peak = max(peak, live)
        return answers

    monkeypatch.setattr(maturity, "load_answers_file", counted)
    assert run(_questionnaire_argv(command, answers_dir, tmp_path)) == 0
    # the set just read, and at most the one before it
    assert peak <= 2


def test_configure_template_round_trip(tmp_path):
    templates_dir = tmp_path / "templates"
    templates_dir.mkdir()
    from test_configurator import FILLER_TEMPLATE

    (templates_dir / "Filler.st.tpl").write_text(FILLER_TEMPLATE, encoding="utf-8")
    config = {
        "supervisory": "line_main",
        "instances": [
            {"name": "fa", "template": "Filler", "params": {"units": 3, "station": 1}},
            {"name": "fb", "template": "Filler", "params": {"units": 3, "station": 1}},
        ],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "generated"
    code = run(
        ["configure", "--mode", "template", "--templates", str(templates_dir),
         "--config", str(config_path), "--out", str(out)]
    )
    assert code == 0
    assert run(["analyze", str(out)]) == 0


def test_configure_unknown_template_exit_3(tmp_path, capsys):
    templates_dir = tmp_path / "templates"
    templates_dir.mkdir()
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"instances": [{"name": "a", "template": "X"}]}), encoding="utf-8"
    )
    code = run(
        ["configure", "--mode", "template", "--templates", str(templates_dir),
         "--config", str(config_path), "--out", str(tmp_path / "out")]
    )
    assert code == 3
    assert "unknown template X" in capsys.readouterr().err


_FILLER_INSTANCE = {"name": "fa", "template": "Filler", "params": {"units": 3, "station": 1}}
_STORAGE_ROW = {"name": "PlaceA", "width": 2, "depth": 4}


@pytest.mark.parametrize(
    "mode, config, code, needle",
    [
        ("template", [], 2, "top level: expected an object, got list"),
        ("template", {"instances": {}}, 2, "key 'instances': expected a list"),
        ("template", {"instances": [dict(_FILLER_INSTANCE, name=None)]}, 2,
         "key 'instances[0].name': expected a string, got NoneType"),
        ("template", {"instances": [dict(_FILLER_INSTANCE, template=1)]}, 2,
         "key 'instances[0].template': expected a string, got int"),
        ("template", {"instances": [dict(_FILLER_INSTANCE, params=[])]}, 2,
         "key 'instances[0].params': expected an object, got list"),
        ("template", {"supervisory": None, "instances": [_FILLER_INSTANCE]}, 2,
         "key 'supervisory': expected a string, got NoneType"),
        ("template", {"supervisory": "my prog", "instances": [_FILLER_INSTANCE]}, 3,
         "supervisory program 'my prog' is not an ST identifier"),
        ("template", {"supervisory": "IF", "instances": [_FILLER_INSTANCE]}, 3,
         "supervisory program 'IF' is not an ST identifier"),
        ("template", {"instances": [dict(_FILLER_INSTANCE, name="Förderband")]}, 3,
         "instance 'Förderband' is not an ST identifier"),
        ("template", {"mode_constants": "AB", "instances": [_FILLER_INSTANCE]}, 2,
         "key 'mode_constants': expected a list, got str"),
        ("template", {"mode_constants": 5, "instances": [_FILLER_INSTANCE]}, 2,
         "key 'mode_constants': expected a list, got int"),
        ("template", {"mode_constants": ["SETUP", None], "instances": [_FILLER_INSTANCE]}, 2,
         "key 'mode_constants[1]': expected a string, got NoneType"),
        ("template", {"mode_constants": ["my mode"], "instances": [_FILLER_INSTANCE]}, 3,
         "mode constant 'my mode' is not an ST identifier"),
        ("parameter", [], 2, "top level: expected an object, got list"),
        ("parameter", {"template": ["storage"], "rows": []}, 2,
         "key 'template': expected a string, got list"),
        ("parameter", {"template": "storage", "rows": {}}, 2,
         "key 'rows': expected a list, got dict"),
        ("parameter", {"template": "storage", "rows": [[1]]}, 2,
         "key 'rows[0]': expected an object, got list"),
        ("parameter", {"template": "storage", "rows": [dict(_STORAGE_ROW, name="my belt")]},
         3, "row 0: component 'my belt' is not an ST identifier"),
        ("parameter", {"template": "storage", "rows": [dict(_STORAGE_ROW, **{"max speed": 5})]},
         3, "row 0: parameter global 'PlaceA_max speed' is not an ST identifier"),
        ("parameter", {"template": "storage", "rows": [dict(_STORAGE_ROW, name="END", VAR=1)]},
         3, "row 0: parameter global 'END_VAR' is not an ST identifier"),
        ("template", {"instances": [{"template": "Filler"}]}, 2,
         "key 'instances[0].name': expected a string, got nothing"),
        ("template", {"instances": [dict(_FILLER_INSTANCE, params={"units": [3], "station": 1})]},
         2, "key 'instances[0].params.units': expected a string or number, got list"),
        ("template", {"instances": [dict(_FILLER_INSTANCE, params={"units": {}, "station": 1})]},
         2, "key 'instances[0].params.units': expected a string or number, got dict"),
        ("parameter", {"template": "storage", "rows": [dict(_STORAGE_ROW, width=[1])]}, 2,
         "key 'rows[0].width': expected a string or number, got list"),
        ("parameter", {"template": "storage", "rows": [dict(_STORAGE_ROW, width={"a": 1})]}, 2,
         "key 'rows[0].width': expected a string or number, got dict"),
        ("parameter", {"template": "storage", "rows": [dict(_STORAGE_ROW, width=True)]}, 2,
         "key 'rows[0].width': expected a string or number, got bool"),
        ("parameter", {"template": "storage"}, 2,
         "key 'table': expected a string, got nothing"),
        ("parameter", {"template": "storage", "table": "missing.csv"}, 2,
         "No such file or directory"),
        ("parameter", {"template": "storage", "invariable": ["no\x00file.st"], "rows": []}, 2,
         "embedded null byte"),
        ("parameter",
         {"template": "storage", "rows": [_STORAGE_ROW, {"name": "PlaceB", "width": 3}]},
         3, "error: row 1: missing parameter 'depth'"),
    ],
    ids=["list", "instances-object", "null-name", "int-template", "list-params",
         "null-supervisory", "spaced-supervisory", "keyword-supervisory",
         "non-ascii-instance", "string-mode-constants", "int-mode-constants",
         "null-mode-constant", "spaced-mode-constant", "parameter-list", "list-template",
         "object-rows", "list-row", "spaced-component", "spaced-global", "keyword-global",
         "no-name", "list-param-value", "object-param-value", "list-row-value",
         "object-row-value", "bool-row-value", "no-rows-or-table", "missing-table",
         "null-byte-invariable", "row-missing-parameter"],
)
def test_configure_wrongly_shaped_config(tmp_path, capsys, mode, config, code, needle):
    from test_configurator import FILLER_TEMPLATE, STORAGE_TEMPLATE

    templates_dir = tmp_path / "templates"
    templates_dir.mkdir()
    (templates_dir / "Filler.st.tpl").write_text(FILLER_TEMPLATE, encoding="utf-8")
    (templates_dir / "storage.st.tpl").write_text(STORAGE_TEMPLATE, encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert run(
        ["configure", "--mode", mode, "--templates", str(templates_dir),
         "--config", str(config_path), "--out", str(out)]
    ) == code
    err = capsys.readouterr().err
    assert needle in err
    if code == 2:
        assert f"error: {config_path}: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_configure_parameter_mode(tmp_path):
    templates_dir = tmp_path / "templates"
    templates_dir.mkdir()
    from test_configurator import BASE_HELPER, BASE_MAIN, STORAGE_TEMPLATE

    (templates_dir / "storage.st.tpl").write_text(STORAGE_TEMPLATE, encoding="utf-8")
    (templates_dir / "base_main.st").write_text(BASE_MAIN, encoding="utf-8")
    (templates_dir / "helper.st").write_text(BASE_HELPER, encoding="utf-8")
    (tmp_path / "places.csv").write_text(
        "name,width,depth\nPlaceA,2,4\nPlaceB,3,4\n", encoding="utf-8"
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "template": "storage",
                "invariable": ["base_main.st", "helper.st"],
                "table": "places.csv",
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "generated"
    code = run(
        ["configure", "--mode", "parameter", "--templates", str(templates_dir),
         "--config", str(config_path), "--out", str(out)]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "PlaceA.st", "PlaceB.st", "base_main.st", "helper.st",
        "parameters_globals.st", "tasks.txt",
    ]
    assert run(["analyze", str(out)]) == 0


def test_configure_parameter_types_take_ascii_digits_only(tmp_path):
    # digits of another script are no ST number: the value becomes a STRING,
    # which the tokenizer reads, so the generated project analyzes clean
    templates_dir = tmp_path / "templates"
    templates_dir.mkdir()
    (templates_dir / "part.st.tpl").write_text(
        "FUNCTION_BLOCK @{name}\nVAR\n  label : STRING := '@{label}';\nEND_VAR\n"
        "END_FUNCTION_BLOCK\n",
        encoding="utf-8",
    )
    (templates_dir / "main.st").write_text(
        "PROGRAM Main\nVAR\n  cycle : INT;\nEND_VAR\ncycle := cycle + 1;\nEND_PROGRAM\n",
        encoding="utf-8",
    )
    (tmp_path / "parts.csv").write_text(
        "name,count,offset,ratio,on,label\nPart0,12,-3,1.5,TRUE,\u0661\u0662\n",
        encoding="utf-8",
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"template": "part", "invariable": ["main.st"], "table": "parts.csv"}),
        encoding="utf-8",
    )
    out = tmp_path / "generated"
    code = run(
        ["configure", "--mode", "parameter", "--templates", str(templates_dir),
         "--config", str(config_path), "--out", str(out)]
    )
    assert code == 0
    declarations = (out / "parameters_globals.st").read_text(encoding="utf-8").splitlines()
    assert declarations[1:-1] == [
        "  Part0_count : INT := 12;",
        "  Part0_offset : INT := -3;",
        "  Part0_ratio : REAL := 1.5;",
        "  Part0_on : BOOL := TRUE;",
        "  Part0_label : STRING := '\u0661\u0662';",
    ]
    assert run(["analyze", str(out)]) == 0


def test_usage_error_exit_1(capsys):
    assert run(["score"]) == 1  # --answers missing
    assert run(["no-such-command"]) == 1


def test_analyze_syntax_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "proj"
    bad.mkdir()
    (bad / "a.st").write_text("PROGRAM p\nx := ;\nEND_PROGRAM\n", encoding="utf-8")
    assert run(["analyze", str(bad)]) == 2
    assert "a.st" in capsys.readouterr().err


def test_analyze_non_ascii_identifier_exit_2(tmp_path, capsys):
    bad = tmp_path / "proj"
    bad.mkdir()
    (bad / "a.st").write_text("PROGRAM p\nFörderband := 1;\nEND_PROGRAM\n", encoding="utf-8")
    assert run(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad / 'a.st'}:2:2: error: unexpected character 'ö'" in err
    assert "Traceback" not in err


def test_analyze_non_ascii_in_comments_strings_pragmas_exit_0(tmp_path, capsys):
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "a.st").write_text(
        "PROGRAM p\nVAR\n  s : STRING := 'Förderband ² Ⅻ';\nEND_VAR\n"
        "(* Förderband ² Ⅻ *)\n// Förderband ² Ⅻ\n{ Förderband ² Ⅻ }\n"
        "s := \"Förderband\";\nEND_PROGRAM\n",
        encoding="utf-8",
    )
    (proj / "tasks.txt").write_text("task t cycle 10 entry p\n", encoding="utf-8")
    assert run(["analyze", str(proj)]) == 0
    assert capsys.readouterr().err == ""


_BLOCKS = [("IF x THEN", "END_IF;"), ("CASE x OF 1:", "END_CASE;"),
           ("FOR i := 1 TO 2 DO", "END_FOR;"), ("WHILE x DO", "END_WHILE;")]


def _deep_project(directory: Path, head: str, tail: str, depth: int) -> Path:
    directory.mkdir()
    (directory / "deep.st").write_text(
        "PROGRAM p\nVAR\n  x : BOOL;\n  i : INT;\nEND_VAR\n"
        + f"{head}\n" * depth + "x := TRUE;\n" + f"{tail}\n" * depth + "END_PROGRAM\n",
        encoding="utf-8",
    )
    (directory / "tasks.txt").write_text("task t cycle 10 entry p\n", encoding="utf-8")
    return directory


def _analyze_all(proj: Path, out: Path) -> int:
    return run(["analyze", str(proj), "--per-instance", "--dot", str(out / "c.dot"),
                "--globals-dot", str(out / "g.dot"), "--assessment", str(out / "a.json")])


@pytest.mark.parametrize("head, tail", _BLOCKS)
def test_analyze_deep_nesting_exit_2(tmp_path, capsys, head, tail):
    proj = _deep_project(tmp_path / "proj", head, tail, 5000)
    assert _analyze_all(proj, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{proj / 'deep.st'}:206:1: error: {head.split()[0]} nested more than" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("head, tail", _BLOCKS)
def test_analyze_nesting_at_limit_exit_0(tmp_path, capsys, head, tail):
    proj = _deep_project(tmp_path / "proj", head, tail, MAX_NESTING)
    assert _analyze_all(proj, tmp_path) == 0, capsys.readouterr().err


def test_analyze_undecodable_file_exit_2(tmp_path, capsys):
    (tmp_path / "a.st").write_text("PROGRAM a\nx := 1;\nEND_PROGRAM\n", encoding="utf-8")
    (tmp_path / "b.st").write_bytes(b"PROGRAM b\n(* \xff *)\nEND_PROGRAM\n")
    assert run(["analyze", str(tmp_path)]) == 2
    assert f"{tmp_path / 'b.st'}:2: error: not UTF-8: byte 0xff" in capsys.readouterr().err


def _plant_with_task(directory: Path, entry: str) -> Path:
    """The fixture plant with a second task, on line 3 of tasks.txt, entering ``entry``."""
    shutil.copytree(FIXTURES / "filling_plant", directory)
    (directory / "calc.st").write_text(
        "FUNCTION Calc : INT\nCalc := 1;\nEND_FUNCTION\n", encoding="utf-8"
    )
    (directory / "tasks.txt").write_text(
        f"task main cycle 10 entry main\n# spare\ntask aux cycle 10 entry {entry}\n",
        encoding="utf-8",
    )
    return directory


def test_analyze_unresolved_task_entry_exit_2(tmp_path, capsys):
    proj = _plant_with_task(tmp_path / "proj", "Nope")
    assert run(["analyze", str(proj)]) == 2
    err = capsys.readouterr().err
    assert (f"{proj / 'tasks.txt'}:3: error [Nope]: "
            "unresolved task entry: 'Nope' names no POU") in err
    assert "Traceback" not in err


def test_analyze_function_task_entry_exit_2(tmp_path, capsys):
    proj = _plant_with_task(tmp_path / "proj", "calc")
    assert run(["analyze", str(proj)]) == 2
    err = capsys.readouterr().err
    assert (f"{proj / 'tasks.txt'}:3: error [Calc]: task entry 'calc' is a function; "
            "tasks must enter a program or function block") in err
    assert "Traceback" not in err


def test_analyze_duplicate_declaration_exit_2(tmp_path, capsys):
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "main.st").write_text(
        "FUNCTION_BLOCK Motor\nEND_FUNCTION_BLOCK\n\nPROGRAM Main\n"
        "VAR_INPUT m : INT; END_VAR\nVAR M : Motor; END_VAR\nM();\nEND_PROGRAM\n",
        encoding="utf-8",
    )
    (proj / "tasks.txt").write_text("task t cycle 10 entry Main\n", encoding="utf-8")
    assert run(["analyze", str(proj)]) == 2
    err = capsys.readouterr().err
    assert f"{proj / 'main.st'}:6:5: error [Main]: duplicate declaration 'M'" in err
    assert "Traceback" not in err


def test_analyze_refuses_outputs_inside_project(tmp_path):
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "a.st").write_text("PROGRAM p\nEND_PROGRAM\n", encoding="utf-8")
    assert run(["analyze", str(proj), "--dot", str(proj / "calls.dot")]) == 1


def test_malformed_structured_input_exit_2(tmp_path, capsys):
    answers = tmp_path / "broken.json"
    answers.write_text('{"category": "machine"}', encoding="utf-8")  # no company
    assert run(["score", "--answers", str(answers)]) == 2
    templates_dir = tmp_path / "tpl"
    templates_dir.mkdir()
    config = tmp_path / "config.json"
    config.write_text('{"instances": [{"template": "Filler"}]}', encoding="utf-8")
    code = run(
        ["configure", "--mode", "template", "--templates", str(templates_dir),
         "--config", str(config), "--out", str(tmp_path / "out")]
    )
    assert code == 2


_ANSWERED = {"company": "a", "category": "machine"}


@pytest.mark.parametrize("command", ["score", "cohort"])
@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"company": "a", "category": None, "answers": {}},
         "key 'category': expected a string, got NoneType"),
        ([1], "top level: expected an object, got list"),
        ({"company": None, "category": "machine", "answers": {}},
         "key 'company': expected a string, got NoneType"),
        ({"category": "machine", "answers": {}}, "key 'company': expected a string, got nothing"),
        # a bool is not a number: true used to score as 1
        (dict(_ANSWERED, answers={"7": True}),
         "key 'answers.7': expected a string or number, got bool"),
        (dict(_ANSWERED, answers={"7": [1]}),
         "key 'answers.7': expected a string or number, got list"),
        (dict(_ANSWERED, answers={"7": None}),
         "key 'answers.7': expected a string or number, got NoneType"),
        (dict(_ANSWERED, answers={"7": float("nan")}), "NaN is not a JSON number"),
        (dict(_ANSWERED, answers={"x": "never"}), "invalid literal for int()"),
    ],
    ids=["null-category", "list", "null-company", "no-company", "bool-answer", "list-answer",
         "null-answer", "nan-answer", "non-integer-id"],
)
def test_wrongly_shaped_answer_file_exit_2(tmp_path, capsys, command, payload, needle):
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    answers = answers_dir / "bad.json"
    answers.write_text(json.dumps(payload), encoding="utf-8")
    if command == "score":
        argv = ["score", "--answers", str(answers)]
    else:
        argv = ["cohort", "--answers-dir", str(answers_dir), "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {answers}: {needle}" in err
    assert "Traceback" not in err


_QUESTION = {"id": 36, "text": "t", "category": "OP", "options": [{"key": "a", "score": 5}]}


@pytest.mark.parametrize(
    "text, needle",
    [
        (b"{}", "key 'questions': expected a list, got nothing"),
        (b"[]", "top level: expected an object, got list"),
        (b'{"questions": 5}', "key 'questions': expected a list, got int"),
        (b'{"questions": [5]}', "key 'questions[0]': expected an object, got int"),
        (json.dumps({"questions": [dict(_QUESTION, options=[{"key": "a"}])]}).encode(),
         "key 'questions[0].options[0].score': expected a string or number, got nothing"),
        (json.dumps({"questions": [dict(_QUESTION, id="x")]}).encode(),
         "invalid literal for int() with base 10: 'x'"),
        (json.dumps({"questions": [dict(_QUESTION, weight=True)]}).encode(),
         "key 'questions[0].weight': expected a string or number, got bool"),
        (json.dumps({"questions": [dict(_QUESTION, weight="1/0")]}).encode(), "Fraction(1, 0)"),
        (json.dumps({"questions": [dict(_QUESTION, id=float("inf"))]}).encode(),
         "Infinity is not a JSON number"),
        (b"{", "Expecting property name enclosed in double quotes"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["empty-object", "list", "int-questions", "int-question", "no-score", "non-integer-id",
         "bool-weight", "zero-denominator", "infinite-id", "not-json", "not-utf-8", "deep"],
)
def test_wrongly_shaped_schema_exit_2(tmp_path, capsys, text, needle):
    schema = tmp_path / "schema.json"
    schema.write_bytes(text)
    answers = _write_answers(tmp_path / "answers.json")
    assert run(["score", "--schema", str(schema), "--answers", str(answers)]) == 2
    err = capsys.readouterr().err
    assert f"error: {schema}: {needle}" in err
    assert "Traceback" not in err


def test_rerun_byte_identical(tmp_path):
    answers = _write_answers(tmp_path / "answers.json")
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    for target in (first, second):
        assert run(["score", "--answers", str(answers), "--out", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_chain_analyze_smoke(tmp_path, capsys):
    project_dir = chain_project(tmp_path / "chain", length=4)
    code = run(["analyze", str(project_dir)])
    assert code == 0
    assert "hierarchical_calls" in capsys.readouterr().out


# --- what each command loads ---------------------------------------------------------

# Runs ``swmat`` as ``-m`` does and, at exit, names the swmat modules whose code
# ran.  A module the package's lazy loader runs goes through no import
# statement of its own, so ``-X importtime`` never lists it; a module still
# waiting for its first attribute access is not yet a plain ModuleType.
_REPORT_EXECUTED = """
import atexit, runpy, sys, types

def report():
    ran = sorted(name for name, module in sys.modules.items()
                 if name.partition(".")[0] == "swmat" and type(module) is types.ModuleType)
    print("swmat-executed:", *ran, file=sys.stderr)

atexit.register(report)
runpy.run_module("swmat", run_name="__main__", alter_sys=True)
"""

ANALYZER = {"swmat.stparse", "swmat.project", "swmat.graphs", "swmat.modularity"}
# the stdlib modules ``xml.sax.saxutils`` drags in
HEAVY_STDLIB = {"xml.sax", "urllib.request", "http.client", "email.parser", "ssl"}
# records are NamedTuples: building ``dataclasses`` classes costs every
# process milliseconds, and its import pulls in ``inspect``
RECORD_MACHINERY = {"dataclasses", "inspect"}


def _importtime(args: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run python -X importtime ARGS; the result and every module it lists."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    listed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    return proc, listed


def _command_inputs(command: str, tmp_path: Path) -> list[str]:
    if command == "--help":
        return ["--help"]
    if command == "analyze":
        return ["analyze", str(FIXTURES / "filling_plant"),
                "--dot", str(tmp_path / "calls.dot"), "--assessment", str(tmp_path / "a.json")]
    if command == "score":
        return ["score", "--answers", str(_write_answers(tmp_path / "answers.json"))]
    if command == "configure":
        from test_configurator import FILLER_TEMPLATE

        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "Filler.st.tpl").write_text(FILLER_TEMPLATE, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instances": [_FILLER_INSTANCE]}), encoding="utf-8")
        return ["configure", "--mode", "template", "--templates", str(templates),
                "--config", str(config), "--out", str(tmp_path / "generated")]
    answers_dir = _write_correlate_answers(tmp_path / "answers")
    if command == "cohort":
        return ["cohort", "--answers-dir", str(answers_dir), "--out", str(tmp_path / "out")]
    return ["correlate", "--answers-dir", str(answers_dir), "--out", str(tmp_path / "c.csv")]


@pytest.mark.parametrize(
    "command, not_run",
    [
        ("--help", None),
        ("analyze", {"swmat.maturity", "swmat.reporting", "swmat.configurator"}),
        ("score", ANALYZER | {"swmat.configurator"}),
        ("cohort", ANALYZER | {"swmat.configurator"}),
        ("correlate", ANALYZER | {"swmat.configurator"}),
        ("configure", {"swmat.graphs", "swmat.modularity", "swmat.project",
                       "swmat.reporting", "swmat.maturity"}),
    ],
)
def test_command_runs_only_its_half(tmp_path, command, not_run):
    proc, listed = _importtime(["-c", _REPORT_EXECUTED, *_command_inputs(command, tmp_path)],
                               tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = [line for line in proc.stderr.splitlines() if line.startswith("swmat-executed:")]
    ran = set(report[0].split()[1:])
    assert {"swmat", "swmat.cli"} <= ran
    assert {name for name in listed if name.startswith("swmat")} <= ran
    if not_run is None:
        assert ran == {"swmat", "swmat.cli"}  # argparse only: neither half
    else:
        assert not ran & not_run
    _, bare = _importtime(["-c", "pass"], tmp_path)
    assert not (listed - bare) & HEAVY_STDLIB
    assert not listed & RECORD_MACHINERY
