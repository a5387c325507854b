from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from swmat.cli import run
from swmat.stparse import MAX_NESTING
from synth import chain_project

FIXTURES = Path(__file__).parent / "fixtures"

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
    from swmat.maturity import schema_to_dict

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
    assert "36" in capsys.readouterr().err


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


def test_correlate_writes_rows(tmp_path):
    answers_dir = tmp_path / "answers"
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
    out = tmp_path / "corr.csv"
    code = run(["correlate", "--answers-dir", str(answers_dir), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "target,r,n,significance"
    assert len(lines) == 3  # targets 28 and 30


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
        ("parameter", [], 2, "top level: expected an object, got list"),
        ("parameter", {"template": ["storage"], "rows": []}, 2,
         "key 'template': expected a string, got list"),
        ("parameter", {"template": "storage", "rows": {}}, 2,
         "key 'rows': expected a list, got dict"),
        ("parameter", {"template": "storage", "rows": [[1]]}, 2,
         "key 'rows[0]': expected an object, got list"),
        ("parameter", {"template": "storage", "rows": [dict(_STORAGE_ROW, name="my belt")]},
         3, "row 0: component 'my belt' is not an ST identifier"),
    ],
    ids=["list", "instances-object", "null-name", "int-template", "list-params",
         "null-supervisory", "spaced-supervisory", "keyword-supervisory",
         "non-ascii-instance", "parameter-list", "list-template", "object-rows",
         "list-row", "spaced-component"],
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


def test_analyze_invariant_violation_exit_3(tmp_path, capsys):
    bad = tmp_path / "proj"
    bad.mkdir()
    (bad / "a.st").write_text("PROGRAM p\nx := 1;\nEND_PROGRAM\n", encoding="utf-8")
    (bad / "tasks.txt").write_text("task t cycle 10 entry ghost\n", encoding="utf-8")
    assert run(["analyze", str(bad)]) == 3
    assert "unresolved task entry" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["score", "cohort"])
@pytest.mark.parametrize(
    "payload",
    [
        {"company": "a", "category": None, "answers": {}},
        [1],
        {"company": None, "category": "machine", "answers": {}},
        {"category": "machine", "answers": {}},
    ],
    ids=["null-category", "list", "null-company", "no-company"],
)
def test_wrongly_shaped_answer_file_exit_2(tmp_path, capsys, command, payload):
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
    assert str(answers) in err
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
