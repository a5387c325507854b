from __future__ import annotations

from fractions import Fraction

import pytest

from swmat.model import (
    AnswerSet,
    CallResolution,
    CallSite,
    CallStatement,
    CompanyCategory,
    GlobalVar,
    LineSpan,
    Pou,
    PouKind,
    Project,
    SourceRef,
    TaskDef,
    validate_project,
)
from swmat.stparse import parse_source
from model_codec import from_jsonable, to_jsonable


def _project(source: str, tasks=()) -> Project:
    result = parse_source(source)
    assert result.ok, result.diagnostics
    return Project("p", tuple(result.pous), tuple(result.globals), tuple(tasks))


def test_duplicate_pou_names_case_insensitive():
    project = _project(
        "FUNCTION_BLOCK Valve\nEND_FUNCTION_BLOCK\n"
        "FUNCTION_BLOCK VALVE\nEND_FUNCTION_BLOCK\n"
    )
    diags = validate_project(project)
    assert any("duplicate POU name" in d.message for d in diags)


def test_unresolved_task_entry():
    project = _project(
        "FUNCTION_BLOCK Valve\nEND_FUNCTION_BLOCK\n",
        tasks=[TaskDef("t", 10, "Main")],
    )
    diags = validate_project(project)
    assert any("unresolved task entry" in d.message for d in diags)


def test_task_entry_must_not_be_function():
    project = _project(
        "FUNCTION f : INT\nf := 1;\nEND_FUNCTION\n",
        tasks=[TaskDef("t", 10, "f")],
    )
    diags = validate_project(project)
    assert any("function" in d.message for d in diags)


def test_function_requires_return_type():
    pou = Pou(name="f", kind=PouKind.FUNCTION, return_type=None)
    diags = validate_project(Project("p", (pou,)))
    assert any("return type" in d.message for d in diags)


def test_duplicate_declarations_flagged():
    project = _project(
        "PROGRAM p\nVAR\n  a : INT;\nEND_VAR\nVAR_INPUT\n  A : BOOL;\nEND_VAR\nEND_PROGRAM\n"
    )
    diags = validate_project(project)
    assert any("duplicate declaration" in d.message for d in diags)


def test_call_site_absent_from_body_flagged():
    body = (CallStatement("present", (), 1, 1),)
    sites = (CallSite("p", "absent", CallResolution.EXTERNAL, None, 1, 1),)
    pou = Pou("p", PouKind.PROGRAM, statements=body, call_sites=sites)
    diags = validate_project(Project("p", (pou,)))
    assert [d.message for d in diags] == ["call site 'absent' does not occur in the body"]


def test_plant_fixture_validates_clean(plant_project):
    assert validate_project(plant_project) == []


def test_serialization_round_trip_project(plant_project):
    data = to_jsonable(plant_project)
    back = from_jsonable(data)
    assert back == plant_project


def test_serialization_round_trip_misc():
    values = [
        AnswerSet("c", CompanyCategory.MACHINE, {36: "never", 9: Fraction(3, 2)}),
        GlobalVar("g", "INT", "0", True),
        SourceRef("a.st", LineSpan(1, 10)),
        Fraction(13, 4),
    ]
    for value in values:
        assert from_jsonable(to_jsonable(value)) == value


def test_task_cycle_and_span():
    span = LineSpan(3, 9)
    assert span.contains(3) and span.contains(9) and not span.contains(10)


@pytest.mark.parametrize("bad", [-1])
def test_schema_rejects_negative_scores(schema, bad):
    from swmat.model import Option, Question, QuestionnaireSchema, Category

    q = Question(
        1,
        "t",
        Category.OP,
        Fraction(5),
        (Option("a", "A", Fraction(5)), Option("b", "B", Fraction(bad))),
    )
    assert QuestionnaireSchema((q,)).validate()


def test_default_schema_is_valid(schema):
    assert schema.validate() == []
    assert len(schema.questions) == 45
    assert schema.scored_ids() == tuple(range(15, 40))
