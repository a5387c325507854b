from __future__ import annotations

import importlib
import sys
from array import array
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from swmat.model import (
    AnswerSet,
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
from swmat.project import parse_project
from swmat.maturity import default_schema
from swmat.stparse import ParseResult, parse_source, tokenize
from model_codec import from_jsonable, to_jsonable
from oracles import with_trees
from synth import write_project
from test_golden import MIXED_ST


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
    # across sections, and within one list: the parser reports the second name
    cases = [
        ("VAR\n  a : INT;\nEND_VAR\nVAR_INPUT\n  b, A : BOOL;\nEND_VAR\n",
         ["p.st:6:6: error [p]: duplicate declaration 'A'"]),
        ("VAR\n  a, A : INT;\nEND_VAR\n", ["p.st:3:6: error [p]: duplicate declaration 'A'"]),
        ("VAR\n  a : INT;\n  b : INT;\nEND_VAR\n", []),
    ]
    for declarations, expected in cases:
        result = parse_source(f"PROGRAM p\n{declarations}END_PROGRAM\n", "p.st")
        assert [d.render() for d in result.diagnostics] == expected
        assert result.partial == []
        assert validate_project(Project("p", tuple(result.pous))) == []


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


# built once per POU, global, declaration, action or call site, so they
# carry no ``__dict__``; the statement nodes of the reference trees neither
SLOTTED = (
    "Pou", "GlobalVar", "VarDecl", "VarSection", "ActionDef", "CallSite", "LineSpan",
    "Assignment", "CallStatement", "IfBranch", "IfStatement", "CaseBranch",
    "CaseStatement", "ForStatement", "WhileStatement", "TreeAction",
)


def _model_values(value, found):
    """Every record reachable from ``value``, and every statement node of the
    reference trees, by class name."""
    if hasattr(value, "_fields") or is_dataclass(value):
        found.setdefault(type(value).__name__, value)
        names = value._fields if hasattr(value, "_fields") else [f.name for f in fields(value)]
        for name in names:
            _model_values(getattr(value, name), found)
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            _model_values(item, found)


def test_per_statement_nodes_have_no_dict(plant_dir, tmp_path):
    # the fixture has no FOR, WHILE or ACTION; the golden mixed source has all three
    mixed = write_project(tmp_path / "mixed", {"mixed.st": MIXED_ST})
    found: dict[str, object] = {}
    for directory in (plant_dir, mixed):
        project = parse_project(directory)[0]
        _model_values(project.pous + project.globals + with_trees(project).pous, found)
    for name in SLOTTED:
        assert name in found, name
        assert not hasattr(found[name], "__dict__"), name


def test_line_starts_are_machine_integers():
    store, _ = tokenize("PROGRAM p\nx := 1;\nEND_PROGRAM\n")
    assert isinstance(store.line_starts, array)
    assert list(store.line_starts) == [0, 10, 18, 30]


# --- record semantics ------------------------------------------------------------

_RECORD_MODULES = (
    "model", "stparse", "project", "graphs", "modularity", "maturity", "configurator",
    "reporting",
)


def _record_classes() -> list[type]:
    """Every record class of the package: a NamedTuple, or a class derived
    from the NamedTuple of its fields (``_...Fields``), which is not listed."""
    found = []
    for name in _RECORD_MODULES:
        module = importlib.import_module(f"swmat.{name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and hasattr(obj, "_fields")
                    and obj.__module__ == module.__name__
                    and not obj.__name__.endswith("Fields")):
                found.append(obj)
    return found


RECORDS = _record_classes()


def _sample(cls: type):
    """An instance of ``cls`` whose every field holds its own name; records
    do not check their field types."""
    return cls(*cls._fields)


def test_every_record_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Pou", "GlobalVar", "TaskDef", "Project", "QuestionnaireSchema", "CallGraph",
            "GlobalCommGraph", "Thresholds", "RadarSeries", "GeneratedProject",
            "SourceFile", "_Scored"} <= names
    assert not {"ParseResult", "SymbolTable"} & names  # the two mutable classes


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    record, twin = _sample(cls), _sample(cls)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__name__}({fields})"

    for name in cls._fields:
        changed = record._replace(**{name: "other"})
        assert type(changed) is cls and changed._replace(**{name: name}) == record
        assert changed != record and not changed == record
        assert hash(changed) != hash(record)
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == twin


# the records whose ``cached_property`` memos pay; each derives from the
# NamedTuple of its fields and from ``model.Memos``
MEMO_RECORDS = {"QuestionnaireSchema", "CallGraph", "GlobalCommGraph", "RadarSeries"}


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if cls.__name__ not in MEMO_RECORDS],
    ids=lambda cls: cls.__name__,
)
def test_records_are_plain(cls):
    # a plain NamedTuple: no factory and no equality of its own
    assert cls.__bases__ == (tuple,)
    for name in ("__eq__", "__ne__", "__hash__"):
        assert name not in vars(cls), name
    # NamedTuple makes a ``__new__`` of its own, outside any source file
    assert cls.__new__.__code__.co_filename != sys.modules[cls.__module__].__file__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_default_instances_share_no_container(cls):
    required = len(cls._fields) - len(cls._field_defaults)
    first, second = (cls(*[f"v{i}" for i in range(required)]) for _ in range(2))
    for name in cls._fields[required:]:
        value = getattr(first, name)
        assert not isinstance(value, (list, dict, set)) or value is not getattr(second, name)


def test_memos_are_kept_per_record():
    schema = default_schema()
    assert schema._by_id is schema._by_id
    assert schema._replace(questions=schema.questions[:3])._by_id.keys() == {1, 2, 3}
    with pytest.raises(AttributeError):
        schema.answer_scores = {}


def test_parse_result_default_facts_are_fresh():
    assert ParseResult([], [], [], []).facts is not ParseResult([], [], [], []).facts
