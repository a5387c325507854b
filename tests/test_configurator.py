from __future__ import annotations

from fractions import Fraction

import pytest

from swmat.configurator import (
    ConfigError,
    GeneratedFile,
    GeneratedProject,
    InstanceSpec,
    MODE_CONSTANTS,
    ModuleConfig,
    ParameterProject,
    Provenance,
    TemplateSet,
    count_manual_markers,
    generate_parameter_project,
    generate_template_project,
    load_parameter_table,
    specificity_ratio,
)
from swmat.graphs import build_call_graph
from swmat.model import CaseStatement, validate_project
from swmat.project import parse_project
from swmat.stparse import parse_source
from st_printer import statement_stream

FILLER_TEMPLATE = """FUNCTION_BLOCK Filler
VAR_INPUT
  mode : INT;
END_VAR
VAR
  units_per_cycle : INT := @{units};
  station_id : INT := @{station};
  step : INT;
END_VAR
CASE mode OF
  PLCMODSETUP:
    step := 0;
  PLCMODAUTOMATIC:
    step := step + 1;
  PLCMODREINIT:
    step := 0;
  PLCMODERROR:
    step := 0 - 1;
  PLCMODSTOP:
    step := step;
END_CASE
END_FUNCTION_BLOCK
"""

CAPPER_TEMPLATE = """FUNCTION_BLOCK Capper
VAR_INPUT
  mode : INT;
END_VAR
VAR
  torque_limit : INT := @{torque};
  step : INT;
END_VAR
CASE mode OF
  PLCMODSETUP:
    step := 0;
  PLCMODAUTOMATIC:
    step := step + 2;
  PLCMODREINIT:
    step := 0;
  PLCMODERROR:
    step := 0;
  PLCMODSTOP:
    step := step;
END_CASE
END_FUNCTION_BLOCK
"""

STORAGE_TEMPLATE = """FUNCTION_BLOCK @{name}
VAR
  width : INT := @{width};
  depth : INT := @{depth};
  occupied : BOOL;
END_VAR
IF width > 0 THEN
  occupied := FALSE;
END_IF
END_FUNCTION_BLOCK
"""

BASE_MAIN = """PROGRAM storage_main
VAR
  cycle : INT;
END_VAR
cycle := cycle + 1;
END_PROGRAM
"""

BASE_HELPER = """FUNCTION_BLOCK PlaceHelper
VAR
  n : INT;
END_VAR
n := n + 1;
END_FUNCTION_BLOCK
"""


def _templates() -> TemplateSet:
    return TemplateSet({"Filler": FILLER_TEMPLATE, "Capper": CAPPER_TEMPLATE})


def _config(*instances: InstanceSpec) -> ModuleConfig:
    return ModuleConfig(supervisory="line_main", instances=tuple(instances))


def _filler(name: str) -> InstanceSpec:
    return InstanceSpec(name, "Filler", {"units": "3", "station": "7"})


def template_reference_stream(template_text: str):
    """Statement stream of the template with throwaway parameter values."""
    import re

    filled = re.sub(r"@\{[A-Za-z_][A-Za-z0-9_]*\}", "ref0", template_text)
    result = parse_source(filled)
    assert result.ok
    return statement_stream(result.pous[0].statements)


def test_two_instances_round_trip(tmp_path):
    generated = generate_template_project(
        _templates(), _config(_filler("fill_a"), _filler("fill_b"))
    )
    out = tmp_path / "out"
    generated.write_to(out)
    project, diags = parse_project(out)
    assert not [d for d in diags if d.severity == "error"]
    assert validate_project(project) == []
    graph = build_call_graph(project)
    edges = {(e.caller, e.callee): e.multiplicity for e in graph.edges}
    assert edges[("line_main", "Filler")] == 2
    assert graph.entries == ("line_main",)


def test_supervisory_structure():
    generated = generate_template_project(
        _templates(), _config(_filler("fill_a"), _filler("fill_b"))
    )
    result = parse_source(generated.file("line_main.st").text)
    assert result.ok
    sup = result.pous[0]
    decls = [d.name for s in sup.var_sections for d in s.decls]
    assert decls == ["fill_a", "fill_b", "_mode"]
    case = next(s for s in sup.statements if isinstance(s, CaseStatement))
    assert tuple(b.labels[0] for b in case.branches) == MODE_CONSTANTS
    calls = [s for s in sup.statements if s.__class__.__name__ == "CallStatement"]
    assert [c.callee for c in calls] == ["fill_a", "fill_b"]


def test_generated_statement_streams_equal_template(tmp_path):
    generated = generate_template_project(
        _templates(), _config(_filler("one"), InstanceSpec("cap", "Capper", {"torque": "9"}))
    )
    for template_name, template_text in _templates().templates.items():
        emitted = parse_source(generated.file(f"{template_name}.st").text)
        assert emitted.ok
        assert statement_stream(emitted.pous[0].statements) == (
            template_reference_stream(template_text)
        )


def test_empty_instance_list_parses(tmp_path):
    generated = generate_template_project(_templates(), _config())
    out = tmp_path / "out"
    generated.write_to(out)
    project, diags = parse_project(out)
    assert not [d for d in diags if d.severity == "error"]
    sup = project.pou("line_main")
    assert all(
        site.callee_text == "_mode" or site.resolution.value != "instance_of_fb"
        for site in sup.call_sites
    )
    assert not [s for s in sup.call_sites]  # no instances, no calls


def test_unknown_template_rejected():
    with pytest.raises(ConfigError, match="unknown template X"):
        generate_template_project(
            _templates(), _config(InstanceSpec("a", "X", {}))
        )


def test_missing_param_names_template_and_param():
    with pytest.raises(ConfigError, match=r"Filler.*units"):
        generate_template_project(
            _templates(), _config(InstanceSpec("a", "Filler", {"station": "1"}))
        )


def test_conflicting_params_rejected():
    good = InstanceSpec("a", "Filler", {"units": "3", "station": "7"})
    other = InstanceSpec("b", "Filler", {"units": "4", "station": "7"})
    with pytest.raises(ConfigError, match="conflicting"):
        generate_template_project(_templates(), _config(good, other))


def test_duplicate_instance_names_rejected():
    with pytest.raises(ConfigError, match="duplicate instance name"):
        generate_template_project(_templates(), _config(_filler("a"), _filler("A")))


@pytest.mark.parametrize(
    "old, new",
    [("step := 0;", "step := @{units};"),
     # an END_VAR in a comment does not start the body
     ("END_CASE\n", "END_CASE\nstep := @{units};\n(* do not add a VAR ... END_VAR here *)\n")],
    ids=["statement", "before-commented-end-var"],
)
def test_placeholder_in_body_is_hard_error(old, new):
    bad = FILLER_TEMPLATE.replace(old, new, 1)
    templates = TemplateSet({"Filler": bad})
    with pytest.raises(ConfigError, match="statement body"):
        generate_template_project(templates, _config(_filler("a")))


@pytest.mark.parametrize("constant", ["my mode", "END_VAR", "1ST", ""])
def test_mode_constant_must_be_identifier(constant):
    config = ModuleConfig(
        supervisory="line_main", mode_constants=("PLCMODSETUP", constant),
        instances=(_filler("a"),),
    )
    with pytest.raises(ConfigError, match=f"mode constant {constant!r} is not an ST identifier"):
        generate_template_project(_templates(), config)


def test_generation_deterministic():
    config = _config(_filler("a"), _filler("b"))
    first = generate_template_project(_templates(), config)
    second = generate_template_project(_templates(), config)
    assert [(f.name, f.text) for f in first.files] == [
        (f.name, f.text) for f in second.files
    ]


def test_manual_interlock_marker_present():
    generated = generate_template_project(_templates(), _config(_filler("a")))
    assert count_manual_markers(generated) == 1


# --- parameter mode ---------------------------------------------------------------


# a commented-out program ahead of the real one
COMMENTED_MAIN = "(* retired:\nPROGRAM OldMain\nEND_PROGRAM\n*)\n" + BASE_MAIN


def _parameter_project(rows, main=BASE_MAIN):
    return ParameterProject(
        invariable=(("storage_main.st", main), ("place_helper.st", BASE_HELPER)),
        component_template=STORAGE_TEMPLATE,
        columns=("name", "width", "depth"),
        rows=tuple(rows),
    )


def test_parameter_three_rows(tmp_path):
    rows = [
        {"name": "PlaceA", "width": "2", "depth": "4"},
        {"name": "PlaceB", "width": "3", "depth": "4"},
        {"name": "PlaceC", "width": "2", "depth": "6"},
    ]
    generated = generate_parameter_project(_parameter_project(rows))
    out = tmp_path / "out"
    generated.write_to(out)
    project, diags = parse_project(out)
    assert not [d for d in diags if d.severity == "error" ]
    assert len(project.pous) == 5  # 2 invariable + 3 generated
    assert len(project.globals) == 6  # width + depth per row
    assert {g.name for g in project.globals} == {
        "PlaceA_width", "PlaceA_depth", "PlaceB_width",
        "PlaceB_depth", "PlaceC_width", "PlaceC_depth",
    }


def test_parameter_zero_rows_is_base_only(tmp_path):
    generated = generate_parameter_project(_parameter_project([]))
    assert [f.name for f in generated.files if f.name.endswith(".st")] == [
        "storage_main.st", "place_helper.st",
    ]
    assert specificity_ratio(generated) == 0  # nothing but the copied base


@pytest.mark.parametrize("main", [BASE_MAIN, COMMENTED_MAIN], ids=["plain", "commented-out"])
def test_parameter_task_entry_from_single_program(tmp_path, main):
    generated = generate_parameter_project(
        _parameter_project([{"name": "PlaceA", "width": "1", "depth": "2"}], main)
    )
    assert generated.file("tasks.txt").text == "task main cycle 10 entry storage_main\n"
    out = tmp_path / "out"
    generated.write_to(out)
    project, diags = parse_project(out)
    assert diags == []  # not even warnings on a full round trip
    assert [t.entry for t in project.tasks] == ["storage_main"]


def test_parameter_duplicate_component_name():
    rows = [
        {"name": "Place", "width": "1", "depth": "1"},
        {"name": "place", "width": "2", "depth": "2"},
    ]
    with pytest.raises(ConfigError, match="duplicate component name"):
        generate_parameter_project(_parameter_project(rows))


@pytest.mark.parametrize(
    "main, name, collides",
    [(BASE_MAIN, "PlaceHelper", True), (COMMENTED_MAIN, "Storage_Main", True),
     (COMMENTED_MAIN, "OldMain", False)],
    ids=["helper", "program", "commented-out"],
)
def test_parameter_name_collides_with_invariable(main, name, collides):
    pp = _parameter_project([{"name": name, "width": "1", "depth": "1"}], main)
    if collides:
        with pytest.raises(ConfigError, match="collides"):
            generate_parameter_project(pp)
    else:
        assert generate_parameter_project(pp).file(f"{name}.st")


def test_parameter_missing_column_in_row():
    rows = [{"name": "PlaceA", "width": "1"}]
    with pytest.raises(ConfigError, match="row 0"):
        generate_parameter_project(_parameter_project(rows))


@pytest.mark.parametrize(
    "name, column, global_name",
    [("PlaceA", "max speed", "PlaceA_max speed"), ("END", "VAR", "END_VAR"),
     ("PlaceA", "größe", "PlaceA_größe")],
)
def test_parameter_global_must_be_identifier(name, column, global_name):
    pp = ParameterProject(
        invariable=(("storage_main.st", BASE_MAIN), ("place_helper.st", BASE_HELPER)),
        component_template=STORAGE_TEMPLATE,
        columns=("name", "width", "depth", column),
        rows=({"name": name, "width": "1", "depth": "2", column: "5"},),
    )
    with pytest.raises(
        ConfigError, match=f"row 0: parameter global {global_name!r} is not an ST identifier"
    ):
        generate_parameter_project(pp)


def test_parameter_component_stream_matches_template(tmp_path):
    rows = [{"name": "PlaceA", "width": "2", "depth": "4"}]
    generated = generate_parameter_project(_parameter_project(rows))
    emitted = parse_source(generated.file("PlaceA.st").text)
    assert emitted.ok
    assert statement_stream(emitted.pous[0].statements) == (
        template_reference_stream(STORAGE_TEMPLATE)
    )


def test_parameter_table_parsing():
    columns, rows = load_parameter_table("name,width\nA,1\nB,2\n")
    assert columns == ("name", "width")
    assert rows == ({"name": "A", "width": "1"}, {"name": "B", "width": "2"})


# --- specificity ratio ----------------------------------------------------------------


def test_specificity_all_template():
    project = GeneratedProject(
        (GeneratedFile("a.st", tuple(("x := 1;", Provenance.TEMPLATE) for _ in range(5))),)
    )
    assert specificity_ratio(project) == 0


def test_specificity_thirty_of_hundred():
    lines = [("line", Provenance.CONFIG)] * 30 + [("line", Provenance.TEMPLATE)] * 70
    project = GeneratedProject((GeneratedFile("a.st", tuple(lines)),))
    assert specificity_ratio(project) == Fraction(30, 100)


def test_specificity_counts_substituted_declarations():
    generated = generate_template_project(_templates(), _config(_filler("a")))
    filler = generated.file("Filler.st")
    config_lines = [t for t, p in filler.lines if p is Provenance.CONFIG]
    assert len(config_lines) == 2  # the two parameter initializers
    assert 0 < specificity_ratio(generated) < 1
