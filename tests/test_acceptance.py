"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

from __future__ import annotations

import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from oracles import brute_force_call_edges, brute_force_global_edges, pearson_reference
from swmat.configurator import (
    InstanceSpec,
    ModuleConfig,
    ParameterProject,
    TemplateSet,
    generate_parameter_project,
    generate_template_project,
)
from swmat.graphs import build_call_graph, build_global_comm_graph
from swmat.maturity import build_report, overall_maturity, pearson, score_answer
from swmat.model import (
    AnswerSet,
    CompanyCategory,
    Grade,
    GovernanceLevel,
    StructureStyle,
    body_facts,
    validate_project,
)
from swmat.modularity import assessment_score, classify_structure_style
from swmat.project import parse_project
from swmat.reporting import RadarSeries, RadarSpec, emit_radar_svg
from swmat.stparse import parse_source
from st_printer import statement_stream
from synth import chain_project, random_project, star_project
from test_configurator import (
    BASE_HELPER,
    BASE_MAIN,
    CAPPER_TEMPLATE,
    FILLER_TEMPLATE,
    STORAGE_TEMPLATE,
    template_reference_stream,
)
from test_stparse import MAIN_INSTANCE_DECLS, MODE_DISPATCH_BODY, GUARDED_MODE_BODY

F = Fraction

TANK_CONTROL_DECLS = """FUNCTION_BLOCK Preparation_and_Tank_Control
VAR_INPUT
END_VAR
VAR_OUTPUT
END_VAR
VAR
  hTank : Tank_Heat;
  aTank : Tank_Analogous;
  pTank : Tank_P;
  Pump : Motor_Analogous;
  VAffluxHTankUp : Valve;
  VAffluxHTankDown : Valve;
  VAffluxPTankDown : Valve;
  VAffluxATankUp : Valve;
  VAnalogous : Valve_Analogous;
  VRunoffATank : Valve;
  run_step : USINT := 0;
END_VAR
END_FUNCTION_BLOCK
"""


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_operation_scale_fidelity(schema):
    started = time.monotonic()
    expected = {
        36: [5, F("3.25"), F("2.5"), 0],
        37: [5, F("2.5"), 0],
        38: [5, 4, 2],
        39: [5, F("3.75"), F("1.25"), 0],
    }
    for qid, scores in expected.items():
        options = schema.question(qid).options
        assert [o.score for o in options] == scores, qid
        for option in options:
            assert score_answer(schema, qid, option.key)[0] == option.score
            assert score_answer(schema, qid, option.label)[0] == option.score
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _ok(1, "operation-question scores exact (5/3.25/2.5/0; 5/2.5/0; 5/4/2; 5/3.75/1.25/0)")


def test_criterion_02_overall_reconstruction():
    started = time.monotonic()
    weights = (80, 25, 20)
    cases = [
        ((0.86, 0.63, 0.58), 0.77),
        ((0.75, 0.85, 0.95), 0.80),
        ((0.32, 0.36, 0.55), 0.36),
        ((0.36, 0.28, 0.54), 0.37),
    ]
    for ratios, expected in cases:
        parts = [(F(str(r)) * w, F(w)) for r, w in zip(ratios, weights)]
        overall = overall_maturity(parts)
        assert abs(overall - F(str(expected))) <= F(1, 100), (ratios, float(overall))
    assert time.monotonic() - started < 1.0
    _ok(2, "overall maturities land within 0.01 of 0.77 / 0.80 / 0.36 / 0.37")


def test_criterion_03_expert_score_sums():
    high = {
        "decomposability": Grade.PLUS_PLUS,
        "composability": Grade.PLUS,
        "understandability": Grade.PLUS_PLUS,
        "protection": Grade.PLUS_PLUS,
    }
    weak = {
        "decomposability": Grade.MINUS,
        "composability": Grade.PLUS,
        "understandability": Grade.PLUS,
        "protection": Grade.MINUS,
    }
    assert assessment_score(high, GovernanceLevel.L1) == 8
    assert assessment_score(weak, GovernanceLevel.L0) == 2
    _ok(3, "expert score sums reproduce exactly (L1+,++,+,++,++ -> 8; L0-,-,+,+,- -> 2)")


def test_criterion_04_fixture_parsing():
    decl_block = parse_source(MAIN_INSTANCE_DECLS)
    assert decl_block.ok
    decls = [d for s in decl_block.pous[0].var_sections for d in s.decls]
    assert [(d.name, d.type_name) for d in decls] == [
        ("FllRB", "Filling_Station_new"),
        ("FllSG", "Filling_Station_new"),
        ("Prate", "Preparation_and_Tank_Control"),
    ]

    dispatch = parse_source("PROGRAM main\n" + MODE_DISPATCH_BODY + "END_PROGRAM")
    assert dispatch.ok
    dispatch_calls = sorted(c[0] for c in body_facts(dispatch.pous[0].statements).calls)
    assert dispatch_calls == ["automatic", "automatic", "emergency_stop", "reinit", "setup"]

    tank_decls = parse_source(TANK_CONTROL_DECLS)
    assert tank_decls.ok
    assert len(tank_decls.pous) == 1
    assert tank_decls.pous[0].name == "Preparation_and_Tank_Control"
    tank_declarations = [d for s in tank_decls.pous[0].var_sections for d in s.decls]
    assert len(tank_declarations) == 11
    assert sum(1 for d in tank_declarations if d.type_name == "Valve") == 5
    assert sum(1 for d in tank_declarations if d.type_name == "Valve_Analogous") == 1

    guarded = parse_source("FUNCTION_BLOCK fb\n" + GUARDED_MODE_BODY + "END_FUNCTION_BLOCK")
    assert guarded.ok
    guarded_calls = sorted(c[0] for c in body_facts(guarded.pous[0].statements).calls)
    assert guarded_calls == ["abort", "automatic", "automatic", "emergency_stop", "reinit", "setup"]
    _ok(4, "code excerpts parse clean; declarations and call sites match exactly")


def test_criterion_05_graph_oracle_equivalence(tmp_path):
    corpus = [chain_project(tmp_path / "chain", length=3),
              star_project(tmp_path / "star", leaves=4)]
    corpus += [random_project(tmp_path / f"r{seed}", seed) for seed in range(10)]
    checked = 0
    for directory in corpus:
        project, diags = parse_project(directory)
        assert not [d for d in diags if d.severity == "error"]
        if len(project.pous) > 6:
            continue
        graph = build_call_graph(project)
        assert {(e.caller, e.callee): e.multiplicity for e in graph.edges} == (
            brute_force_call_edges(project)
        ), directory
        global_graph = build_global_comm_graph(project)
        assert {(e.writer, e.reader, e.via) for e in global_graph.edges} == (
            brute_force_global_edges(project)
        ), directory
        checked += 1
    assert checked >= 10
    _ok(5, f"call and global edges match the brute-force oracle on {checked} projects")


def test_criterion_06_structure_style_separation(tmp_path):
    for seed in range(5):
        chain_dir = chain_project(tmp_path / f"chain{seed}", length=3 + seed)
        project, _ = parse_project(chain_dir)
        result = classify_structure_style(
            build_call_graph(project), build_global_comm_graph(project)
        )
        assert result.style is StructureStyle.HIERARCHICAL_CALLS, seed

        star_dir = star_project(tmp_path / f"star{seed}", leaves=4 + seed)
        project, _ = parse_project(star_dir)
        result = classify_structure_style(
            build_call_graph(project), build_global_comm_graph(project)
        )
        assert result.style is StructureStyle.FLAT_GLOBAL, seed
    _ok(6, "deep chains classify hierarchical, global-heavy stars classify flat, all seeds")


def test_criterion_07_pearson_oracle():
    rng = random.Random(20240817)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 20)
        xs = [rng.uniform(-50, 50) for _ in range(n)]
        ys = [rng.uniform(-50, 50) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert pearson(xs, ys).r == pytest.approx(pearson_reference(xs, ys), abs=1e-9)
        checked += 1

    xs = [rng.uniform(0, 5) for _ in range(15)]
    ys = [rng.uniform(0, 5) for _ in range(15)]
    base = pearson(xs, ys).r
    for a, b in ((3.0, -1.0), (0.25, 7.0)):
        assert abs(pearson([a * x + b for x in xs], ys).r - base) < 1e-12
        assert abs(pearson(xs, [a * y + b for y in ys]).r - base) < 1e-12
    _ok(7, "pearson matches the covariance oracle to 1e-9 on 100 samples; affine-stable to 1e-12")


def _random_template_config(rng: random.Random) -> ModuleConfig:
    templates = ["Filler", "Capper"]
    instances = []
    params = {
        "Filler": {"units": str(rng.randint(1, 9)), "station": str(rng.randint(1, 9))},
        "Capper": {"torque": str(rng.randint(1, 9))},
    }
    for t_index, template in enumerate(templates):
        for i in range(rng.randint(0, 3)):
            instances.append(
                InstanceSpec(f"inst_{t_index}_{i}", template, params[template])
            )
    return ModuleConfig(supervisory="line_main", instances=tuple(instances))


def test_criterion_08_configurator_round_trip(tmp_path):
    templates = TemplateSet({"Filler": FILLER_TEMPLATE, "Capper": CAPPER_TEMPLATE})
    references = {
        name: template_reference_stream(text)
        for name, text in templates.templates.items()
    }
    rng = random.Random(7)
    template_runs = 0
    for attempt in range(12):
        config = _random_template_config(rng)
        generated = generate_template_project(templates, config)
        out = tmp_path / f"t{attempt}"
        generated.write_to(out)
        project, diags = parse_project(out)
        assert not [d for d in diags if d.severity == "error"], attempt
        assert validate_project(project) == []
        graph = build_call_graph(project)
        edges = {
            (e.caller, e.callee): e.multiplicity
            for e in graph.edges
            if e.caller == "line_main"
        }
        expected_counts: dict[str, int] = {}
        for spec in config.instances:
            expected_counts[spec.template] = expected_counts.get(spec.template, 0) + 1
        assert edges == {
            ("line_main", template): count
            for template, count in expected_counts.items()
        }, attempt
        for template in expected_counts:
            emitted = parse_source(generated.file(f"{template}.st").text)
            assert statement_stream(emitted.pous[0].statements) == references[template]
        template_runs += 1

    reference = template_reference_stream(STORAGE_TEMPLATE)
    parameter_runs = 0
    for attempt in range(10):
        rows = tuple(
            {
                "name": f"Place{attempt}_{i}",
                "width": str(rng.randint(1, 9)),
                "depth": str(rng.randint(1, 9)),
            }
            for i in range(rng.randint(0, 5))
        )
        pp = ParameterProject(
            invariable=(("storage_main.st", BASE_MAIN), ("place_helper.st", BASE_HELPER)),
            component_template=STORAGE_TEMPLATE,
            columns=("name", "width", "depth"),
            rows=rows,
        )
        generated = generate_parameter_project(pp)
        out = tmp_path / f"p{attempt}"
        generated.write_to(out)
        project, diags = parse_project(out)
        assert not [d for d in diags if d.severity == "error"], attempt
        assert validate_project(project) == []
        for row in rows:
            emitted = parse_source(generated.file(f"{row['name']}.st").text)
            assert statement_stream(emitted.pous[0].statements) == reference
        parameter_runs += 1
    assert template_runs >= 10 and parameter_runs >= 10
    _ok(8, f"{template_runs} template and {parameter_runs} parameter configs re-parse; "
           "edges and token streams as required")


def test_criterion_09_radar_gap_rule():
    spokes = tuple((i, f"q{i}") for i in range(1, 6))

    def count_polylines(values):
        spec = RadarSpec(spokes, (RadarSeries("s", tuple(values)),))
        svg = emit_radar_svg(spec)
        ns = "{http://www.w3.org/2000/svg}"
        return len(list(ET.fromstring(svg).iter(f"{ns}polyline")))

    assert count_polylines([F(3)] * 5) == 1
    assert count_polylines([F(3), F(3), None, F(3), F(3)]) == 2
    _ok(9, "one missing value splits the profile into exactly two polylines")


def test_criterion_10_monotonicity(schema):
    rng = random.Random(31415)
    scored = schema.scored_ids()
    checked = 0
    while checked < 200:
        answers = {}
        for qid in scored:
            if rng.random() < 0.7:
                question = schema.question(qid)
                answers[qid] = rng.choice(question.options).key
        qid = rng.choice(scored)
        question = schema.question(qid)
        ordered = sorted(question.options, key=lambda o: o.score)
        current_key = answers.get(qid, ordered[0].key)
        current_score = next(o.score for o in question.options if o.key == current_key)
        better = [o for o in ordered if o.score > current_score]
        if not better:
            continue
        answers[qid] = current_key
        upgraded = dict(answers)
        upgraded[qid] = rng.choice(better).key

        before = build_report(schema, AnswerSet("c", CompanyCategory.MACHINE, answers))
        after = build_report(schema, AnswerSet("c", CompanyCategory.MACHINE, upgraded))
        for attr in ("m_mod", "m_test", "m_op", "overall"):
            old = getattr(before, attr)
            new = getattr(after, attr)
            if old is not None and new is not None:
                assert new >= old, (qid, attr)
        checked += 1
    _ok(10, "200 single-answer upgrades never lowered a category or overall maturity")
