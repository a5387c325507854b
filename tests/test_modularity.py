from __future__ import annotations

import gc
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from swmat.graphs import (
    CallEdge,
    CallGraph,
    CallGraphNode,
    GlobalCommGraph,
    GlobalUsers,
    build_call_graph,
    build_global_comm_graph,
)
from swmat.model import (
    ArchLevel,
    CallResolution,
    Grade,
    GovernanceLevel,
    PouKind,
    StructureStyle,
    TokenKind,
)
from swmat.modularity import (
    CloneReport,
    GovernanceEvidence,
    Thresholds,
    assess_project,
    assessment_score,
    assign_levels,
    classify_structure_style,
    detect_clones,
    detect_cross_cutting,
    estimate_governance,
    grade_meyer,
    clone_fingerprint,
    load_thresholds,
)
from swmat.project import parse_project
from oracles import (
    _resolved_calls,
    clone_body_reference,
    clone_groups_reference,
    normalize_tokens,
    reference_call_occurrences,
    reference_complexity,
    reference_global_accesses,
    reference_statement_stream,
)
from synth import chain_project, random_project, star_project, write_project
from test_golden import MIXED_ST


def _node(name, kind=PouKind.FUNCTION_BLOCK, external=False):
    return CallGraphNode(name, None if external else kind, 1, external=external)


def _graph(edge_pairs, entries, extra_nodes=()):
    names = {n for pair in edge_pairs for n in pair[:2]} | set(entries) | set(extra_nodes)
    nodes = tuple(_node(n) for n in sorted(names))
    edges = tuple(CallEdge(a, b, m) for a, b, m in edge_pairs)
    return CallGraph(nodes, edges, tuple(entries))


def _globals_graph(triples, nodes=()):
    """One global per (writer, reader, global) triple, so each is one edge."""
    return GlobalCommGraph(
        tuple(nodes),
        tuple(GlobalUsers(via, (writer,), (reader,)) for writer, reader, via in triples),
    )


# --- levels ---------------------------------------------------------------------


def test_single_entry_only():
    graph = _graph([], ["only"])
    levels = assign_levels(graph)
    assert levels.levels_below_entry == 0
    assert levels.strata["only"] == 0


def test_chain_depth_four(tmp_path):
    project, _ = parse_project(chain_project(tmp_path, length=4))
    levels = assign_levels(build_call_graph(project))
    assert levels.levels_below_entry == 4


def test_star_depth_one():
    graph = _graph([("entry", f"L{i}", 1) for i in range(6)], ["entry"])
    levels = assign_levels(graph)
    assert levels.levels_below_entry == 1
    assert all(levels.strata[f"L{i}"] == 1 for i in range(6))


def test_named_levels_default_and_plant(tmp_path):
    project, _ = parse_project(chain_project(tmp_path, length=4))
    graph = build_call_graph(project)
    levels = assign_levels(graph)
    assert levels.named["entry"] is ArchLevel.FACILITY
    assert levels.named["Link1"] is ArchLevel.APPLICATION
    assert levels.named["Link2"] is ArchLevel.BASIC
    assert levels.named["Link3"] is ArchLevel.BASIC  # beyond the ladder collapses
    assert levels.named["Link4"] is ArchLevel.ATOMIC_BASIC  # leaf

    plant_levels = assign_levels(graph, plant=True)
    assert plant_levels.named["entry"] is ArchLevel.PLANT
    assert plant_levels.named["Link1"] is ArchLevel.FACILITY


def test_unreachable_reported():
    graph = _graph([("entry", "a", 1)], ["entry"], extra_nodes=["island"])
    levels = assign_levels(graph)
    assert levels.unreachable == ("island",)
    assert levels.strata["island"] is None
    assert levels.named["island"] is ArchLevel.ATOMIC_BASIC


def test_bfs_strata_are_shortest_paths(plant_project):
    graph = build_call_graph(plant_project)
    levels = assign_levels(graph)
    for name, stratum in levels.strata.items():
        if stratum is None or stratum == 0:
            continue
        callers = [
            levels.strata[e.caller] for e in graph.edges if e.callee == name
        ]
        assert (stratum - 1) in callers


def test_atomic_basic_iff_leaf(plant_project):
    graph = build_call_graph(plant_project)
    levels = assign_levels(graph)
    node_map = graph.node_map()
    for node in graph.nodes:
        has_project_callee = any(
            not node_map[e.callee].external
            for e in graph.edges
            if e.caller == node.name
        )
        assert (levels.named[node.name] is ArchLevel.ATOMIC_BASIC) == (
            not has_project_callee
        )


# --- structure style -------------------------------------------------------------


def test_style_deep_chain_no_globals(tmp_path):
    project, _ = parse_project(chain_project(tmp_path, length=4))
    result = classify_structure_style(
        build_call_graph(project), build_global_comm_graph(project)
    )
    assert result.style is StructureStyle.HIERARCHICAL_CALLS
    assert result.coupling_fraction == 0


def test_style_flat_global_arithmetic():
    call = _graph([("entry", f"L{i}", 1) for i in range(6)], ["entry"])
    globals_graph = _globals_graph(
        [(f"L{i % 6}", f"L{(i + 1) % 6}", f"g{i}") for i in range(10)]
    )
    result = classify_structure_style(call, globals_graph)
    assert result.style is StructureStyle.FLAT_GLOBAL
    assert result.coupling_fraction == Fraction(10, 16)


def test_style_mixed_mid_coupling():
    # depth 4 chain padded to six call edges, four global edges: f = 0.4
    call = _graph(
        [
            ("entry", "a", 1),
            ("a", "b", 1),
            ("b", "c", 1),
            ("c", "d", 1),
            ("entry", "e", 1),
            ("a", "f", 1),
        ],
        ["entry"],
    )
    globals_graph = _globals_graph([("a", "b", f"g{i}") for i in range(4)])
    result = classify_structure_style(call, globals_graph)
    assert result.coupling_fraction == Fraction(4, 10)
    assert result.style is StructureStyle.MIXED


def test_style_empty_graphs_warn():
    result = classify_structure_style(_graph([], []), _globals_graph([]))
    assert result.style is StructureStyle.MIXED
    assert result.coupling_fraction == 0
    assert result.warning


def test_style_invariant_under_renaming():
    call = _graph([("entry", "a", 1), ("entry", "b", 1)], ["entry"])
    renamed = _graph([("main", "x", 1), ("main", "y", 1)], ["main"])
    globals_a = _globals_graph([("a", "b", "g")])
    globals_b = _globals_graph([("x", "y", "q")])
    first = classify_structure_style(call, globals_a)
    second = classify_structure_style(renamed, globals_b)
    assert first.style is second.style
    assert first.coupling_fraction == second.coupling_fraction


# --- clones ---------------------------------------------------------------------


_TRANSPORT_BODY = """IF running THEN
  {p} := {p} + speed;
  IF {p} > limit THEN
    {p} := limit;
    running := FALSE;
  END_IF
END_IF
"""


def _transport(name: str, var: str) -> str:
    return (
        f"FUNCTION_BLOCK {name}\n"
        "VAR\n"
        f"  {var} : INT;\n  speed : INT;\n  limit : INT;\n  running : BOOL;\n"
        "END_VAR\n" + _TRANSPORT_BODY.format(p=var) + "END_FUNCTION_BLOCK\n"
    )


def test_no_clones_when_unique(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": "PROGRAM a\nx := 1;\ny := 2;\nz := x + y;\nq := z * 2;\n"
            "r := q - 1;\ns := r;\nt := s;\nEND_PROGRAM\n",
            "b.st": _transport("T1", "pos"),
        },
    )
    project, _ = parse_project(tmp_path)
    report = detect_clones(project)
    assert report.groups == ()
    assert report.clone_ratio == 0


def test_renamed_copies_form_one_group(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": _transport("TransportA", "pos"),
            "b.st": _transport("TransportB", "distance"),
        },
    )
    project, _ = parse_project(tmp_path)
    report = detect_clones(project)
    assert report.groups == (("TransportA", "TransportB"),)


def test_clone_ratio_three_of_five(tmp_path):
    files = {
        "t1.st": _transport("T1", "a"),
        "t2.st": _transport("T2", "b"),
        "t3.st": _transport("T3", "c"),
        "u1.st": "PROGRAM u1\n" + "\n".join(f"x{i} := {i};" for i in range(12)) + "\nEND_PROGRAM\n",
        "u2.st": "PROGRAM u2\n" + "\n".join(f"y{i} := {i} + 1;" for i in range(12)) + "\nEND_PROGRAM\n",
    }
    project, _ = parse_project(write_project(tmp_path, files))
    report = detect_clones(project)
    assert report.groups == (("T1", "T2", "T3"),)
    assert report.clone_ratio == Fraction(3, 5)


def test_short_bodies_ignored(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": "PROGRAM a\nx := 1;\nEND_PROGRAM\n",
            "b.st": "PROGRAM b\ny := 1;\nEND_PROGRAM\n",
        },
    )
    project, _ = parse_project(tmp_path)
    assert detect_clones(project).groups == ()


def _clone_cases():
    """(name, project files) for the clone oracle comparison."""
    plant = Path(__file__).parent / "fixtures" / "filling_plant"
    yield "fixture", {p.name: p.read_text(encoding="utf-8") for p in plant.glob("*.st")}
    yield "mixed", {"mixed.st": MIXED_ST}
    pairs = {
        "assign": ("x := 1;", "x := y;"),
        "literal": ("x := 'a';", "x := 1;"),
        "case": ("IF x THEN y := 1; END_IF", "if x then y := 1; end_if"),
        "range": ("CASE s OF 1..5: x := 1; END_CASE", "CASE t OF 2..9: y := 2; END_CASE"),
        "range_kind": ("CASE s OF 1..5: x := 1; END_CASE", "CASE s OF a..b: x := 1; END_CASE"),
        "range_list": ("CASE s OF 1..5: x := 1; END_CASE", "CASE s OF 1, 5: x := 1; END_CASE"),
        "typed": ("CASE s OF INT#1 .. 5: x := 1; END_CASE", "CASE s OF a..5: x := 1; END_CASE"),
        "call": ("a.b(x := 1);", "c.d(y := 2);"),
        "action": ("x := 1;\nACTION act\n  y := 2;\nEND_ACTION",
                   "x := 1;\ny := 2;"),
    }
    for name, (first, second) in pairs.items():
        yield name, {
            "a.st": f"PROGRAM a\n{first}\nEND_PROGRAM\n",
            "b.st": f"PROGRAM b\n{second}\nEND_PROGRAM\n",
        }


def _reference_corpus(tmp_path):
    """The clone cases and 60 random projects, parsed, for the oracle comparisons."""
    projects = [
        parse_project(write_project(tmp_path / name, files))[0]
        for name, files in _clone_cases()
    ]
    projects += [
        parse_project(random_project(tmp_path / f"random{seed}", seed))[0]
        for seed in range(60)
    ]
    return projects


def _code(kind, text):
    """The fingerprint code of one (kind, text) pair of the reference stream."""
    if kind is TokenKind.IDENT:
        return "i"
    if kind is TokenKind.NUMBER:
        return "n"
    if kind is TokenKind.STRING:
        return "s"
    return text.upper()


@pytest.mark.parametrize("min_tokens", [1, 20])
def test_clones_match_reference(tmp_path, min_tokens):
    for project in _reference_corpus(tmp_path):
        report = detect_clones(project, min_tokens)
        assert report.groups == clone_groups_reference(project, min_tokens)
        for pou in project.pous:
            reference = reference_statement_stream(pou.all_statements())
            assert clone_fingerprint(pou) == tuple(_code(k, t) for k, t in reference)
            assert len(clone_fingerprint(pou)) == len(clone_body_reference(pou))


def _from_swmat(obj) -> bool:
    module = obj.__module__ if isinstance(obj, types.FunctionType) else type(obj).__module__
    return (module or "").split(".")[0] == "swmat"


def test_analysis_leaves_no_cyclic_garbage(tmp_path):
    """Parsing and assessing a project builds no reference cycle, so
    reference counting frees all of it without a full collection."""
    plant = Path(__file__).parent / "fixtures" / "filling_plant"
    synthetic = random_project(tmp_path / "random", 3)
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for directory in (plant, synthetic):
            project, _ = parse_project(directory)
            assess_project(project, build_call_graph(project), build_global_comm_graph(project))
        gc.collect()
        leaked = [obj for obj in gc.garbage if _from_swmat(obj)]
        assert not leaked, sorted({getattr(o, "__qualname__", type(o).__qualname__)
                                   for o in leaked})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


_INDEXED_TARGET_ST = """\
VAR_GLOBAL
  gArr : ARRAY[0..3] OF INT;
  gIdx : INT;
END_VAR
PROGRAM p
gArr[gIdx] := 1;
END_PROGRAM
"""

# instance calls through a global and a local, and a call through a local
# that is no FB instance although its name spells an FB
_INSTANCE_CALLS_ST = """\
VAR_GLOBAL
  gPump : Pump;
END_VAR
FUNCTION_BLOCK Pump
END_FUNCTION_BLOCK
FUNCTION_BLOCK Motor
END_FUNCTION_BLOCK
PROGRAM p
VAR
  motor : INT;
  spare : Pump;
END_VAR
gPump();
motor();
Spare.run();
END_PROGRAM
"""


def test_pou_facts_match_reference(tmp_path):
    extra = [
        parse_project(write_project(tmp_path / name, {f"{name}.st": text}))[0]
        for name, text in (("indexed", _INDEXED_TARGET_ST), ("instances", _INSTANCE_CALLS_ST))
    ]
    for project in _reference_corpus(tmp_path) + extra:
        accesses = reference_global_accesses(project)
        instance_calls = {pou.name: Counter() for pou in project.pous}
        for caller, callee, fb_type, instance in _resolved_calls(project):
            if instance is not None:
                instance_calls[caller.name][callee, fb_type] += 1
        for pou in project.pous:
            assert (pou.global_reads, pou.global_writes) == accesses[pou.name]
            assert pou.complexity == reference_complexity(pou)
            calls = Counter(site.callee_text for site in pou.call_sites)
            assert calls == Counter(reference_call_occurrences(pou))
            # an instance call goes through a declared instance of its FB type
            instances = Counter(
                (site.callee_text, site.target) for site in pou.call_sites
                if site.resolution is CallResolution.INSTANCE_OF_FB
            )
            assert instances == instance_calls[pou.name]


@pytest.mark.parametrize(
    "name, clones",
    [("assign", False), ("literal", False), ("case", True), ("range", True),
     ("range_kind", False), ("range_list", False), ("typed", True), ("call", True),
     ("action", True)],
)
def test_clone_pairs(tmp_path, name, clones):
    files = dict(_clone_cases())[name]
    project, diagnostics = parse_project(write_project(tmp_path, files))
    assert not [d for d in diagnostics if d.severity == "error"]
    assert detect_clones(project, min_tokens=1).groups == ((("a", "b"),) if clones else ())


def test_detect_clones_skips_printer_and_kind_hashing(tmp_path, monkeypatch):
    project, _ = parse_project(write_project(tmp_path, {"mixed.st": MIXED_ST}))
    expected = detect_clones(project, min_tokens=1)

    def boom(*args, **kwargs):
        raise AssertionError("clone detection must not go through this")

    monkeypatch.setattr(TokenKind, "__hash__", boom)
    with pytest.raises(AssertionError):
        hash(TokenKind.IDENT)
    assert detect_clones(project, min_tokens=1) == expected


_token_pairs = st.lists(
    st.tuples(
        st.sampled_from(list(TokenKind)),
        st.text(st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=6),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(stream=_token_pairs)
def test_normalization_idempotent(stream):
    once = normalize_tokens(stream)
    assert normalize_tokens(once) == once


# --- cross-cutting ---------------------------------------------------------------


def test_cross_cutting_chain_empty(tmp_path):
    project, _ = parse_project(chain_project(tmp_path, length=4))
    graph = build_call_graph(project)
    assert detect_cross_cutting(graph) == []


def test_cross_cutting_error_handler():
    edges = [
        ("entry", "s1", 1),
        ("entry", "s2", 1),
        ("s1", "t1", 1),
        ("s2", "t2", 1),
        # error handler called from strata 0, 1, 1, 2
        ("entry", "error_handler", 1),
        ("s1", "error_handler", 1),
        ("s2", "error_handler", 1),
        ("t1", "error_handler", 1),
    ]
    graph = _graph(edges, ["entry"])
    assert detect_cross_cutting(graph, k=4) == ["error_handler"]


def test_hub_with_single_stratum_not_flagged():
    edges = [("entry", f"s{i}", 1) for i in range(5)]
    edges += [(f"s{i}", "hub", 1) for i in range(5)]
    graph = _graph(edges, ["entry"])
    assert detect_cross_cutting(graph, k=4) == []


# --- Meyer grades -----------------------------------------------------------------


def _tree_reuse_project(tmp_path):
    files = {
        "entry.st": "PROGRAM entry\nVAR\n  a : AppA;\nEND_VAR\na();\nEND_PROGRAM\n",
        "appa.st": (
            "FUNCTION_BLOCK AppA\nVAR\n  b1 : BasicB;\n  b2 : BasicB;\nEND_VAR\n"
            "b1();\nb2();\nEND_FUNCTION_BLOCK\n"
        ),
        "basicb.st": (
            "FUNCTION_BLOCK BasicB\nVAR\n  c : LeafC;\n  x : INT;\nEND_VAR\n"
            "c();\nx := x + 1;\nEND_FUNCTION_BLOCK\n"
        ),
        "leafc.st": "FUNCTION_BLOCK LeafC\nVAR\n  y : INT;\nEND_VAR\ny := 1;\nEND_FUNCTION_BLOCK\n",
    }
    return write_project(tmp_path, files, "task t cycle 10 entry entry\n")


def _analyze(project, evidence=GovernanceEvidence(), thresholds=Thresholds()):
    return assess_project(
        project,
        build_call_graph(project),
        build_global_comm_graph(project),
        thresholds,
        evidence,
    )


def test_meyer_tree_with_reuse(tmp_path):
    project, _ = parse_project(_tree_reuse_project(tmp_path))
    analysis = _analyze(project)
    grades = analysis.assessment.grades
    assert grades["decomposability"] is Grade.PLUS_PLUS
    assert grades["understandability"] is Grade.PLUS_PLUS
    assert grades["protection"] is Grade.PLUS_PLUS
    # one of three FB types is instantiated twice and no library stubs exist
    assert grades["composability"] is Grade.PLUS


def _case_c_project(tmp_path):
    """Flat star over global data with cloned transports and two driver stubs."""
    files = {}
    stations = [f"Transport{i}" for i in (1, 2, 3)] + [f"Handling{i}" for i in (1, 2, 3)]
    entry = ["PROGRAM entry", "VAR"]
    for name in stations:
        entry.append(f"  i{name} : {name};")
    entry += ["END_VAR"]
    for name in stations:
        entry.append(f"i{name}();")
    entry += ["Driver1();", "Driver2();", "END_PROGRAM"]
    files["entry.st"] = "\n".join(entry) + "\n"

    variables = ["pos", "dist", "way"]
    for idx, name in enumerate(["Transport1", "Transport2", "Transport3"]):
        var = variables[idx]
        nxt, nxt2 = (idx + 1) % 3, (idx + 2) % 3
        files[f"{name.lower()}.st"] = (
            f"FUNCTION_BLOCK {name}\n"
            f"VAR\n  {var} : INT;\n  speed : INT;\n  limit : INT;\n  running : BOOL;\nEND_VAR\n"
            + _TRANSPORT_BODY.format(p=var)
            + f"gBelt{idx} := TRUE;\nrunning := gBelt{nxt} AND gBelt{nxt2};\n"
            "END_FUNCTION_BLOCK\n"
        )
    for idx, name in enumerate(["Handling1", "Handling2", "Handling3"]):
        nxt, nxt2 = (idx + 1) % 3, (idx + 2) % 3
        lines = [f"FUNCTION_BLOCK {name}", "VAR", "  n : INT;", "END_VAR"]
        for j in range(idx + 1):
            lines.append(f"n := n + {j};")
        lines.append(f"gHand{idx} := TRUE;")
        lines.append(f"busy{idx} := gHand{nxt} OR gHand{nxt2};")
        lines.append("END_FUNCTION_BLOCK")
        files[f"{name.lower()}.st"] = "\n".join(lines) + "\n"

    files["globals.st"] = (
        "VAR_GLOBAL\n"
        + "\n".join(f"  gBelt{i} : BOOL;" for i in range(3))
        + "\n"
        + "\n".join(f"  gHand{i} : BOOL;" for i in range(3))
        + "\nEND_VAR\n"
    )
    directory = write_project(tmp_path, files, "task t cycle 10 entry entry\n")
    (directory / "externals.txt").write_text("Driver1 lib\nDriver2 lib\n", encoding="utf-8")
    return directory


def test_meyer_case_c_signature(tmp_path):
    project, diags = parse_project(_case_c_project(tmp_path))
    assert not [d for d in diags if d.severity == "error"]
    analysis = _analyze(project)
    style = analysis.style
    assert style.coupling_fraction >= Fraction(1, 2)
    assert analysis.assessment.structure_style is StructureStyle.FLAT_GLOBAL
    grades = analysis.assessment.grades
    assert grades["decomposability"] is Grade.MINUS
    assert grades["protection"] is Grade.MINUS
    assert grades["composability"] is Grade.PLUS
    assert grades["understandability"] is Grade.PLUS
    assert analysis.clones.groups == (("Transport1", "Transport2", "Transport3"),)
    # everything matches the weak-case row: governance L0, sum 2
    assert analysis.assessment.governance is GovernanceLevel.L0
    assert analysis.assessment.score_sum == 2


def _case_b_project(tmp_path):
    files = {
        "entry.st": (
            "PROGRAM entry\nVAR\n  m1 : ModuleA;\n  m2 : ModuleB;\nEND_VAR\n"
            "m1();\nm2();\nEND_PROGRAM\n"
        ),
        "modulea.st": (
            "FUNCTION_BLOCK ModuleA\nVAR\n  s : SubUnit;\nEND_VAR\n"
            "s();\nDiag();\nEND_FUNCTION_BLOCK\n"
        ),
        "moduleb.st": (
            "FUNCTION_BLOCK ModuleB\nVAR\n  s : SubUnit;\nEND_VAR\n"
            "s();\nDiag();\nEND_FUNCTION_BLOCK\n"
        ),
        "subunit.st": (
            "FUNCTION_BLOCK SubUnit\nVAR\n  x : INT;\nEND_VAR\n"
            "x := x + 1;\nEND_FUNCTION_BLOCK\n"
        ),
    }
    directory = write_project(tmp_path, files, "task t cycle 10 entry entry\n")
    (directory / "externals.txt").write_text("Diag lib\n", encoding="utf-8")
    return directory


def test_meyer_case_b_composability(tmp_path):
    project, _ = parse_project(_case_b_project(tmp_path))
    analysis = _analyze(project)
    assert analysis.style.coupling_fraction <= Fraction(1, 4)
    # SubUnit is instantiated twice and Diag is a reused library stub:
    # half of the four FB types, squarely at the ++ cutoff
    assert analysis.assessment.grades["composability"] is Grade.PLUS_PLUS


# --- governance, scores ------------------------------------------------------------


def _clone_report(ratio):
    return CloneReport((), Fraction(ratio), 10)


def test_governance_templates_l3():
    level, _ = estimate_governance(
        _clone_report(0), Fraction(0), GovernanceEvidence(templates_present=True)
    )
    assert level is GovernanceLevel.L3


def test_governance_parameters_l2():
    level, _ = estimate_governance(
        _clone_report(0), Fraction(0), GovernanceEvidence(parameters_present=True)
    )
    assert level is GovernanceLevel.L2


def test_governance_provenance_with_clones_l1():
    level, _ = estimate_governance(
        _clone_report(Fraction(1, 2)),
        Fraction(0),
        GovernanceEvidence(provenance_log_present=True),
    )
    assert level is GovernanceLevel.L1


def test_governance_default_l0():
    level, rationale = estimate_governance(
        _clone_report(Fraction(1, 2)), Fraction(0), GovernanceEvidence()
    )
    assert level is GovernanceLevel.L0
    assert rationale


def test_governance_marks():
    assert GovernanceLevel.L0.mark == "-"
    for level in (GovernanceLevel.L1, GovernanceLevel.L2, GovernanceLevel.L3):
        assert level.mark == "+"


def _grades(d, c, u, p):
    return {
        "decomposability": d,
        "composability": c,
        "understandability": u,
        "protection": p,
    }


def test_score_sum_case_a():
    grades = _grades(Grade.PLUS_PLUS, Grade.PLUS, Grade.PLUS_PLUS, Grade.PLUS_PLUS)
    assert assessment_score(grades, GovernanceLevel.L1) == 8


def test_score_sum_case_b():
    grades = _grades(Grade.PLUS, Grade.PLUS_PLUS, Grade.PLUS, Grade.PLUS_PLUS)
    assert assessment_score(grades, GovernanceLevel.L3) == 7


def test_score_sum_case_c():
    grades = _grades(Grade.MINUS, Grade.PLUS, Grade.PLUS, Grade.MINUS)
    assert assessment_score(grades, GovernanceLevel.L0) == 2


def test_score_sum_case_d():
    grades = _grades(Grade.PLUS, Grade.PLUS_PLUS, Grade.PLUS, Grade.PLUS)
    assert assessment_score(grades, GovernanceLevel.L2) == 6


def test_score_sum_floor():
    grades = _grades(Grade.MINUS, Grade.MINUS, Grade.MINUS, Grade.MINUS)
    assert assessment_score(grades, GovernanceLevel.L0) == 0


# --- thresholds file ---------------------------------------------------------------


def test_thresholds_file_overrides(tmp_path):
    path = tmp_path / "thresholds.txt"
    path.write_text(
        "# tuning\nflat_global_min_f = 3/5\nclone_min_tokens = 10\nfan_out_bound = 9\n",
        encoding="utf-8",
    )
    thresholds = load_thresholds(path)
    assert thresholds.flat_global_min_f == Fraction(3, 5)
    assert thresholds.clone_min_tokens == 10
    assert thresholds.fan_out_bound == Fraction(9)
    assert thresholds.hierarchical_max_f == Fraction(1, 4)  # untouched default


def test_thresholds_unknown_key_rejected(tmp_path):
    path = tmp_path / "thresholds.txt"
    path.write_text("no_such_knob = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown threshold"):
        load_thresholds(path)


def test_grades_deterministic(tmp_path):
    project, _ = parse_project(_tree_reuse_project(tmp_path))
    first = _analyze(project).assessment
    second = _analyze(project).assessment
    assert first == second
