from __future__ import annotations

import math
import random

import pytest

from oracles import brute_force_call_edges, brute_force_global_edges
from swmat import graphs
from swmat.cli import run
from swmat.graphs import (
    DotOptions,
    build_call_graph,
    build_global_comm_graph,
    complexity,
    emit_dot,
    node_width,
)
from swmat.project import parse_project
from swmat.stparse import parse_source
from synth import chain_project, random_project, star_project, write_project


def _pou(text: str):
    result = parse_source(text)
    assert result.ok
    return result.pous[0]


def test_complexity_empty_body():
    assert complexity(_pou("FUNCTION_BLOCK x\nEND_FUNCTION_BLOCK")) == 0


def test_complexity_b7_is_ten():
    body = (
        "CASE m OF\n"
        "  A1: setup();\n  A2: automatic();\n  A3: reinit();\n"
        "  A4: emergency_stop();\n  A5: automatic();\n"
        "END_CASE\n"
    )
    assert complexity(_pou(f"PROGRAM p\n{body}END_PROGRAM")) == 10


def test_complexity_if_elsif():
    pou = _pou("PROGRAM p\nIF a THEN x:=1; ELSIF b THEN x:=2; END_IF\nEND_PROGRAM")
    assert complexity(pou) == 4


def test_complexity_loops_count_as_decisions():
    pou = _pou(
        "PROGRAM p\nFOR i := 1 TO 3 DO\n  x := x + i;\nEND_FOR\n"
        "WHILE x > 0 DO\n  x := x - 1;\nEND_WHILE\nEND_PROGRAM"
    )
    # two loop headers + two assignments + the FOR counter assignment is the header's
    assert complexity(pou) == 4


def test_single_pou_graph(tmp_path):
    write_project(tmp_path, {"one.st": "PROGRAM only\nx := 1;\nEND_PROGRAM\n"})
    project, _ = parse_project(tmp_path)
    graph = build_call_graph(project)
    assert len(graph.nodes) == 1
    assert graph.edges == ()
    assert graph.entries == ("only",)


def test_instance_calls_collapse_to_type(plant_project):
    graph = build_call_graph(plant_project)
    edges = {(e.caller, e.callee): e.multiplicity for e in graph.edges}
    assert edges[("main", "Filling_Station_new")] == 2
    assert edges[("main", "Preparation_and_Tank_Control")] == 1
    assert graph.entries == ("main",)


def test_chain_graph(tmp_path):
    parse = parse_project(chain_project(tmp_path, length=3))
    project = parse[0]
    graph = build_call_graph(project)
    assert len(graph.nodes) == 4
    assert len(graph.edges) == 3
    assert graph.entries == ("entry",)


def test_per_instance_expansion(plant_project):
    graph = build_call_graph(plant_project, per_instance=True)
    names = {n.name for n in graph.nodes}
    assert {"main.FllRB", "main.FllSG", "main.Prate"} <= names
    edges = {(e.caller, e.callee): e.multiplicity for e in graph.edges}
    assert edges[("main", "main.FllRB")] == 1
    assert edges[("main", "main.FllSG")] == 1
    # the instance node continues into the type's callees
    assert ("main.FllRB", "Valve") in edges


def test_entries_fall_back_to_zero_in_degree(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": "PROGRAM a\nVAR\n  i : B;\nEND_VAR\ni();\nEND_PROGRAM\n"
            "FUNCTION_BLOCK B\nEND_FUNCTION_BLOCK\n"
        },
    )
    project, _ = parse_project(tmp_path)
    graph = build_call_graph(project)
    assert graph.entries == ("a",)


def test_external_calls_become_stub_nodes(tmp_path):
    write_project(
        tmp_path,
        {"a.st": "PROGRAM a\nlib_fn(x);\nEND_PROGRAM\n"},
        tasks="task t cycle 10 entry a\n",
    )
    project, _ = parse_project(tmp_path)
    graph = build_call_graph(project)
    stubs = [n for n in graph.nodes if n.external]
    assert [n.name for n in stubs] == ["lib_fn"]


def test_global_graph_no_globals(plant_project):
    graph = build_global_comm_graph(plant_project)
    assert list(graph.edges) == []


def test_global_graph_writer_to_readers(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": "PROGRAM A\ng := 1;\nEND_PROGRAM\n",
            "b.st": "PROGRAM B\nx := g;\nEND_PROGRAM\n",
            "c.st": "PROGRAM C\ny := g;\nEND_PROGRAM\n",
            "g.st": "VAR_GLOBAL\n  g : INT;\nEND_VAR\n",
        },
    )
    project, _ = parse_project(tmp_path)
    graph = build_global_comm_graph(project)
    assert {(e.writer, e.reader, e.via) for e in graph.edges} == {
        ("A", "B", "g"),
        ("A", "C", "g"),
    }


def test_global_graph_excludes_self_edges(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": "PROGRAM A\ng := g + 1;\nEND_PROGRAM\n",
            "g.st": "VAR_GLOBAL\n  g : INT;\nEND_VAR\n",
        },
    )
    project, _ = parse_project(tmp_path)
    graph = build_global_comm_graph(project)
    assert list(graph.edges) == []
    assert len(graph.edges) == graph.edge_count == 0


def test_multiplicity_sum_matches_resolved_sites(plant_project):
    graph = build_call_graph(plant_project)
    project_nodes = {n.name for n in graph.nodes if not n.external}
    edge_sum = sum(e.multiplicity for e in graph.edges if e.callee in project_nodes)
    site_sum = sum(
        1
        for pou in plant_project.pous
        for site in pou.call_sites
        if site.resolution.value in ("direct_pou", "instance_of_fb")
    )
    assert edge_sum == site_sum


@pytest.mark.parametrize("seed", range(8))
def test_every_edge_endpoint_is_a_node(tmp_path, seed):
    project, _ = parse_project(random_project(tmp_path / str(seed), seed))
    for per_instance in (False, True):
        graph = build_call_graph(project, per_instance=per_instance)
        names = {n.name for n in graph.nodes}
        for edge in graph.edges:
            assert edge.caller in names and edge.callee in names
            assert edge.multiplicity >= 1


@pytest.mark.parametrize("seed", range(8))
def test_graphs_agree_with_brute_force_oracle(tmp_path, seed):
    project, diags = parse_project(random_project(tmp_path / str(seed), seed))
    assert not [d for d in diags if d.severity == "error"]
    graph = build_call_graph(project)
    assert {(e.caller, e.callee): e.multiplicity for e in graph.edges} == (
        brute_force_call_edges(project)
    )
    global_graph = build_global_comm_graph(project)
    assert {(e.writer, e.reader, e.via) for e in global_graph.edges} == (
        brute_force_global_edges(project)
    )


@pytest.mark.parametrize("seed", range(8))
def test_global_edge_view_counts_and_lists_the_oracle_triples(tmp_path, seed):
    project, _ = parse_project(random_project(tmp_path / str(seed), seed, max_pous=10))
    graph = build_global_comm_graph(project)
    edges = list(graph.edges)
    assert graph.edge_count == len(graph.edges) == len(edges)
    assert {(e.writer, e.reader, e.via) for e in edges} == brute_force_global_edges(project)


def _wide_project(directory, seed=3, pous=40, globals_=12):
    """FBs that each write 4 and read 5 random globals, names in mixed case;
    returns the project and the planted (writes, reads) sets per POU."""
    rng = random.Random(seed)
    names = [f"{'fB' if i % 3 else 'Fb'}{i:02d}" for i in range(pous)]
    global_names = [f"{'G' if k % 2 else 'g'}{k}" for k in range(globals_)]
    writes = {n: set(rng.sample(global_names, 4)) for n in names}
    reads = {n: set(rng.sample(global_names, 5)) for n in names}
    files = {
        "globals.st": "VAR_GLOBAL\n"
        + "".join(f"  {g} : INT;\n" for g in global_names)
        + "END_VAR\n"
    }
    for name in names:
        body = [f"{g} := 1;" for g in sorted(writes[name])]
        body += [f"x := {g};" for g in sorted(reads[name])]
        files[f"{name.lower()}.st"] = (
            f"FUNCTION_BLOCK {name}\nVAR\n  x : INT;\nEND_VAR\n"
            + "\n".join(body)
            + "\nEND_FUNCTION_BLOCK\n"
        )
    project, _ = parse_project(write_project(directory, files))
    return project, global_names, writes, reads


def test_global_edge_count_is_the_incidence_sum_on_a_wide_project(tmp_path):
    project, global_names, writes, reads = _wide_project(tmp_path)
    expected = 0
    for g in global_names:
        writers = {n for n, gs in writes.items() if g in gs}
        readers = {n for n, gs in reads.items() if g in gs}
        expected += len(writers) * len(readers) - len(writers & readers)
    graph = build_global_comm_graph(project)
    assert graph.edge_count == len(graph.edges) == expected
    assert len(brute_force_global_edges(project)) == expected


def test_global_dot_edges_in_writer_reader_global_order(tmp_path):
    project, *_ = _wide_project(tmp_path)
    graph = build_global_comm_graph(project)
    dot_edges = [l for l in emit_dot(graph).splitlines() if " -> " in l]
    assert dot_edges == [
        f'  "{e.writer}" -> "{e.reader}" [label="{e.via}"];'
        for e in sorted(
            graph.edges, key=lambda e: (e.writer.lower(), e.reader.lower(), e.via.lower())
        )
    ]


def test_analyze_builds_no_global_edge(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a GlobalEdge was built")

    monkeypatch.setattr(graphs, "GlobalEdge", refuse)
    project = star_project(tmp_path / "star")
    out = tmp_path / "out"
    out.mkdir()
    code = run(["analyze", str(project), "--globals-dot", str(out / "g.dot"),
                "--assessment", str(out / "a.json")])
    assert code == 0
    assert (out / "g.dot").read_text(encoding="utf-8").count(" -> ") == 12


def test_call_graph_reads_stored_complexity(tmp_path):
    write_project(
        tmp_path,
        {"a.st": "PROGRAM a\nIF x THEN\n  Drive_lib();\nEND_IF\nEND_PROGRAM\n"},
        tasks="task t cycle 10 entry a\n",
    )
    (tmp_path / "externals.txt").write_text("Drive_lib vendor\n", encoding="utf-8")
    project, _ = parse_project(tmp_path)
    nodes = build_call_graph(project).node_map()
    assert {p.name: nodes[p.name].complexity for p in project.pous} == {
        p.name: complexity(p) for p in project.pous
    } == {"a": 2, "Drive_lib": 0}


# --- DOT emission ---------------------------------------------------------------


def test_dot_single_node(tmp_path):
    write_project(tmp_path, {"one.st": "PROGRAM only\nEND_PROGRAM\n"})
    project, _ = parse_project(tmp_path)
    dot = emit_dot(build_call_graph(project))
    node_lines = [l for l in dot.splitlines() if "label=" in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 1
    assert edge_lines == []


def test_dot_chain_edges_lexicographic(tmp_path):
    project, _ = parse_project(chain_project(tmp_path, length=3))
    dot = emit_dot(build_call_graph(project))
    edge_lines = [l.strip() for l in dot.splitlines() if "->" in l]
    assert len(edge_lines) == 3
    callers = [l.split('"')[1] for l in edge_lines]
    assert callers == sorted(callers, key=str.lower)


def test_dot_width_scaling_ratio():
    min_width = 0.3
    w0 = node_width(0, min_width)
    w100 = node_width(100, min_width)
    assert w0 == pytest.approx(min_width)
    assert w100 / w0 == pytest.approx(10.0)
    assert node_width(25, min_width) == pytest.approx(min_width * math.sqrt(25))


def test_dot_deterministic(plant_project):
    options = DotOptions(size_by_complexity=True, color_by_kind=True)
    graph = build_call_graph(plant_project)
    assert emit_dot(graph, options) == emit_dot(graph, options)


def test_dot_groups_become_clusters(tmp_path):
    write_project(
        tmp_path,
        {"a.st": "PROGRAM a\nDrive_lib();\nEND_PROGRAM\n"},
        tasks="task t cycle 10 entry a\n",
    )
    (tmp_path / "externals.txt").write_text("Drive_lib vendor\n", encoding="utf-8")
    project, _ = parse_project(tmp_path)
    dot = emit_dot(build_call_graph(project))
    assert 'subgraph "cluster_vendor"' in dot


def test_dot_global_graph_labels(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": "PROGRAM A\ng := 1;\nEND_PROGRAM\n",
            "b.st": "PROGRAM B\nx := g;\nEND_PROGRAM\n",
            "g.st": "VAR_GLOBAL\n  g : INT;\nEND_VAR\n",
        },
    )
    project, _ = parse_project(tmp_path)
    dot = emit_dot(build_global_comm_graph(project))
    assert '"A" -> "B" [label="g"];' in dot
