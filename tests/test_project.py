from __future__ import annotations

import shutil

import pytest

from swmat import stparse
from swmat.cli import run
from swmat.graphs import build_call_graph, build_global_comm_graph, complexity
from swmat.model import (
    CallResolution,
    CallSite,
    Pou,
    PouKind,
    Project,
    validate_project,
)
from swmat.modularity import assess_project, detect_clones
from swmat.project import (
    ProjectError,
    extract_global_accesses,
    parse_project,
)
from swmat.stparse import tokenize
from oracles import with_trees
from tree_parser import Assignment, IfBranch, IfStatement, TokenSeq, body_facts
from synth import write_project


def test_plant_project_shape(plant_project):
    assert len(plant_project.pous) >= 4
    assert len(plant_project.tasks) == 1
    assert plant_project.tasks[0].entry == "main"
    main = plant_project.pou("main")
    assert main is not None and main.kind is PouKind.PROGRAM


def test_empty_directory_errors(tmp_path):
    with pytest.raises(ProjectError, match="no source files"):
        parse_project(tmp_path)


def test_duplicate_pou_across_files_names_both_paths(tmp_path):
    write_project(
        tmp_path,
        {
            "a.st": "FUNCTION_BLOCK Valve\nEND_FUNCTION_BLOCK\n",
            "b.st": "\nFUNCTION_BLOCK VALVE\nEND_FUNCTION_BLOCK\n"
                    "FUNCTION_BLOCK Pump\nEND_FUNCTION_BLOCK\n",
        },
    )
    project, diags = parse_project(tmp_path)
    errors = [d.render() for d in diags if d.severity == "error"]
    a, b = tmp_path / "a.st", tmp_path / "b.st"
    assert errors == [f"{b}:2: error: duplicate POU 'VALVE' (first in {a}:1)"]
    # the second declaration is left out; the rest of its file is kept
    assert [p.name for p in project.pous] == ["Valve", "Pump"]


def test_duplicate_pou_in_one_file_is_reported_with_the_other_errors(tmp_path, capsys):
    write_project(
        tmp_path,
        {
            "a.st": "FUNCTION_BLOCK Valve\nEND_FUNCTION_BLOCK\n"
                    "FUNCTION_BLOCK VALVE\nEND_FUNCTION_BLOCK\n",
            "b.st": "PROGRAM p\nx := ;\nEND_PROGRAM\n",
        },
    )
    assert run(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    a, b = tmp_path / "a.st", tmp_path / "b.st"
    assert f"{a}:3: error: duplicate POU 'VALVE' (first in {a}:1)\n" in err
    assert f"{b}:2:" in err
    assert "Traceback" not in err


def test_missing_task_file_warns(tmp_path):
    write_project(tmp_path, {"a.st": "PROGRAM p\nEND_PROGRAM\n"})
    project, diags = parse_project(tmp_path)
    assert project.tasks == ()
    assert any("zero tasks" in d.message for d in diags if d.severity == "warning")


def test_externals_become_stub_pous(tmp_path):
    write_project(
        tmp_path,
        {"a.st": "PROGRAM p\nDrive_lib();\nEND_PROGRAM\n"},
        tasks="task t cycle 10 entry p\n",
    )
    (tmp_path / "externals.txt").write_text("Drive_lib vendor\n", encoding="utf-8")
    project, diags = parse_project(tmp_path)
    stub = project.pou("Drive_lib")
    assert stub is not None and stub.stub and stub.group == "vendor"
    main = project.pou("p")
    assert main.call_sites[0].resolution.value == "direct_pou"


def test_repeated_external_stub_warns_at_its_line(tmp_path):
    write_project(tmp_path, {"a.st": "PROGRAM p\nDrive_lib();\nEND_PROGRAM\n"})
    (tmp_path / "externals.txt").write_text(
        "Drive lib\n# vendor code\ndrive lib\nP\n", encoding="utf-8"
    )
    project, diags = parse_project(tmp_path)
    externals = str(tmp_path / "externals.txt")
    assert [d.render() for d in diags if d.path == externals] == [
        f"{externals}:3: warning: external stub 'drive' repeats the stub on line 1; ignored",
        f"{externals}:4: warning: external stub 'P' shadows the POU parsed from "
        f"{tmp_path / 'a.st'}; ignored",
    ]
    assert [(p.name, p.stub) for p in project.pous] == [("p", False), ("Drive", True)]


def test_duplicate_global_is_a_warning(tmp_path):
    # unlike a POU's variables, a global declared twice is kept once and warned about
    write_project(
        tmp_path,
        {"g.st": "VAR_GLOBAL\n  g : INT;\n  G : BOOL;\nEND_VAR\n"
                 "PROGRAM p\nVAR\n  x : INT;\nEND_VAR\nEND_PROGRAM\n"},
        tasks="task t cycle 10 entry p\n",
    )
    project, diags = parse_project(tmp_path)
    path = tmp_path / "g.st"
    assert [d.render() for d in diags] == [
        f"{path}:3: warning: global 'G' declared more than once (first in {path}:2); "
        "type BOOL, first INT"
    ]
    assert [(g.name, g.type_name) for g in project.globals] == [("g", "INT")]


def test_duplicate_global_across_files_names_both_lines(tmp_path, capsys):
    write_project(
        tmp_path,
        {"a.st": "VAR_GLOBAL\n  gA : INT;\nEND_VAR\n",
         "b.st": "PROGRAM p\nEND_PROGRAM\nVAR_GLOBAL\n  GA : INT;\nEND_VAR\n"},
        tasks="task t cycle 10 entry p\n",
    )
    assert run(["analyze", str(tmp_path)]) == 0
    assert capsys.readouterr().err == (
        f"{tmp_path / 'b.st'}:4: warning: global 'GA' declared more than once "
        f"(first in {tmp_path / 'a.st'}:2)\n"
    )


# two renamed copies with an action each, an empty function block, and
# copies of exactly 20 and 19 codes, either side of the default minimum
_CLONES_ST = """\
FUNCTION_BLOCK Copy_A
VAR
  n : INT;
END_VAR
FOR n := 1 TO 10 BY 2 DO
  IF n > 3 THEN
    Drive_lib(x := n);
  ELSE
    n := n + 1;
  END_IF;
END_FOR;
ACTION Reset
  n := 0;
END_ACTION
END_FUNCTION_BLOCK
FUNCTION_BLOCK Copy_B
VAR
  m : INT;
END_VAR
FOR m := 4 TO 8 BY 1 DO
  IF m > 7 THEN
    Drive_lib(y := m);
  ELSE
    m := m + 5;
  END_IF;
END_FOR;
ACTION Clear
  m := 9;
END_ACTION
END_FUNCTION_BLOCK
FUNCTION_BLOCK Empty
END_FUNCTION_BLOCK
FUNCTION_BLOCK Twenty_A
a := b; a := b; a := b; a := b; a := b;
END_FUNCTION_BLOCK
FUNCTION_BLOCK Twenty_B
c := d; c := d; c := d; c := d; c := d;
END_FUNCTION_BLOCK
FUNCTION_BLOCK Nineteen_A
a := b; a := b; a := -b; a := b + c;
END_FUNCTION_BLOCK
FUNCTION_BLOCK Nineteen_B
c := d; c := d; c := -d; c := d + e;
END_FUNCTION_BLOCK
"""


def test_parse_project_walks_each_body_once(plant_dir, tmp_path, monkeypatch):
    project_dir = tmp_path / "plant"
    shutil.copytree(plant_dir, project_dir)
    (project_dir / "externals.txt").write_text("Drive_lib vendor\n", encoding="utf-8")
    (project_dir / "clones.st").write_text(_CLONES_ST, encoding="utf-8")
    parsed = []
    original = stparse.Parser.parse_pou

    def counting_parse_pou(parser):
        pou = original(parser)
        parsed.append(pou.name)
        return pou

    monkeypatch.setattr(stparse.Parser, "parse_pou", counting_parse_pou)
    project, _ = parse_project(project_dir)
    assess_project(project, build_call_graph(project), build_global_comm_graph(project))
    assert any(pou.stub for pou in project.pous)
    assert sorted(parsed) == sorted(pou.name for pou in project.pous if not pou.stub)

    # the POUs keep the facts of their trees and their action names
    for pou, tree in zip(project.pous, with_trees(project).pous):
        facts = body_facts(tree.all_statements())
        assert (pou.complexity, pou.fingerprint) == (facts.complexity, facts.fingerprint)
        assert [a.name for a in pou.actions] == [a.name for a in tree.actions]
    assert [a.name for a in project.pou("Copy_A").actions] == ["Reset"]
    assert project.pou("Copy_A").call_sites[0].callee_text == "Drive_lib"

    # the groups of equal code streams; at 0 the empty body and the stub group too
    copies, twenty = ("Copy_A", "Copy_B"), ("Twenty_A", "Twenty_B")
    short = (
        ("Mode_Abort", "Mode_Automatic", "Mode_EmergencyStop", "Mode_Reinit", "Mode_Setup"),
        ("Motor_Analogous", "Valve_Analogous"),
        ("Nineteen_A", "Nineteen_B"),
        ("Tank_Analogous", "Tank_Heat", "Tank_P"),
    )
    assert detect_clones(project, 0).groups == (copies, ("Drive_lib", "Empty"), *short, twenty)
    assert detect_clones(project, 1).groups == (copies, *short, twenty)
    assert detect_clones(project, 20).groups == (copies, twenty)


@pytest.mark.parametrize("bad", ["b.st", "tasks.txt", "externals.txt"])
def test_undecodable_file_becomes_a_diagnostic(tmp_path, bad):
    write_project(tmp_path, {"a.st": "PROGRAM a\nx := 1;\nEND_PROGRAM\n"})
    # lines end in \r\n and in a lone \r, as text mode reads them
    (tmp_path / bad).write_bytes(b"(* first *)\r\n(*\r caf\xff *)\r\n")
    project, diagnostics = parse_project(tmp_path)
    assert [p.name for p in project.pous] == ["a"]
    errors = [d for d in diagnostics if d.severity == "error"]
    assert len(errors) == 1
    assert errors[0].path == str(tmp_path / bad)
    assert errors[0].line == 3
    assert "0xff" in errors[0].message


def test_complexity_filled_during_assembly(plant_project):
    main = plant_project.pou("main")
    # five case labels + five mode calls + three instance calls
    assert main.complexity == 13


def test_source_index_covers_every_pou(plant_project):
    for pou in plant_project.pous:
        assert pou.name in plant_project.source_index


def test_global_reads_resolved(plant_project):
    main = plant_project.pou("main")
    assert "_plcMod" in main.global_reads
    assert main.global_writes == frozenset()


def test_empty_global_accesses_share_one_set(plant_project):
    """A POU that reads or writes no global holds no frozenset of its own."""
    empty = [names for pou in plant_project.pous
             for names in (pou.global_reads, pou.global_writes) if not names]
    assert len(empty) > 1
    assert len({id(names) for names in empty}) == 1


def test_task_file_syntax_errors_reported(tmp_path):
    write_project(
        tmp_path,
        {"a.st": "PROGRAM p\nEND_PROGRAM\n"},
        tasks="task broken line\n",
    )
    _, diags = parse_project(tmp_path)
    assert any("task" in d.message for d in diags if d.severity == "error")


def test_concurrent_file_parsing_matches_sequential(plant_dir):
    # parse_file is pure, so a thread pool must agree with the serial pass
    from concurrent.futures import ThreadPoolExecutor

    from swmat.stparse import SourceFile, parse_file

    paths = sorted(p for p in plant_dir.iterdir() if p.suffix == ".st")
    sources = [SourceFile(str(p), p.read_text(encoding="utf-8")) for p in paths]
    serial = [parse_file(s) for s in sources]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(parse_file, sources))
    for a, b in zip(serial, threaded):
        assert a.pous == b.pous
        assert a.globals == b.globals


def test_walkers_handle_deep_nesting():
    """5000 nested IFs: the reference walk and the analyses run iteratively,
    not by recursion."""
    depth = 5000
    store, _ = tokenize("gOut Check(gIn) Ready()")
    stmt = Assignment(TokenSeq(store, 0, 1), TokenSeq(store, 1, 5), 1, 1)
    condition = TokenSeq(store, 5, 8)
    for _ in range(depth):
        stmt = IfStatement((IfBranch(condition, (stmt,)),), (), 1, 1)
    sites = tuple(
        CallSite("p", name, CallResolution.EXTERNAL, None) for name in ("Ready", "Check")
    )
    facts = body_facts((stmt,))
    pou = Pou("p", PouKind.PROGRAM, call_sites=sites, complexity=facts.complexity,
              fingerprint=facts.fingerprint)

    assert complexity(pou) == depth + 1
    assert [c[0] for c in facts.calls] == ["Ready"] * depth + ["Check"]
    codes = facts.fingerprint.split(" ")
    # IF i ( ) THEN per level, the assignment, then END_IF ; per level
    assert len(codes) == 7 * depth + 7
    assert codes[:10] == ["IF", "i", "(", ")", "THEN"] * 2
    assert codes[5 * depth - 5:5 * depth + 11] == [
        "IF", "i", "(", ")", "THEN", "i", ":=", "i", "(", "i", ")", ";", "END_IF", ";",
        "END_IF", ";",
    ]
    assert codes[-4:] == ["END_IF", ";"] * 2
    globals_ = {"gin": "gIn", "gout": "gOut"}
    assert extract_global_accesses(pou, globals_, facts.reads, facts.writes) == ({"gIn"}, {"gOut"})
    assert validate_project(Project("deep", (pou,))) == []


def test_call_sites_keep_source_order_through_elsif_and_case(tmp_path):
    write_project(
        tmp_path,
        {
            "p.st": (
                "PROGRAM p\n"
                "IF a() THEN\n  b();\n"
                "ELSIF c() THEN\n  d(e());\n"
                "ELSE\n  f();\nEND_IF;\n"
                "CASE g() OF\n  1: h();\nELSE\n  i();\nEND_CASE;\n"
                "WHILE j() DO\n  k();\nEND_WHILE;\n"
                "END_PROGRAM\n"
            )
        },
        "task t cycle 10 entry p\n",
    )
    project, _ = parse_project(tmp_path)
    order = [site.callee_text for site in project.pou("p").call_sites]
    assert order == ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"]
