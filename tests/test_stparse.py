from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from swmat.model import (
    Assignment,
    CallResolution,
    CallStatement,
    CaseStatement,
    IfStatement,
    PouKind,
    SectionKind,
    TokenKind,
    body_facts,
)
from swmat.project import (
    build_symbol_table,
    extract_call_sites,
    extract_global_accesses,
)
from swmat.stparse import (
    MAX_NESTING,
    SourceFile,
    parse_file,
    parse_source,
    tokenize,
)
from st_printer import format_pou, pou_signature

MAIN_INSTANCE_DECLS = """PROGRAM main
VAR
FllRB: Filling_Station_new;
FllSG: Filling_Station_new;
Prate: Preparation_and_Tank_Control;
END_VAR
END_PROGRAM
"""

MODE_DISPATCH_BODY = """CASE _plcMod OF
  PLCMODSETUP:
    setup ();
  PLCMODAUTOMATIC:
    automatic ();
  PLCMODREINIT:
    reinit ();
  PLCMODERROR:
    emergency_stop ();
  PLCMODSTOP:
    automatic ();
END_CASE
"""

GUARDED_MODE_BODY = """IF retval<>RETVAL_BLOCKED THEN
  CASE _plcMod OF
    PLCMODSETUP:
      setup ();
    PLCMODAUTOMATIC:
      automatic ();
    PLCMODSTOP:
      automatic ();
    PLCMODREINIT:
      reinit ();
    PLCMODERROR:
      emergency_stop ();
  END_CASE
ELSE
  abort ();
END_IF
"""


def _call_sites(pou, table):
    return extract_call_sites(pou, table, body_facts(pou.all_statements()).calls)


def _global_accesses(pou, globals_):
    facts = body_facts(pou.all_statements())
    return extract_global_accesses(pou, globals_, facts.reads, facts.writes)


def _single_pou(text: str):
    result = parse_source(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    assert len(result.pous) == 1
    return result.pous[0]


def test_empty_function_block():
    pou = _single_pou("FUNCTION_BLOCK X END_FUNCTION_BLOCK")
    assert pou.kind is PouKind.FUNCTION_BLOCK
    assert pou.var_sections == ()
    assert pou.statements == ()
    assert body_facts(pou.statements).calls == []


def test_instance_declaration_block():
    pou = _single_pou(MAIN_INSTANCE_DECLS)
    decls = [d for s in pou.var_sections for d in s.decls]
    assert [(d.name, d.type_name) for d in decls] == [
        ("FllRB", "Filling_Station_new"),
        ("FllSG", "Filling_Station_new"),
        ("Prate", "Preparation_and_Tank_Control"),
    ]


def test_mode_dispatch_call_sites():
    pou = _single_pou("PROGRAM main\n" + MODE_DISPATCH_BODY + "END_PROGRAM")
    calls = [c[0] for c in body_facts(pou.statements).calls]
    assert sorted(calls) == sorted(
        ["setup", "automatic", "automatic", "reinit", "emergency_stop"]
    )
    case = pou.statements[0]
    assert isinstance(case, CaseStatement)
    assert [b.labels for b in case.branches] == [
        ("PLCMODSETUP",),
        ("PLCMODAUTOMATIC",),
        ("PLCMODREINIT",),
        ("PLCMODERROR",),
        ("PLCMODSTOP",),
    ]


def test_guarded_mode_call_sites():
    pou = _single_pou("FUNCTION_BLOCK fb\n" + GUARDED_MODE_BODY + "END_FUNCTION_BLOCK")
    calls = sorted(c[0] for c in body_facts(pou.statements).calls)
    assert calls == ["abort", "automatic", "automatic", "emergency_stop", "reinit", "setup"]
    outer = pou.statements[0]
    assert isinstance(outer, IfStatement)
    assert len(outer.branches) == 1 and outer.else_body


def test_missing_terminal_end_tolerated():
    text = "FUNCTION_BLOCK fb\nVAR\n  a : INT;\n"
    result = parse_source(text)
    assert result.pous and result.pous[0].name == "fb"
    warnings = [d for d in result.diagnostics if d.severity == "warning"]
    assert any("missing END_VAR" in d.message for d in warnings)
    assert any("missing END_FUNCTION_BLOCK" in d.message for d in warnings)


def test_error_recovery_continues_to_next_pou():
    text = (
        "FUNCTION_BLOCK broken\n"
        "x := ;\n"  # bad expression
        "END_FUNCTION_BLOCK\n"
        "FUNCTION_BLOCK fine\nx : = 1;\nEND_FUNCTION_BLOCK\n"
    )
    # the second POU has ': =' split which is also broken; use a clean one
    text = (
        "FUNCTION_BLOCK broken\n"
        "IF a THEN\n"  # unterminated IF
        "END_FUNCTION_BLOCK\n"
        "FUNCTION_BLOCK fine\nok := 1;\nEND_FUNCTION_BLOCK\n"
    )
    result = parse_source(text)
    names = [p.name for p in result.pous]
    assert "fine" in names
    assert any(d.severity == "error" for d in result.diagnostics)
    assert "broken" in result.partial


def test_syntax_error_position_reported():
    result = parse_source("FUNCTION_BLOCK fb\n  1 + 2;\nEND_FUNCTION_BLOCK")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert errors and errors[0].line == 2


def test_comments_and_pragmas_skipped():
    text = (
        "(* header (* nested *) still comment *)\n"
        "PROGRAM p // trailing\n"
        "{attribute}\n"
        "x := 1; (* mid *) y := 2;\n"
        "END_PROGRAM\n"
    )
    pou = _single_pou(text)
    assert len(pou.statements) == 2


def test_var_sections_and_kinds():
    pou = _single_pou(
        "FUNCTION_BLOCK fb\n"
        "VAR_INPUT\n  a : BOOL;\nEND_VAR\n"
        "VAR_OUTPUT\n  b : INT := 2;\nEND_VAR\n"
        "VAR CONSTANT\n  c : INT := 3;\nEND_VAR\n"
        "VAR\n  d, e : REAL;\n  arr : ARRAY [1..3] OF INT;\nEND_VAR\n"
        "END_FUNCTION_BLOCK"
    )
    kinds = [s.kind for s in pou.var_sections]
    assert kinds == [
        SectionKind.VAR_INPUT,
        SectionKind.VAR_OUTPUT,
        SectionKind.VAR,
        SectionKind.VAR,
    ]
    assert pou.var_sections[2].constant
    names = [d.name for d in pou.var_sections[3].decls]
    assert names == ["d", "e", "arr"]
    assert pou.var_sections[3].decls[2].type_name == "ARRAY OF INT"


def test_function_with_return_type():
    pou = _single_pou("FUNCTION add : INT\nVAR_INPUT\n  a : INT;\nEND_VAR\nadd := a;\nEND_FUNCTION")
    assert pou.kind is PouKind.FUNCTION
    assert pou.return_type == "INT"


def test_global_blocks():
    result = parse_source(
        "VAR_GLOBAL CONSTANT\n  LIMIT : INT := 9;\nEND_VAR\n"
        "VAR_GLOBAL\n  gBusy : BOOL;\nEND_VAR\n"
    )
    assert [(g.name, g.constant) for g in result.globals] == [
        ("LIMIT", True),
        ("gBusy", False),
    ]


def test_action_blocks_and_local_action_resolution():
    text = (
        "PROGRAM p\n"
        "run();\n"
        "ACTION run\n  x := 1;\nEND_ACTION\n"
        "END_PROGRAM\n"
    )
    result = parse_source(text)
    pou = result.pous[0]
    table = build_symbol_table(result.pous, result.globals)
    sites = _call_sites(pou, table)
    assert len(sites) == 1
    assert sites[0].resolution is CallResolution.LOCAL_ACTION


def test_calls_inside_expressions_detected():
    pou = _single_pou(
        "PROGRAM p\nx := MAX(a, MIN(b, c)) + f2(d);\nEND_PROGRAM"
    )
    calls = sorted(c[0] for c in body_facts(pou.statements).calls)
    assert calls == ["MAX", "MIN", "f2"]


def test_instance_member_call_resolves_to_fb_type():
    text = (
        "FUNCTION_BLOCK Motor\nEND_FUNCTION_BLOCK\n"
        "PROGRAM p\nVAR\n  m : Motor;\nEND_VAR\nm.start();\nEND_PROGRAM\n"
    )
    result = parse_source(text)
    table = build_symbol_table(result.pous, result.globals)
    main = result.pous[1]
    sites = _call_sites(main, table)
    assert sites[0].resolution is CallResolution.INSTANCE_OF_FB
    assert sites[0].target == "Motor"


def test_unknown_callee_is_external_never_fatal():
    result = parse_source("PROGRAM p\nmystery();\nEND_PROGRAM")
    table = build_symbol_table(result.pous, result.globals)
    sites = _call_sites(result.pous[0], table)
    assert sites[0].resolution is CallResolution.EXTERNAL


def test_global_access_lhs_rule():
    result = parse_source("PROGRAM p\ngBusy := TRUE;\nEND_PROGRAM")
    reads, writes = _global_accesses(result.pous[0], {"gbusy": "gBusy"})
    assert writes == {"gBusy"} and reads == set()


def test_global_access_read_and_write():
    result = parse_source(
        "PROGRAM p\nIF gStart THEN gBusy := gBusy OR x; END_IF\nEND_PROGRAM"
    )
    reads, writes = _global_accesses(
        result.pous[0], {"gstart": "gStart", "gbusy": "gBusy"}
    )
    assert reads == {"gStart", "gBusy"}
    assert writes == {"gBusy"}


def test_global_access_none():
    result = parse_source("PROGRAM p\nx := y;\nEND_PROGRAM")
    reads, writes = _global_accesses(result.pous[0], {"g": "g"})
    assert (reads, writes) == (set(), set())


def test_local_shadowing_hides_global():
    result = parse_source(
        "PROGRAM p\nVAR\n  gBusy : BOOL;\nEND_VAR\ngBusy := TRUE;\nEND_PROGRAM"
    )
    reads, writes = _global_accesses(result.pous[0], {"gbusy": "gBusy"})
    assert writes == set()


def test_output_args_not_counted_as_writes():
    # only assignment targets count; VAR_OUTPUT wiring stays invisible
    result = parse_source("PROGRAM p\nfb1(out => gDone);\nEND_PROGRAM")
    reads, writes = _global_accesses(result.pous[0], {"gdone": "gDone"})
    assert writes == set()
    assert reads == {"gDone"}


def test_for_and_while_statements():
    pou = _single_pou(
        "PROGRAM p\n"
        "FOR i := 1 TO 10 BY 2 DO\n  total := total + i;\nEND_FOR\n"
        "WHILE total > 0 DO\n  total := total - 1;\nEND_WHILE\n"
        "END_PROGRAM"
    )
    assert len(pou.statements) == 2


def test_case_with_literal_and_range_labels():
    pou = _single_pou(
        "PROGRAM p\n"
        "CASE sel OF\n  1, 2: x := 1;\n  3..5: x := 2;\nELSE\n  x := 0;\nEND_CASE\n"
        "END_PROGRAM"
    )
    case = pou.statements[0]
    assert isinstance(case, CaseStatement)
    assert case.branches[0].labels == ("1", "2")
    assert case.branches[1].labels == ("3..5",)
    assert case.else_body


def test_typed_literal_case_label_keeps_its_colon():
    result = parse_source("PROGRAM p\nCASE x OF INT#1: y := 1; END_CASE\nEND_PROGRAM", "t.st")
    assert result.diagnostics == []
    assert result.pous[0].statements[0].branches[0].labels == ("INT#1",)


@pytest.mark.parametrize("literal", ["TOD#12:30:00", "DT#2024-01-01-12:30:00",
                                     "TIME_OF_DAY#12:30:15.5"])
def test_typed_literal_keeps_colons_before_digits(literal):
    assert [(t.kind, t.text) for t in tokenize(literal)[0]] == [(TokenKind.NUMBER, literal)]


@pytest.mark.parametrize(
    "section",
    ["VAR", "VAR_INPUT", "VAR_OUTPUT", "VAR_IN_OUT", "VAR_TEMP", "ACTION"],
)
def test_missing_semicolon_before_section_reported_at_section(section):
    body = "ACTION a\n  y := 1;\nEND_ACTION" if section == "ACTION" else (
        f"{section}\n  y : INT;\nEND_VAR"
    )
    result = parse_source(f"FUNCTION_BLOCK fb\nx := 1\n{body}\nEND_FUNCTION_BLOCK\n", "fb.st")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert [(d.message, d.path, d.line, d.col) for d in errors[:1]] == [
        (f"expected ';', got {section}", "fb.st", 3, 1)
    ]


_BLOCKS = {
    "IF": ("IF x THEN", "END_IF;"),
    "CASE": ("CASE x OF 1:", "END_CASE;"),
    "FOR": ("FOR i := 1 TO 2 DO", "END_FOR;"),
    "WHILE": ("WHILE x DO", "END_WHILE;"),
}


def _nested(kind: str, depth: int) -> str:
    head, tail = _BLOCKS[kind]
    return (
        "PROGRAM p\nVAR\n  x : BOOL;\n  i : INT;\nEND_VAR\n"
        + f"{head}\n" * depth + "x := TRUE;\n" + f"{tail}\n" * depth
        + "END_PROGRAM\nPROGRAM q\nx := FALSE;\nEND_PROGRAM\n"
    )


@pytest.mark.parametrize("kind", sorted(_BLOCKS))
def test_nesting_up_to_limit_parses(kind):
    for depth in (150, MAX_NESTING):
        result = parse_source(_nested(kind, depth))
        assert result.ok and not result.partial, [d.render() for d in result.diagnostics]
        pou = result.pous[0]
        assert pou_signature(parse_source(format_pou(pou)).pous[0]) == pou_signature(pou)


@pytest.mark.parametrize("kind", sorted(_BLOCKS))
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
def test_nesting_past_limit_is_one_positioned_error(kind, depth):
    result = parse_source(_nested(kind, depth), "deep.st")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    line = 6 + MAX_NESTING  # the block opened past the limit
    assert [(d.message, d.path, d.line, d.col) for d in errors] == [
        (f"{kind} nested more than {MAX_NESTING} blocks deep", "deep.st", line, 1)
    ]
    assert result.partial == ["p"]
    assert [p.name for p in result.pous] == ["p", "q"]


def test_deeply_nested_array_type():
    decl = "ARRAY [1..2] OF " * 5000 + "INT"
    result = parse_source(f"PROGRAM p\nVAR\n  x : {decl};\nEND_VAR\nEND_PROGRAM\n")
    assert result.ok
    assert result.pous[0].var_sections[0].decls[0].type_name == "ARRAY OF " * 5000 + "INT"


def test_positions_are_one_based():
    tokens, _ = tokenize("x := 1;")
    assert tokens[0].line == 1 and tokens[0].col == 1


def test_round_trip_fixture_pous(plant_project):
    for pou in plant_project.pous:
        if pou.stub:
            continue
        text = format_pou(pou)
        reparsed = parse_source(text)
        assert reparsed.ok, [d.render() for d in reparsed.diagnostics]
        assert len(reparsed.pous) == 1
        assert pou_signature(reparsed.pous[0]) == pou_signature(pou)


def test_parse_determinism():
    text = MAIN_INSTANCE_DECLS + "\nFUNCTION_BLOCK other\nybig := 1;\nEND_FUNCTION_BLOCK\n"
    first = parse_source(text)
    second = parse_source(text)
    assert first.pous == second.pous  # identical model, positions included
    assert first.globals == second.globals


_ident = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s.upper() not in __import__("swmat.stparse", fromlist=["KEYWORDS"]).KEYWORDS
)


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(_ident, min_size=1, max_size=5, unique_by=lambda s: s.lower()),
    values=st.lists(st.integers(0, 999), min_size=1, max_size=5),
)
def test_round_trip_generated_assignments(names, values):
    body = "\n".join(
        f"{name} := {value};" for name, value in zip(names, values)
    )
    pou = parse_source(f"PROGRAM p\n{body}\nEND_PROGRAM").pous[0]
    reparsed = parse_source(format_pou(pou)).pous[0]
    assert pou_signature(reparsed) == pou_signature(pou)


@st.composite
def _statement_text(draw, depth=0):
    kind = draw(st.sampled_from(
        ["assign", "call"] if depth >= 2 else ["assign", "call", "if", "case", "for", "while"]
    ))
    name = draw(_ident)
    if kind == "assign":
        return f"{name} := {draw(st.integers(0, 99))} + {draw(_ident)};"
    if kind == "call":
        return f"{name}({draw(_ident)} := 1);"
    inner = " ".join(draw(st.lists(_statement_text(depth + 1), min_size=1, max_size=2)))
    if kind == "if":
        return f"IF {name} > 0 THEN {inner} ELSE {name} := 0; END_IF"
    if kind == "case":
        return f"CASE {name} OF 1: {inner} 2, 3: {name} := 1; END_CASE"
    if kind == "for":
        return f"FOR {name} := 1 TO 5 DO {inner} END_FOR"
    return f"WHILE {name} < 9 DO {inner} END_WHILE"


@settings(max_examples=80, deadline=None)
@given(statements=st.lists(_statement_text(), min_size=1, max_size=4))
def test_round_trip_generated_control_flow(statements):
    source = "PROGRAM p\n" + "\n".join(statements) + "\nEND_PROGRAM"
    result = parse_source(source)
    assert result.ok, [d.render() for d in result.diagnostics]
    pou = result.pous[0]
    reparsed = parse_source(format_pou(pou))
    assert reparsed.ok, [d.render() for d in reparsed.diagnostics]
    assert pou_signature(reparsed.pous[0]) == pou_signature(pou)


def test_call_site_positions_inside_caller_span(plant_project):
    for pou in plant_project.pous:
        for site in pou.call_sites:
            assert pou.span.contains(site.line)


_chunks = st.lists(
    st.sampled_from(
        [
            "FUNCTION_BLOCK", "END_FUNCTION_BLOCK", "PROGRAM", "END_PROGRAM",
            "VAR", "END_VAR", "IF", "THEN", "END_IF", "CASE", "OF", "END_CASE",
            "name", "x", ":=", ";", ":", "(", ")", "1", "2.5", "(*", "*)", ",",
            "'txt'", "FOR", "DO", "END_FOR", "..",
        ]
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(chunks=_chunks)
def test_parser_never_hangs_on_garbage(chunks):
    # recovery must always make progress, whatever the token soup
    parse_source(" ".join(chunks))
