"""The facts ``stparse`` records while it parses, against the reference walk.

``tree_parser.parse_source`` parses with the reference tree parser and
asserts that ``swmat.stparse`` agrees: diagnostics, partial POUs, POU
headers and declarations, and facts equal to ``tree_parser.body_facts`` of
the trees.  The cases below are the places where recording in source
order differs from walking a finished tree: an ELSE with nothing after it,
typed CASE labels, calls inside an assignment target, actions around body
statements, and statements that fail and must leave no fact behind.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from swmat import stparse
from swmat.stparse import SourceFile
from synth import random_project
from test_golden import MIXED_ST
from test_parser_lanes import _BRACKETS_ST
from tree_parser import parse_file, parse_source

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from gen import st_project  # noqa: E402

_PLANT = Path(__file__).parent / "fixtures" / "filling_plant"

CASES = {
    "empty else": (
        "PROGRAM p\nIF a THEN x := 1; ELSE END_IF\n"
        "IF b THEN ELSIF c THEN ELSE ;; END_IF;\n"
        "CASE a OF 1: x := 2; ELSE END_CASE\n"
        "CASE a OF 1: ELSE ; END_CASE\nEND_PROGRAM\n"
    ),
    # ``INT#6..7`` is three tokens, a range as ``4..5`` is: a typed
    # literal's tail stops before '..'
    "typed labels": (
        "PROGRAM p\nCASE a OF INT#1: x := 1;\nINT#2, 4..5: x := 2;\n"
        "INT#6..7, 16#FF: x := 3;\nk, 8..9: ;\nEND_CASE\nEND_PROGRAM\n"
    ),
    "typed range": "PROGRAM p\nCASE a OF INT#2..INT#3: x := 1;\nEND_CASE\nEND_PROGRAM\n",
    "calls in a target": (
        "PROGRAM p\na[f(x)] := 1;\nb[i].m[g(j).n].k := h(k);\nc.d[1] := e;\nEND_PROGRAM\n"
    ),
    "actions around the body": (
        "FUNCTION_BLOCK fb\nACTION First: f1(); x := 1; END_ACTION\ny := g(2);\n"
        "ACTION Second: h(); END_ACTION\nz := y;\nFirst();\nEND_FUNCTION_BLOCK\n"
    ),
    "failure in an action": (
        "FUNCTION_BLOCK fb\nx := 1;\nACTION Broken: f1(); y := ; END_ACTION\n"
        "ACTION Fine: h(w); END_ACTION\nz := q;\nEND_FUNCTION_BLOCK\n"
    ),
    "failure three blocks deep": (
        "PROGRAM p\nx := a;\nIF a THEN\n  WHILE b DO\n    FOR i := 1 TO f(2) DO\n"
        "      g(); y := ;\n    END_FOR\n  END_WHILE\nEND_IF\nz := c;\nEND_PROGRAM\n"
    ),
}


def _facts(text: str):
    """The runtime's POU, facts and result, once the reference agrees."""
    parse_source(text, "t.st")
    result = stparse.parse_source(text, "t.st")
    (pou,) = result.pous
    (facts,) = result.facts
    return pou, facts, result


def test_empty_else_is_not_recorded():
    pou, _, result = _facts(CASES["empty else"])
    assert result.ok
    assert "ELSE" not in pou.fingerprint.split()
    assert pou.fingerprint.count("END_IF ;") == 2
    assert pou.fingerprint.count("END_CASE ;") == 2


def test_typed_labels_are_identifiers():
    pou, _, result = _facts(CASES["typed labels"])
    assert result.ok
    assert pou.fingerprint == (
        "CASE i OF i : i := n ; i , n .. n : i := n ; i .. n , n : i := n ; "
        "i , n .. n : END_CASE ;"
    )
    assert pou.complexity == 10  # seven labels, three assignments


def test_typed_range_is_a_label_of_two_literals():
    pou, _, result = _facts(CASES["typed range"])
    assert result.ok
    assert pou.fingerprint == "CASE i OF i .. i : i := n ; END_CASE ;"
    assert pou.complexity == 2  # one label, one assignment


def test_calls_in_a_target_come_first():
    _, facts, result = _facts(CASES["calls in a target"])
    assert result.ok
    assert [call[0] for call in facts.calls] == ["f", "g", "h"]
    assert facts.writes.keys() == {"a", "b", "c"}
    # a member after an index or a call is no read; k is read through h(k)
    assert facts.reads.keys() == {"x", "i", "j", "k", "e"}


def test_action_facts_follow_the_body():
    pou, facts, result = _facts(CASES["actions around the body"])
    assert result.ok
    assert [call[0] for call in facts.calls] == ["g", "First", "f1", "h"]
    assert pou.fingerprint == "i := i ( n ) ; i := i ; i ( ) ; i ( ) ; i := n ; i ( ) ;"


def test_failed_action_leaves_no_fact():
    pou, facts, result = _facts(CASES["failure in an action"])
    assert result.partial == ["fb"]
    assert [action.name for action in pou.actions] == ["Fine"]
    assert [call[0] for call in facts.calls] == ["h"]
    assert facts.writes.keys() == {"x", "z"}
    assert facts.reads.keys() == {"q", "w"}
    assert pou.complexity == 3


def test_failed_nested_statement_leaves_no_fact():
    pou, facts, result = _facts(CASES["failure three blocks deep"])
    assert result.partial == ["p"]
    assert facts.calls == []
    assert facts.writes.keys() == {"x", "z"}
    assert facts.reads.keys() == {"a", "c"}
    assert pou.complexity == 2
    assert pou.fingerprint == "i := i ; i := i ;"


def _corpus() -> list[str]:
    texts = [p.read_text(encoding="utf-8") for p in sorted(_PLANT.glob("*.st"))]
    return texts + [MIXED_ST, _BRACKETS_ST, *CASES.values()]


def test_corpus_matches_reference(tmp_path):
    for text in _corpus():
        parse_source(text, "t.st")
    for seed in range(20):
        for path in sorted(random_project(tmp_path / str(seed), seed).glob("*.st")):
            parse_file(SourceFile(str(path), path.read_text(encoding="utf-8")))


def test_benchmark_project_matches_reference(tmp_path):
    directory = tmp_path / "bench"
    st_project(directory, 1, 300, clone_pairs=4, hot_globals=30, hot_per_fb=9)
    paths = sorted(directory.glob("*.st"))
    assert len(paths) > 300
    for path in paths:
        parse_file(SourceFile(str(path), path.read_text(encoding="utf-8")))


_LINES = [text.splitlines() for text in _corpus()]


@st.composite
def _spliced_source(draw) -> str:
    """Runs of lines from the corpus, cut anywhere and joined: blocks and
    POUs left open, closed twice or interleaved."""
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 4))):
        source = draw(st.sampled_from(_LINES))
        start = draw(st.integers(0, len(source)))
        lines += source[start : draw(st.integers(start, len(source)))]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_spliced_source())
def test_spliced_sources_match_reference(text):
    parse_source(text, "t.st")


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_case_matches_reference(name):
    parse_source(CASES[name], "t.st")
