"""Differential tests: the parser's token lanes against per-call token reads.

``_ReferenceParser`` keeps the token helpers ``stparse.Parser`` had before it
read keywords and operators from precomputed lanes: ``peek``, ``at_keyword``,
``at_op``, ``take``, ``capture_expression`` and ``parse_statement``, unchanged.
On every input both parsers must give equal POUs, globals, diagnostics (line
and col included) and partial POUs.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from swmat.model import Token, TokenKind, TokenSeq
from swmat.stparse import Parser, _ParseFailure, parse_source, pou_signature, tokenize
from synth import random_project
from test_golden import MIXED_ST

_PLANT = Path(__file__).parent / "fixtures" / "filling_plant"


class _ReferenceParser(Parser):
    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind is TokenKind.KEYWORD and tok.text.upper() in words

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind is TokenKind.OP and tok.text == text

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise _ParseFailure("unexpected end of file", None)
        self.pos += 1
        return tok

    def capture_expression(self, stop_keywords: set[str] | None = None) -> TokenSeq:
        stops = stop_keywords or self._EXPR_STOP_KEYWORDS
        out: list[Token] = []
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok.kind is TokenKind.OP:
                if tok.text in "([":
                    depth += 1
                elif tok.text in ")]":
                    if depth == 0:
                        break
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    break
            if tok.kind is TokenKind.KEYWORD and depth == 0 and tok.text.upper() in stops:
                break
            out.append(self.take())
        return tuple(out)

    def parse_statement(self):
        tok = self.peek()
        if tok is None:
            raise _ParseFailure("expected a statement", None)
        if self.at_keyword("IF"):
            return self.parse_if()
        if self.at_keyword("CASE"):
            return self.parse_case()
        if self.at_keyword("FOR"):
            return self.parse_for()
        if self.at_keyword("WHILE"):
            return self.parse_while()
        if tok.kind is TokenKind.IDENT:
            return self.parse_simple_statement()
        raise _ParseFailure(f"unexpected token {tok.text!r}", tok)


def _assert_same(text: str) -> None:
    result = parse_source(text, "t.st")
    tokens, lex_diags = tokenize(text, "t.st")
    reference = _ReferenceParser(tokens, "t.st").parse_file()
    assert [pou_signature(p) for p in result.pous] == [pou_signature(p) for p in reference.pous]
    assert result.pous == reference.pous  # positions included
    assert result.globals == reference.globals
    assert result.diagnostics == lex_diags + reference.diagnostics
    assert result.partial == reference.partial


_SOURCES = [p.read_text(encoding="utf-8") for p in sorted(_PLANT.glob("*.st"))] + [MIXED_ST]


def test_fixture_and_mixed_match_reference():
    for text in _SOURCES:
        _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "PROGRAM p\nIF f(a THEN x := 1; END_IF\nEND_PROGRAM",
        "PROGRAM p\nWHILE (a DO x := 1; END_WHILE\nEND_PROGRAM",
        "PROGRAM p\nx := a[1 ELSE 2];\ny := 2;\nEND_PROGRAM",
        "PROGRAM p\nx := a) + b;\ny := 2;\nEND_PROGRAM",
        "PROGRAM p\nx := f(a));\nEND_PROGRAM",
        "PROGRAM p\nx := (1 VAR_TEMP\n  t : INT;\nEND_VAR\nEND_PROGRAM",
        "FUNCTION_BLOCK fb\nx := 1\nVAR_TEMP\n  t : INT;\nEND_VAR\nEND_FUNCTION_BLOCK",
        "program p\nif a then x := 1; elsif b then x := 2; else x := 3; end_if\nend_program",
        "PROGRAM p\nx := 1",
        "PROGRAM p\nx :=",
        "PROGRAM p\nIF",
        "PROGRAM p\nCASE x OF 1..",
        "PROGRAM p\nFOR i := 1 TO",
        "",
    ],
)
def test_edge_cases_match_reference(text):
    _assert_same(text)


def test_random_projects_match_reference(tmp_path):
    for seed in range(60):
        for path in sorted(random_project(tmp_path / str(seed), seed).glob("*.st")):
            _assert_same(path.read_text(encoding="utf-8"))


@st.composite
def _mutated_source(draw) -> str:
    """A source file with some tokens deleted, duplicated or lower-cased,
    maybe cut short."""
    tokens = tokenize(draw(st.sampled_from(_SOURCES)))[0]
    pieces = [(t.line, t.text) for t in tokens]
    for _ in range(draw(st.integers(1, 8))):
        if not pieces:
            break
        i = draw(st.integers(0, len(pieces) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "lower"]))
        if edit == "delete":
            del pieces[i]
        elif edit == "duplicate":
            pieces.insert(i, pieces[i])
        else:
            pieces[i] = (pieces[i][0], pieces[i][1].lower())
    if draw(st.booleans()):
        pieces = pieces[: draw(st.integers(0, len(pieces)))]
    lines: dict[int, list[str]] = {}
    for line, text in pieces:
        lines.setdefault(line, []).append(text)
    last = max(lines, default=0)
    return "\n".join(" ".join(lines.get(n, ())) for n in range(1, last + 1))


@settings(max_examples=300, deadline=None)
@given(_mutated_source())
def test_mutated_sources_match_reference(text):
    _assert_same(text)
