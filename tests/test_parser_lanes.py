"""Differential tests: the parser against a frozen copy of an earlier one.

``_ReferenceParser`` keeps the parser as it was before it read every token
through its keyword and operator lanes: each helper reads the token's kind
and text per call, brackets are matched by one hand-written loop per
construct, and keywords map to ``PouKind``/``SectionKind`` through tables.
Every method ``stparse.Parser`` has rewritten since is copied here
unchanged; the rest are inherited.  ``_reference_format_pou`` is the
matching printer.  On every input both must give equal POUs, globals,
diagnostics (line and col included), partial POUs and printed POUs.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from swmat.model import (
    ActionDef,
    Assignment,
    CallStatement,
    CaseBranch,
    CaseStatement,
    ForStatement,
    GlobalVar,
    IfBranch,
    IfStatement,
    LineSpan,
    Pou,
    PouKind,
    SectionKind,
    Statement,
    Token,
    TokenKind,
    TokenSeq,
    VarDecl,
    VarSection,
    WhileStatement,
)
from swmat.stparse import (
    POU_END,
    POU_START,
    Parser,
    _NestingTooDeep,
    _ParseFailure,
    parse_source,
    tokenize,
)
from st_printer import format_pou, pou_signature, statement_stream
from synth import random_project
from test_golden import MIXED_ST

_PLANT = Path(__file__).parent / "fixtures" / "filling_plant"

SECTION_KINDS = {
    "VAR": SectionKind.VAR,
    "VAR_INPUT": SectionKind.VAR_INPUT,
    "VAR_OUTPUT": SectionKind.VAR_OUTPUT,
    "VAR_IN_OUT": SectionKind.VAR_IN_OUT,
    "VAR_TEMP": SectionKind.VAR_TEMP,
}


class _ReferenceParser(Parser):
    _EXPR_STOP_KEYWORDS = {
        "THEN", "DO", "OF", "TO", "BY", "END_IF", "END_CASE", "END_FOR",
        "END_WHILE", "ELSE", "ELSIF", "END_ACTION",
    } | POU_END | POU_START | set(SECTION_KINDS) | {"END_VAR", "ACTION"}

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

    def expect_keyword(self, *words: str) -> Token:
        if not self.at_keyword(*words):
            got = self.peek()
            raise _ParseFailure(
                f"expected {' or '.join(words)}, got {got.text if got else 'end of file'}",
                got,
            )
        return self.take()

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            got = self.peek()
            raise _ParseFailure(
                f"expected {text!r}, got {got.text if got else 'end of file'}", got
            )
        return self.take()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.IDENT:
            raise _ParseFailure(
                f"expected identifier, got {tok.text if tok else 'end of file'}", tok
            )
        return self.take()

    def skip_to_recovery_point(self, block_ends: bool = True) -> None:
        """Advance to the next END_* keyword (with ``block_ends``) or POU
        boundary so parsing can resume."""
        while True:
            tok = self.peek()
            if tok is None:
                return
            if tok.kind is TokenKind.KEYWORD:
                word = tok.text.upper()
                if word in POU_END or word in POU_START:
                    return
                if block_ends and word.startswith("END_"):
                    self.take()
                    return
            self.take()

    # -- file level

    def parse_global_block(self) -> list[GlobalVar]:
        self.expect_keyword("VAR_GLOBAL")
        constant = False
        while self.at_keyword("CONSTANT", "RETAIN", "PERSISTENT"):
            if self.take().text.upper() == "CONSTANT":
                constant = True
        decls = self.parse_decl_list()
        return [GlobalVar(d.name, d.type_name, d.init, constant) for d in decls]

    def parse_pou(self) -> Pou:
        head = self.take()
        kind_word = head.text.upper()
        kind = {
            "FUNCTION_BLOCK": PouKind.FUNCTION_BLOCK,
            "PROGRAM": PouKind.PROGRAM,
            "FUNCTION": PouKind.FUNCTION,
        }[kind_word]
        end_word = "END_" + kind_word
        name_tok = self.expect_ident()
        return_type: str | None = None
        if kind is PouKind.FUNCTION:
            self.expect_op(":")
            return_type = self.parse_type_text()

        sections: list[VarSection] = []
        statements: list[Statement] = []
        actions: list[ActionDef] = []
        partial = False

        while True:
            tok = self.peek()
            if tok is None:
                self.warn(f"missing {end_word} at end of file", name_tok.line)
                break
            if self.at_keyword(end_word):
                self.take()
                break
            if tok.kind is TokenKind.KEYWORD and tok.text.upper() in POU_START:
                self.warn(f"missing {end_word} before {tok.text}", tok.line)
                break
            loop_start = self.pos
            try:
                if self.at_op(";"):
                    self.skip_empty_statements()
                elif self.at_keyword(*SECTION_KINDS):
                    sections.append(self.parse_var_section())
                elif self.at_keyword("ACTION"):
                    actions.append(self.parse_action())
                else:
                    statements.append(self.parse_statement())
            except _ParseFailure as failure:
                self.error(failure)
                partial = True
                self.skip_to_recovery_point(not isinstance(failure, _NestingTooDeep))
                if self.at_keyword(end_word):
                    self.take()
                    break
                if self.at_keyword(*POU_START):
                    break
                # a foreign END_* marker: swallow it so recovery advances
                if self.pos == loop_start and self.peek() is not None:
                    self.take()

        if partial:
            self.partial.append(name_tok.text)
        last = self.tokens[self.pos - 1] if self.pos else name_tok
        return Pou(
            name=name_tok.text,
            kind=kind,
            return_type=return_type,
            var_sections=tuple(sections),
            statements=tuple(statements),
            actions=tuple(actions),
            span=LineSpan(head.line, last.line),
        )

    def parse_var_section(self) -> VarSection:
        kind = SECTION_KINDS[self.take().text.upper()]
        constant = False
        while self.at_keyword("CONSTANT", "RETAIN", "PERSISTENT"):
            if self.take().text.upper() == "CONSTANT":
                constant = True
        decls = self.parse_decl_list()
        return VarSection(kind, tuple(decls), constant)

    def parse_decl_list(self) -> list[VarDecl]:
        decls: list[VarDecl] = []
        while True:
            if self.at_keyword("END_VAR"):
                self.take()
                return decls
            tok = self.peek()
            if tok is None:
                self.warn("missing END_VAR at end of file")
                return decls
            if tok.kind is TokenKind.KEYWORD and (
                tok.text.upper() in POU_END or tok.text.upper() in POU_START
            ):
                self.warn(f"missing END_VAR before {tok.text}", tok.line)
                return decls
            names = [self.expect_ident().text]
            while self.at_op(","):
                self.take()
                names.append(self.expect_ident().text)
            if self.at_keyword("AT"):
                self.take()
                # hardware address: %IX0.0 and friends
                while not self.at_op(":") and self.peek() is not None:
                    self.take()
            self.expect_op(":")
            type_name = self.parse_type_text()
            init: str | None = None
            if self.at_op(":="):
                self.take()
                init = self.capture_until_semicolon_text()
            self.expect_op(";")
            for name in names:
                decls.append(VarDecl(name, type_name, init))

    def parse_type_text(self) -> str:
        """Type as written; ARRAY [..] OF T collapses to its element type prefix."""
        prefix = ""
        while self.at_keyword("ARRAY"):
            self.take()
            self.expect_op("[")
            depth = 1
            while depth and self.peek() is not None:
                tok = self.take()
                if tok.kind is TokenKind.OP and tok.text == "[":
                    depth += 1
                elif tok.kind is TokenKind.OP and tok.text == "]":
                    depth -= 1
            self.expect_keyword("OF")
            prefix += "ARRAY OF "
        tok = self.peek()
        if tok is None:
            raise _ParseFailure("expected a type name", None)
        if tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise _ParseFailure(f"expected a type name, got {tok.text!r}", tok)
        self.take()
        text = tok.text
        if self.at_op("("):  # STRING(80) or similar size argument
            self.take()
            inner = []
            while not self.at_op(")") and self.peek() is not None:
                inner.append(self.take().text)
            self.expect_op(")")
            text += "(" + " ".join(inner) + ")"
        if self.at_op("["):
            self.take()
            inner = []
            while not self.at_op("]") and self.peek() is not None:
                inner.append(self.take().text)
            self.expect_op("]")
            text += "[" + " ".join(inner) + "]"
        return prefix + text

    def capture_until_semicolon_text(self) -> str:
        parts: list[str] = []
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok.kind is TokenKind.OP:
                if tok.text in "([":
                    depth += 1
                elif tok.text in ")]":
                    depth -= 1
                elif tok.text == ";" and depth <= 0:
                    break
            if tok.kind is TokenKind.KEYWORD and tok.text.upper() == "END_VAR":
                break
            parts.append(self.take().text)
        return " ".join(parts)

    # -- statements

    _EXPR_STOP_KEYWORDS = {
        "THEN", "DO", "OF", "TO", "BY", "END_IF", "END_CASE", "END_FOR",
        "END_WHILE", "ELSE", "ELSIF", "END_ACTION",
    } | POU_END | POU_START | set(SECTION_KINDS) | {"END_VAR", "ACTION"}

    def parse_simple_statement(self) -> Statement:
        first = self.expect_ident()
        path_tokens: list[Token] = [first]
        path_parts = [first.text]
        while self.at_op("."):
            path_tokens.append(self.take())
            member = self.expect_ident()
            path_tokens.append(member)
            path_parts.append(member.text)
        if self.at_op("("):
            # a plain call statement: name(...) ;
            self.take()
            args: list[Token] = []
            depth = 1
            while depth:
                tok = self.peek()
                if tok is None:
                    raise _ParseFailure("unterminated call argument list", first)
                if tok.kind is TokenKind.OP and tok.text in "([":
                    depth += 1
                elif tok.kind is TokenKind.OP and tok.text in ")]":
                    depth -= 1
                    if depth == 0:
                        self.take()
                        break
                args.append(self.take())
            if self.at_op(";"):
                self.take()
            return CallStatement(".".join(path_parts), tuple(args), first.line, first.col)
        # otherwise an assignment; indexes may appear on the target path
        while self.at_op("["):
            path_tokens.append(self.take())
            depth = 1
            while depth:
                tok = self.peek()
                if tok is None:
                    raise _ParseFailure("unterminated index expression", first)
                if tok.kind is TokenKind.OP and tok.text == "[":
                    depth += 1
                elif tok.kind is TokenKind.OP and tok.text == "]":
                    depth -= 1
                path_tokens.append(self.take())
            while self.at_op("."):
                path_tokens.append(self.take())
                path_tokens.append(self.expect_ident())
        self.expect_op(":=")
        value = self.require_expression()
        self.expect_op(";")
        return Assignment(tuple(path_tokens), value, first.line, first.col)

    def parse_if(self) -> IfStatement:
        head = self.expect_keyword("IF")
        branches: list[IfBranch] = []
        condition = self.require_expression()
        self.expect_keyword("THEN")
        body = self.parse_statements_until("ELSIF", "ELSE", "END_IF")
        branches.append(IfBranch(condition, tuple(body)))
        else_body: list[Statement] = []
        while self.at_keyword("ELSIF"):
            self.take()
            condition = self.require_expression()
            self.expect_keyword("THEN")
            body = self.parse_statements_until("ELSIF", "ELSE", "END_IF")
            branches.append(IfBranch(condition, tuple(body)))
        if self.at_keyword("ELSE"):
            self.take()
            else_body = self.parse_statements_until("END_IF")
        self.expect_keyword("END_IF")
        if self.at_op(";"):
            self.take()
        return IfStatement(tuple(branches), tuple(else_body), head.line, head.col)

    def parse_case(self) -> CaseStatement:
        head = self.expect_keyword("CASE")
        selector = self.require_expression()
        self.expect_keyword("OF")
        branches: list[CaseBranch] = []
        else_body: list[Statement] = []
        while True:
            if self.at_keyword("END_CASE"):
                self.take()
                break
            if self.at_keyword("ELSE"):
                self.take()
                else_body = self.parse_statements_until("END_CASE")
                self.expect_keyword("END_CASE")
                break
            if self.peek() is None:
                raise _ParseFailure("missing END_CASE", head)
            labels = self.parse_case_labels()
            body: list[Statement] = []
            self.skip_empty_statements()
            while not (
                self.at_keyword("END_CASE", "ELSE")
                or self.at_case_label()
                or self.peek() is None
            ):
                body.append(self.parse_statement())
                self.skip_empty_statements()
            branches.append(CaseBranch(tuple(labels), tuple(body)))
        if self.at_op(";"):
            self.take()
        return CaseStatement(selector, tuple(branches), tuple(else_body), head.line, head.col)

    def at_case_label(self) -> bool:
        """Lookahead: (literal|ident) (.. literal|ident)? (, ...)* ':' not ':='."""
        i = self.pos
        toks = self.tokens
        n = len(toks)

        def label_atom(j: int) -> int | None:
            if j < n and toks[j].kind in (TokenKind.NUMBER, TokenKind.IDENT):
                return j + 1
            return None

        j = label_atom(i)
        if j is None:
            return False
        while True:
            if j < n and toks[j].kind is TokenKind.OP and toks[j].text == "..":
                j2 = label_atom(j + 1)
                if j2 is None:
                    return False
                j = j2
            if j < n and toks[j].kind is TokenKind.OP and toks[j].text == ",":
                j2 = label_atom(j + 1)
                if j2 is None:
                    return False
                j = j2
                continue
            break
        return j < n and toks[j].kind is TokenKind.OP and toks[j].text == ":"

    def parse_case_labels(self) -> list[str]:
        labels: list[str] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in (TokenKind.NUMBER, TokenKind.IDENT):
                raise _ParseFailure("expected a case label", tok)
            label = self.take().text
            if self.at_op(".."):
                self.take()
                hi = self.peek()
                if hi is None or hi.kind not in (TokenKind.NUMBER, TokenKind.IDENT):
                    raise _ParseFailure("expected a case label after '..'", hi)
                label += ".." + self.take().text
            labels.append(label)
            if self.at_op(","):
                self.take()
                continue
            self.expect_op(":")
            return labels

    def parse_for(self) -> ForStatement:
        head = self.expect_keyword("FOR")
        var = self.expect_ident().text
        self.expect_op(":=")
        start = self.require_expression()
        self.expect_keyword("TO")
        stop = self.require_expression()
        step: TokenSeq = ()
        if self.at_keyword("BY"):
            self.take()
            step = self.require_expression()
        self.expect_keyword("DO")
        body = self.parse_statements_until("END_FOR")
        self.expect_keyword("END_FOR")
        if self.at_op(";"):
            self.take()
        return ForStatement(var, start, stop, step, tuple(body), head.line, head.col)

    def parse_while(self) -> WhileStatement:
        head = self.expect_keyword("WHILE")
        condition = self.require_expression()
        self.expect_keyword("DO")
        body = self.parse_statements_until("END_WHILE")
        self.expect_keyword("END_WHILE")
        if self.at_op(";"):
            self.take()
        return WhileStatement(condition, tuple(body), head.line, head.col)


_SECTION_HEADERS = {
    SectionKind.VAR: "VAR",
    SectionKind.VAR_INPUT: "VAR_INPUT",
    SectionKind.VAR_OUTPUT: "VAR_OUTPUT",
    SectionKind.VAR_IN_OUT: "VAR_IN_OUT",
    SectionKind.VAR_TEMP: "VAR_TEMP",
    SectionKind.VAR_GLOBAL: "VAR_GLOBAL",
}

_BREAK_AFTER = {";", "THEN", "ELSE", "DO", "OF"}


def _render_stream(stream: list[tuple[TokenKind, str]]) -> str:
    lines: list[str] = []
    current: list[str] = []
    for kind, text in stream:
        current.append(text)
        if text.upper() in _BREAK_AFTER or (kind is TokenKind.OP and text == ";"):
            lines.append(" ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines)


def _reference_format_pou(pou: Pou) -> str:
    head = {
        PouKind.PROGRAM: "PROGRAM",
        PouKind.FUNCTION_BLOCK: "FUNCTION_BLOCK",
        PouKind.FUNCTION: "FUNCTION",
    }[pou.kind]
    parts = [f"{head} {pou.name}" + (f" : {pou.return_type}" if pou.return_type else "")]
    for section in pou.var_sections:
        header = _SECTION_HEADERS[section.kind]
        if section.constant:
            header += " CONSTANT"
        parts.append(header)
        for decl in section.decls:
            init = f" := {decl.init}" if decl.init is not None else ""
            parts.append(f"  {decl.name} : {decl.type_name}{init};")
        parts.append("END_VAR")
    parts.append(_render_stream(statement_stream(pou.statements)))
    for action in pou.actions:
        parts.append(f"ACTION {action.name}")
        parts.append(_render_stream(statement_stream(action.body)))
        parts.append("END_ACTION")
    parts.append("END_" + head)
    return "\n".join(p for p in parts if p) + "\n"


def _assert_same(text: str) -> None:
    result = parse_source(text, "t.st")
    tokens, lex_diags = tokenize(text, "t.st")
    reference = _ReferenceParser(tokens, "t.st").parse_file()
    assert [pou_signature(p) for p in result.pous] == [pou_signature(p) for p in reference.pous]
    assert result.pous == reference.pous  # positions included
    assert result.globals == reference.globals
    assert result.diagnostics == lex_diags + reference.diagnostics
    assert result.partial == reference.partial
    assert [format_pou(p) for p in result.pous] == [
        _reference_format_pou(p) for p in reference.pous
    ]


# every bracket form the parser matches, CASE label lists and ranges, and
# every declaration qualifier
_BRACKETS_ST = """\
VAR_GLOBAL CONSTANT RETAIN
  gLimit : INT := 10;
END_VAR
VAR_GLOBAL PERSISTENT
  gGrid : ARRAY [1..2, 3..4] OF ARRAY [0..1] OF INT;
  gName : STRING(80) := 'plant';
END_VAR
FUNCTION_BLOCK Cell
VAR_INPUT
  code : STRING[10];
  q : ARRAY [0..3] OF ARRAY [0..3] OF Cell;
END_VAR
VAR_OUTPUT RETAIN
  m : INT := (2 + 3) * 4;
END_VAR
VAR CONSTANT
  k : INT := 2;
END_VAR
VAR_IN_OUT
  io AT %IX0.1 : BOOL;
END_VAR
VAR_TEMP
  i : INT;
END_VAR
q[1][i+1].m := 3;
q[k].code := code;
CASE i OF
  1, 2, 4..6: m := q[i][(i)].m;
  INT#7: Log(a := q[1], b := (m));
  k, 8..9, 10: ;
ELSE
  Log(m);
END_CASE;
END_FUNCTION_BLOCK
"""

_SOURCES = [p.read_text(encoding="utf-8") for p in sorted(_PLANT.glob("*.st"))] + [
    MIXED_ST, _BRACKETS_ST,
]


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
        "PROGRAM p\nCASE x OF 1: y := 1;\n2..3..4: y := 2;\nEND_CASE\nEND_PROGRAM",
        "PROGRAM p\nCASE x OF 1: y := 1;\nINT#2, 3..k, m: y := 2;\n5,: y := 3;\nEND_CASE\nEND_PROGRAM",
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


# brackets, CASE label and declaration tokens: deletion and duplication alone
# rarely leave a bracket unclosed
_INSERTS = ["(", ")", "[", "]", "..", ",", ":", ":=", ";", "OF", "ARRAY", "END_VAR", "CASE"]


@st.composite
def _mutated_source(draw) -> str:
    """A source file with some tokens deleted, duplicated, lower-cased or
    inserted from ``_INSERTS``, maybe cut short."""
    tokens = tokenize(draw(st.sampled_from(_SOURCES)))[0]
    pieces = [(t.line, t.text) for t in tokens]
    for _ in range(draw(st.integers(1, 8))):
        if not pieces:
            break
        i = draw(st.integers(0, len(pieces) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "lower", "insert"]))
        if edit == "delete":
            del pieces[i]
        elif edit == "duplicate":
            pieces.insert(i, pieces[i])
        elif edit == "insert":
            pieces.insert(i, (pieces[i][0], draw(st.sampled_from(_INSERTS))))
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
