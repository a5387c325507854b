"""Lexer and recursive-descent parser for a subset of IEC 61131-3 Structured Text.

The subset covers POU blocks (FUNCTION_BLOCK / PROGRAM / FUNCTION), VAR
sections, VAR_GLOBAL blocks, ACTION blocks, and the statement forms needed
for call-graph and data-flow extraction: assignments, call statements,
IF/ELSIF/ELSE, CASE ... OF with literal labels, FOR and WHILE loops.

Expressions are not built into operator trees; they are kept as token
sequences (identifiers carry positions), which is all the downstream
analyses need.  On a syntax error the parser records a diagnostic and
resynchronizes at the next END_* or POU keyword, so one broken POU does not
hide the rest of a file.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .model import (
    ActionDef,
    Assignment,
    CallStatement,
    CaseBranch,
    CaseStatement,
    Diagnostic,
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

_Item = TypeVar("_Item")

KEYWORDS = {
    "FUNCTION_BLOCK", "END_FUNCTION_BLOCK",
    "PROGRAM", "END_PROGRAM",
    "FUNCTION", "END_FUNCTION",
    "ACTION", "END_ACTION",
    "VAR", "VAR_INPUT", "VAR_OUTPUT", "VAR_IN_OUT", "VAR_TEMP", "VAR_GLOBAL",
    "END_VAR", "CONSTANT", "RETAIN", "PERSISTENT", "AT",
    "IF", "THEN", "ELSIF", "ELSE", "END_IF",
    "CASE", "OF", "END_CASE",
    "FOR", "TO", "BY", "DO", "END_FOR",
    "WHILE", "END_WHILE",
    "AND", "OR", "XOR", "NOT", "MOD",
    "TRUE", "FALSE",
    "ARRAY", "STRUCT", "END_STRUCT", "TYPE", "END_TYPE",
}

POU_START = {"FUNCTION_BLOCK", "PROGRAM", "FUNCTION", "VAR_GLOBAL"}
POU_END = {"END_FUNCTION_BLOCK", "END_PROGRAM", "END_FUNCTION"}
_POU_BOUNDARY = POU_START | POU_END
_LABEL_KINDS = (TokenKind.NUMBER, TokenKind.IDENT)  # what a CASE label is made of


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str


@dataclass
class ParseResult:
    pous: list[Pou]
    globals: list[GlobalVar]
    diagnostics: list[Diagnostic]
    partial: list[str]  # names of POUs whose body was only partly recovered

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


# One match per token, after the blanks and ``//`` comments ahead of it; a
# newline is a match of its own, so lines are counted exactly.  Words and
# numbers are ASCII, as IEC 61131-3 identifiers are (``re.ASCII`` makes ``\w``
# ``[A-Za-z0-9_]``).  What the pattern leaves at a token start goes to
# ``_scan_special``: ``(* *)`` comments, ``{}`` pragmas, strings, and any
# other character, which is an error.  A typed literal's tail (``T#5s``,
# ``TOD#12:30:00``) takes a ``:`` only before a digit, so the colon after a
# typed CASE label such as ``INT#1:`` stays an operator.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r]+ | //[^\n]*)*
    (?:
        (?P<word>[A-Za-z_]\w*)(?P<typed>\#(?:[\w.+\-]|:(?=[0-9]))*)?
      | (?P<op>:=|<=|>=|<>|\.\.|=>|\*\*|\((?!\*)|[-+*/)\[\]<>=.,;:&\#%])
      | (?P<nl>\n)
      | (?P<number>[0-9][\w\#]*(?:\.[0-9]\w*)?)
    )?
    """,
    re.VERBOSE | re.ASCII,
)
_COMMENT_DELIMITER = re.compile(r"\(\*|\*\)")


def tokenize(text: str, path: str = "<string>") -> tuple[list[Token], list[Diagnostic]]:
    """Split source text into tokens; comments are skipped, positions 1-based."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    append = tokens.append
    n = len(text)
    line = 1
    line_start = 0  # index of the first character of the current line
    pos = 0
    while pos < n:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastgroup
            if kind == "word":
                word = m.group(kind)
                word_kind = TokenKind.KEYWORD if word.upper() in KEYWORDS else TokenKind.IDENT
                append(Token(word_kind, word, line, m.start(kind) - line_start + 1))
            elif kind == "op":
                append(Token(TokenKind.OP, m.group(kind), line,
                             m.start(kind) - line_start + 1))
            elif kind == "nl":
                line += 1
                line_start = m.end()
            elif kind == "number" or kind == "typed":
                start = m.start("word" if kind == "typed" else kind)
                append(Token(TokenKind.NUMBER, text[start : m.end()], line,
                             start - line_start + 1))
            else:  # end of text, or a token for _scan_special
                pos = m.end()
                break
        if pos >= n:
            break
        end = _scan_special(text, pos, line, pos - line_start + 1, path, tokens, diags)
        newlines = text.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", pos, end) + 1
        pos = end
    return tokens, diags


def _scan_special(
    text: str, i: int, line: int, col: int, path: str,
    tokens: list[Token], diags: list[Diagnostic],
) -> int:
    """Scan the comment, pragma or string at ``text[i]``; any other character
    here, a non-ASCII one included, is an error, since ``_TOKEN_RE`` takes
    every ASCII word, number and operator.  Return the index after it."""
    n = len(text)
    ch = text[i]
    if text.startswith("(*", i):
        depth = 0
        for m in _COMMENT_DELIMITER.finditer(text, i):
            depth += 1 if m.group() == "(*" else -1
            if depth == 0:
                return m.end()
        diags.append(
            Diagnostic("warning", "unterminated comment", path=path, line=line, col=col)
        )
        return n
    if ch == "{":
        # vendor pragma; skip to closing brace
        j = text.find("}", i)
        if j >= 0:
            return j + 1
        diags.append(
            Diagnostic("warning", "unterminated pragma", path=path, line=line, col=col)
        )
        return n
    if ch in "'\"":
        j = i + 1
        while j < n and text[j] != ch:
            if text[j] == "\n":
                break
            j += 2 if text[j] == "$" else 1
        if j >= n or text[j] != ch:
            diags.append(
                Diagnostic("error", "unterminated string literal", path=path,
                           line=line, col=col)
            )
            tokens.append(Token(TokenKind.STRING, text[i:j], line, col))
            return j
        tokens.append(Token(TokenKind.STRING, text[i : j + 1], line, col))
        return j + 1
    diags.append(
        Diagnostic("error", f"unexpected character {ch!r}", path=path, line=line, col=col)
    )
    return i + 1


class _ParseFailure(Exception):
    def __init__(self, message: str, token: Token | None):
        super().__init__(message)
        self.message = message
        self.token = token


class _NestingTooDeep(_ParseFailure):
    """A block opened past ``MAX_NESTING``; recovery skips the rest of the POU."""


# At most this many IF/CASE/FOR/WHILE blocks may nest.  The parser and
# ``flatten_statements`` recurse once per block, so this keeps them far from
# Python's recursion limit; deeper code is reported as a syntax error.
MAX_NESTING = 200


class Parser:
    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0
        self.depth = 0  # IF/CASE/FOR/WHILE blocks open around the current token
        self.diagnostics: list[Diagnostic] = []
        self.partial: list[str] = []
        # one lane per question the parser asks of a token, each with an
        # end-of-input slot: the token (None at the end), its upper-cased text
        # if it is a keyword, its text if it is an operator
        keyword, op = TokenKind.KEYWORD, TokenKind.OP
        self._lane: list[Token | None] = [*tokens, None]
        self._words: list[str | None] = [
            t.text.upper() if t.kind is keyword else None for t in tokens
        ]
        self._words.append(None)
        self._ops: list[str | None] = [t.text if t.kind is op else None for t in tokens]
        self._ops.append(None)

    # -- token helpers

    def peek(self) -> Token | None:
        return self._lane[self.pos]

    def at_keyword(self, *words: str) -> bool:
        return self._words[self.pos] in words

    def at_op(self, text: str) -> bool:
        return self._ops[self.pos] == text

    def take(self) -> Token:
        pos = self.pos
        tok = self._lane[pos]
        if tok is None:
            raise _ParseFailure("unexpected end of file", None)
        self.pos = pos + 1
        return tok

    def expected(self, what: str) -> _ParseFailure:
        got = self.peek()
        return _ParseFailure(f"expected {what}, got {got.text if got else 'end of file'}", got)

    def expect_keyword(self, *words: str) -> Token:
        if not self.at_keyword(*words):
            raise self.expected(" or ".join(words))
        return self.take()

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            raise self.expected(repr(text))
        return self.take()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.IDENT:
            raise self.expected("identifier")
        return self.take()

    def match_bracket(self, close: str, nest: str = "") -> int | None:
        """Move to the first operator in ``close`` that does not close a
        bracket opened on the way by an operator in ``nest`` (an empty
        ``nest``: nothing nests) and return its index.  At end of input
        return None, with ``pos`` at the end."""
        ops = self._ops
        end = len(self.tokens)
        depth = 0
        for pos in range(self.pos, end):
            op = ops[pos]
            if op is None:
                continue
            if op in close:
                if not depth:
                    self.pos = pos
                    return pos
                depth -= 1
            elif op in nest:
                depth += 1
        self.pos = end
        return None

    def error(self, failure: _ParseFailure) -> None:
        line = failure.token.line if failure.token else None
        col = failure.token.col if failure.token else None
        self.diagnostics.append(
            Diagnostic("error", failure.message, path=self.path, line=line, col=col)
        )

    def warn(self, message: str, line: int | None = None) -> None:
        self.diagnostics.append(
            Diagnostic("warning", message, path=self.path, line=line)
        )

    def skip_to_recovery_point(self, block_ends: bool = True) -> None:
        """Advance to the next END_* keyword (with ``block_ends``) or POU
        boundary so parsing can resume."""
        words = self._words
        end = len(self.tokens)
        pos = self.pos
        while pos < end:
            word = words[pos]
            if word in _POU_BOUNDARY:
                break
            pos += 1
            if block_ends and word is not None and word.startswith("END_"):
                break
        self.pos = pos

    # -- file level

    def parse_file(self) -> ParseResult:
        pous: list[Pou] = []
        globals_: list[GlobalVar] = []
        while self.peek() is not None:
            loop_start = self.pos
            try:
                if self.at_keyword("VAR_GLOBAL"):
                    globals_.extend(self.parse_global_block())
                elif self.at_keyword("FUNCTION_BLOCK", "PROGRAM", "FUNCTION"):
                    pous.append(self.parse_pou())
                else:
                    tok = self.peek()
                    raise _ParseFailure(
                        f"expected a POU or VAR_GLOBAL block, got {tok.text!r}", tok
                    )
            except _ParseFailure as failure:
                self.error(failure)
                self.skip_to_recovery_point()
                # a recovery point we cannot use must still be consumed
                if self.pos == loop_start and self.peek() is not None:
                    self.take()
        return ParseResult(pous, globals_, self.diagnostics, self.partial)

    def parse_global_block(self) -> list[GlobalVar]:
        self.expect_keyword("VAR_GLOBAL")
        constant = self.parse_qualifiers()
        return [GlobalVar(d.name, d.type_name, d.init, constant) for d in self.parse_decl_list()]

    def parse_pou(self) -> Pou:
        kind_word = self._words[self.pos]
        head = self.take()
        kind = PouKind[kind_word]
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
            word = self._words[self.pos]
            if tok is None:
                self.warn(f"missing {end_word} at end of file", name_tok.line)
                break
            if word == end_word:
                self.take()
                break
            if word in POU_START:
                self.warn(f"missing {end_word} before {tok.text}", tok.line)
                break
            loop_start = self.pos
            try:
                if self.at_op(";"):
                    self.skip_empty_statements()
                elif word in SectionKind.__members__:  # VAR_GLOBAL ended the POU above
                    sections.append(self.parse_var_section())
                elif word == "ACTION":
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

    def parse_action(self) -> ActionDef:
        head = self.expect_keyword("ACTION")
        name_tok = self.expect_ident()
        if self.at_op(":"):
            self.take()
        body = self.parse_statements_until("END_ACTION")
        self.take()
        return ActionDef(name_tok.text, tuple(body), head.line)

    # -- declarations

    def parse_var_section(self) -> VarSection:
        kind = SectionKind[self._words[self.pos]]
        self.pos += 1
        constant = self.parse_qualifiers()
        return VarSection(kind, tuple(self.parse_decl_list()), constant)

    def parse_qualifiers(self) -> bool:
        """Skip CONSTANT/RETAIN/PERSISTENT; True if CONSTANT was among them."""
        constant = False
        while self.at_keyword("CONSTANT", "RETAIN", "PERSISTENT"):
            constant = constant or self.at_keyword("CONSTANT")
            self.pos += 1
        return constant

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
            if self._words[self.pos] in _POU_BOUNDARY:
                self.warn(f"missing END_VAR before {tok.text}", tok.line)
                return decls
            names = [self.expect_ident().text]
            while self.at_op(","):
                self.take()
                names.append(self.expect_ident().text)
            if self.at_keyword("AT"):
                self.take()
                self.match_bracket(":")  # hardware address: %IX0.0 and friends
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
            if self.match_bracket("]", "[") is not None:
                self.take()
            self.expect_keyword("OF")
            prefix += "ARRAY OF "
        tok = self.peek()
        if tok is None:
            raise _ParseFailure("expected a type name", None)
        if tok.kind is not TokenKind.IDENT and self._words[self.pos] is None:
            raise _ParseFailure(f"expected a type name, got {tok.text!r}", tok)
        self.take()
        text = tok.text
        for open_, close in ("()", "[]"):  # size arguments: STRING(80), STRING[80]
            if self.at_op(open_):
                self.take()
                start = self.pos
                self.match_bracket(close)
                text += open_ + " ".join(t.text for t in self.tokens[start : self.pos]) + close
                self.expect_op(close)
        return prefix + text

    def capture_until_semicolon_text(self) -> str:
        """Text up to END_VAR or a ';' outside brackets (a stray closer
        does not hold up the ';')."""
        words, ops = self._words, self._ops
        start = pos = self.pos
        end = len(self.tokens)
        depth = 0
        while pos < end:
            op = ops[pos]
            if op is not None:
                if op in "([":
                    depth += 1
                elif op in ")]":
                    depth -= 1
                elif op == ";" and depth <= 0:
                    break
            elif words[pos] == "END_VAR":
                break
            pos += 1
        self.pos = pos
        return " ".join(t.text for t in self.tokens[start:pos])

    # -- statements

    _EXPR_STOP_KEYWORDS = {
        "THEN", "DO", "OF", "TO", "BY", "END_IF", "END_CASE", "END_FOR",
        "END_WHILE", "ELSE", "ELSIF", "END_ACTION",
    } | POU_END | POU_START | set(SectionKind.__members__) | {"END_VAR", "ACTION"}

    def capture_expression(self, stop_keywords: set[str] | None = None) -> TokenSeq:
        """Capture tokens up to ';' or a structural keyword at bracket depth 0."""
        stops = stop_keywords or self._EXPR_STOP_KEYWORDS
        words, ops = self._words, self._ops
        start = pos = self.pos
        end = len(self.tokens)
        depth = 0
        while pos < end:
            op = ops[pos]
            if op is not None:
                if op in "([":
                    depth += 1
                elif op in ")]":
                    if depth == 0:
                        break
                    depth -= 1
                elif op == ";" and depth == 0:
                    break
            elif depth == 0 and words[pos] in stops:
                break
            pos += 1
        self.pos = pos
        return tuple(self.tokens[start:pos])

    def require_expression(self, stop_keywords: set[str] | None = None) -> TokenSeq:
        tokens = self.capture_expression(stop_keywords)
        if not tokens:
            raise _ParseFailure("expected an expression", self.peek())
        return tokens

    def skip_empty_statements(self) -> None:
        # every caller of parse_statement skips these next, so a block or call
        # statement leaves its optional closing ';' to them
        while self.at_op(";"):
            self.take()

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok is None:
            raise _ParseFailure("expected a statement", None)
        parse_block = _BLOCK_PARSERS.get(self._words[self.pos])
        if parse_block is not None:
            if self.depth >= MAX_NESTING:
                raise _NestingTooDeep(
                    f"{tok.text} nested more than {MAX_NESTING} blocks deep", tok
                )
            self.depth += 1
            try:
                return parse_block(self)
            finally:
                self.depth -= 1
        if tok.kind is TokenKind.IDENT:
            return self.parse_simple_statement()
        raise _ParseFailure(f"unexpected token {tok.text!r}", tok)

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
            start = self.pos
            if self.match_bracket(")]", "([") is None:
                raise _ParseFailure("unterminated call argument list", first)
            args = tuple(self.tokens[start : self.pos])
            self.take()
            return CallStatement(".".join(path_parts), args, first.line, first.col)
        # otherwise an assignment; indexes may appear on the target path
        while self.at_op("["):
            start = self.pos
            self.take()
            if self.match_bracket("]", "[") is None:
                raise _ParseFailure("unterminated index expression", first)
            self.take()
            path_tokens.extend(self.tokens[start : self.pos])
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
        return CaseStatement(selector, tuple(branches), tuple(else_body), head.line, head.col)

    def at_case_label(self) -> bool:
        """Lookahead: label (',' label)* ':', where a label is an atom or
        atom '..' atom, and an atom a NUMBER or an identifier."""
        lane, ops = self._lane, self._ops
        pos = self.pos
        ranged = False  # the atom at pos ends a '..' range
        while True:
            tok = lane[pos]
            if tok is None or tok.kind not in _LABEL_KINDS:
                return False
            after = ops[pos + 1]
            if after == ".." and not ranged:
                ranged = True
            elif after == ",":
                ranged = False
            else:
                return after == ":"
            pos += 2

    def parse_case_labels(self) -> list[str]:
        labels: list[str] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in _LABEL_KINDS:
                raise _ParseFailure("expected a case label", tok)
            label = self.take().text
            if self.at_op(".."):
                self.take()
                hi = self.peek()
                if hi is None or hi.kind not in _LABEL_KINDS:
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
        return ForStatement(var, start, stop, step, tuple(body), head.line, head.col)

    def parse_while(self) -> WhileStatement:
        head = self.expect_keyword("WHILE")
        condition = self.require_expression()
        self.expect_keyword("DO")
        body = self.parse_statements_until("END_WHILE")
        self.expect_keyword("END_WHILE")
        return WhileStatement(condition, tuple(body), head.line, head.col)

    def parse_statements_until(self, *stop_words: str) -> list[Statement]:
        body: list[Statement] = []
        self.skip_empty_statements()
        while not self.at_keyword(*stop_words):
            if self.peek() is None:
                raise _ParseFailure(f"expected {' or '.join(stop_words)}", None)
            body.append(self.parse_statement())
            self.skip_empty_statements()
        return body


_BLOCK_PARSERS = {
    "IF": Parser.parse_if,
    "CASE": Parser.parse_case,
    "FOR": Parser.parse_for,
    "WHILE": Parser.parse_while,
}


def parse_file(source: SourceFile) -> ParseResult:
    """Parse one ST source file into POUs and global variable declarations."""
    tokens, lex_diags = tokenize(source.text, source.path)
    parser = Parser(tokens, source.path)
    result = parser.parse_file()
    result.diagnostics[:0] = lex_diags
    return result


def parse_source(text: str, path: str = "<string>") -> ParseResult:
    return parse_file(SourceFile(path, text))


# --- token stream / pretty printing ------------------------------------------


# the tokens a statement tree implies rather than holds
_STRUCTURE = (
    [(TokenKind.OP, text) for text in (":=", ";", ".", "(", ")", ",", "..", ":")]
    + [(TokenKind.KEYWORD, word) for word in (
        "IF", "ELSIF", "THEN", "ELSE", "END_IF", "CASE", "OF", "END_CASE",
        "FOR", "TO", "BY", "DO", "END_FOR", "WHILE", "END_WHILE",
    )]
)


def flatten_statements(
    statements: Sequence[Statement],
    atom: Callable[[TokenKind, str], _Item],
    seq: Callable[[TokenSeq], Iterable[_Item]],
) -> list[_Item]:
    """A statement tree as the token stream it was parsed from.

    ``seq`` turns each parsed expression into items, ``atom`` each token the
    tree implies (keywords, operators, callee and case-label parts).  Closing
    keywords follow their bodies, so this recurses once per block; the parser
    keeps that within ``MAX_NESTING``.
    """
    out: list[_Item] = []
    append, extend = out.append, out.extend
    mark = {text: atom(kind, text) for kind, text in _STRUCTURE}

    def walk(stmts: Sequence[Statement]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assignment):
                extend(seq(stmt.target))
                append(mark[":="])
                extend(seq(stmt.value))
                append(mark[";"])
            elif isinstance(stmt, CallStatement):
                for k, part in enumerate(stmt.callee.split(".")):
                    if k:
                        append(mark["."])
                    append(atom(TokenKind.IDENT, part))
                append(mark["("])
                extend(seq(stmt.args))
                append(mark[")"])
                append(mark[";"])
            elif isinstance(stmt, IfStatement):
                for k, branch in enumerate(stmt.branches):
                    append(mark["ELSIF" if k else "IF"])
                    extend(seq(branch.condition))
                    append(mark["THEN"])
                    walk(branch.body)
                if stmt.else_body:
                    append(mark["ELSE"])
                    walk(stmt.else_body)
                append(mark["END_IF"])
                append(mark[";"])
            elif isinstance(stmt, CaseStatement):
                append(mark["CASE"])
                extend(seq(stmt.selector))
                append(mark["OF"])
                for branch in stmt.branches:
                    for k, label in enumerate(branch.labels):
                        if k:
                            append(mark[","])
                        for j, piece in enumerate(label.split("..")):
                            if j:
                                append(mark[".."])
                            kind = TokenKind.NUMBER if piece[:1].isdigit() else TokenKind.IDENT
                            append(atom(kind, piece))
                    append(mark[":"])
                    walk(branch.body)
                if stmt.else_body:
                    append(mark["ELSE"])
                    walk(stmt.else_body)
                append(mark["END_CASE"])
                append(mark[";"])
            elif isinstance(stmt, ForStatement):
                append(mark["FOR"])
                append(atom(TokenKind.IDENT, stmt.var))
                append(mark[":="])
                extend(seq(stmt.start))
                append(mark["TO"])
                extend(seq(stmt.stop))
                if stmt.step:
                    append(mark["BY"])
                    extend(seq(stmt.step))
                append(mark["DO"])
                walk(stmt.body)
                append(mark["END_FOR"])
                append(mark[";"])
            elif isinstance(stmt, WhileStatement):
                append(mark["WHILE"])
                extend(seq(stmt.condition))
                append(mark["DO"])
                walk(stmt.body)
                append(mark["END_WHILE"])
                append(mark[";"])

    walk(statements)
    return out

