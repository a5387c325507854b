"""Lexer and recursive-descent parser for a subset of IEC 61131-3 Structured Text.

The subset covers POU blocks (FUNCTION_BLOCK / PROGRAM / FUNCTION), VAR
sections, VAR_GLOBAL blocks, ACTION blocks, and the statement forms needed
for call-graph and data-flow extraction: assignments, call statements,
IF/ELSIF/ELSE, CASE ... OF with literal labels, FOR and WHILE loops.

``tokenize`` keeps a file's tokens as columns of one ``TokenStore``:
parallel lists of codes, start offsets and texts, which the parser reads
directly.  A token's code tells its kind and, for keywords and operators,
which one it is (see ``model.IDENT``).  Line and col are not stored per
token; they are computed on demand, by bisecting the offsets where lines
start, for what carries a position: diagnostics, statement heads, call
sites and POU spans.

Expressions are not built into operator trees; each is kept as a
``TokenSeq``, a span of the store, which is all the downstream analyses
need.  On a syntax error the parser records a diagnostic and resynchronizes
at the next END_* or POU keyword, so one broken POU does not hide the rest
of a file.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add
from sys import intern

from .model import (
    ActionDef,
    Assignment,
    CallStatement,
    CaseBranch,
    CaseStatement,
    Diagnostic,
    ForStatement,
    GlobalVar,
    IDENT,
    IfBranch,
    IfStatement,
    LineSpan,
    NUMBER,
    Pou,
    PouKind,
    SectionKind,
    Statement,
    TokenKind,
    TokenSeq,
    TokenStore,
    VarDecl,
    VarSection,
    WhileStatement,
)

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
_LABEL_CODES = (NUMBER, IDENT)  # what a CASE label is made of


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


# One match per token, after the blanks, newlines and ``//`` comments ahead
# of it.  Words and numbers are ASCII, as IEC 61131-3 identifiers are
# (``re.ASCII`` makes ``\w`` ``[A-Za-z0-9_]``).  What the pattern leaves at a
# token start goes to ``_scan_special``: ``(* *)`` comments, ``{}`` pragmas,
# strings, and any other character, which is an error.  A typed literal's
# tail (``T#5s``, ``TOD#12:30:00``) takes a ``:`` only before a digit, so the
# colon after a typed CASE label such as ``INT#1:`` stays an operator.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+ | //[^\n]*)*
    (?:
        (?P<word>[A-Za-z_]\w*)(?P<typed>\#(?:[\w.+\-]|:(?=[0-9]))*)?
      | (?P<op>:=|<=|>=|<>|\.\.|=>|\*\*|\((?!\*)|[-+*/)\[\]<>=.,;:&\#%])
      | (?P<number>[0-9][\w\#]*(?:\.[0-9]\w*)?)
    )?
    """,
    re.VERBOSE | re.ASCII,
)
_COMMENT_DELIMITER = re.compile(r"\(\*|\*\)")


def _line_starts(text: str) -> array:
    """The offset where each line of ``text`` starts; lines end at ``\\n``.
    Machine integers, as the store's ``starts`` column: no int object per line."""
    starts = array("I", accumulate(map(add, map(len, text.split("\n")), repeat(1)), initial=0))
    starts.pop()  # the start of the line after the last one
    return starts


def tokenize(text: str, path: str = "<string>") -> tuple[TokenStore, list[Diagnostic]]:
    """Split source text into a store of tokens; comments are skipped."""
    store = TokenStore(_line_starts(text))
    codes, texts = store.codes, store.texts
    # the offsets go to a list and, at the end, into the 32-bit column at
    # once: an array grown token by token passes its small buffers through
    # every size class of the allocator, which raised the peak RSS of
    # analyzing many small files
    store.starts = starts = []
    # each distinct word gets its code once.  Texts and keyword codes are
    # interned: the spans of a parsed project keep every file's store alive,
    # and the files repeat the same names, keywords, operators and literals.
    # An identifier's upper-cased text is only looked up, never kept:
    # interning it too grows the intern table and the peak RSS of analyze
    seen: dict[str, tuple[str, str]] = {}
    diags: list[Diagnostic] = []
    n = len(text)
    pos = 0
    while pos < n:
        for m in _TOKEN_RE.finditer(text, pos):
            group = m.lastgroup
            if group == "word":
                entry = seen.get(word := m.group(group))
                if entry is None:
                    word = intern(word)
                    upper = word.upper()
                    entry = seen[word] = (intern(upper) if upper in KEYWORDS else IDENT, word)
                code, word = entry
                codes.append(code)
                starts.append(m.start(group))
                texts.append(word)
            elif group == "op":
                token = intern(m.group(group))
                codes.append(token)
                starts.append(m.start(group))
                texts.append(token)
            elif group == "number" or group == "typed":
                start = m.start("word" if group == "typed" else group)
                token = text[start : m.end()]
                codes.append(NUMBER)
                starts.append(start)
                texts.append(intern(token))
            else:  # end of text, or a token for _scan_special
                pos = m.end()
                break
        if pos >= n:
            break
        pos = _scan_special(text, pos, path, store, diags)
    store.starts = array("I", starts)
    return store, diags


def _scan_special(
    text: str, i: int, path: str, store: TokenStore, diags: list[Diagnostic],
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
        diags.append(_positioned("warning", "unterminated comment", path, store, i))
        return n
    if ch == "{":
        # vendor pragma; skip to closing brace
        j = text.find("}", i)
        if j >= 0:
            return j + 1
        diags.append(_positioned("warning", "unterminated pragma", path, store, i))
        return n
    if ch in "'\"":
        j = i + 1
        while j < n and text[j] != ch:
            if text[j] == "\n":
                break
            j += 2 if text[j] == "$" else 1
        if j >= n or text[j] != ch:
            diags.append(_positioned("error", "unterminated string literal", path, store, i))
            store.add(TokenKind.STRING, text[i:j], i)
            return j
        store.add(TokenKind.STRING, text[i : j + 1], i)
        return j + 1
    diags.append(_positioned("error", f"unexpected character {ch!r}", path, store, i))
    return i + 1


def _positioned(
    severity: str, message: str, path: str, store: TokenStore, offset: int
) -> Diagnostic:
    """A diagnostic at the line and col of the text offset ``offset``."""
    line, col = store.locate(offset)
    return Diagnostic(severity, message, path=path, line=line, col=col)


class _ParseFailure(Exception):
    def __init__(self, message: str, at: int | None):
        super().__init__(message)
        self.message = message
        self.at = at  # index of the offending token; None at end of input


class _NestingTooDeep(_ParseFailure):
    """A block opened past ``MAX_NESTING``; recovery skips the rest of the POU."""


# At most this many IF/CASE/FOR/WHILE blocks may nest.  The parser and
# ``modularity._flatten`` recurse once per block, so this keeps them far from
# Python's recursion limit; deeper code is reported as a syntax error.
MAX_NESTING = 200


class Parser:
    def __init__(self, store: TokenStore, path: str):
        self.store = store
        self.path = path
        self.pos = 0
        self.end = len(store)
        self.depth = 0  # IF/CASE/FOR/WHILE blocks open around the current token
        self.diagnostics: list[Diagnostic] = []
        self.partial: list[str] = []
        self.texts = store.texts
        # the token codes, with a None slot for the end of input
        self._codes: list[str | None] = [*store.codes, None]

    # -- token helpers

    def at_end(self) -> bool:
        return self.pos >= self.end

    def at_keyword(self, *words: str) -> bool:
        return self._codes[self.pos] in words

    def at_op(self, text: str) -> bool:
        return self._codes[self.pos] == text

    def take(self) -> int:
        """Consume the current token and return its index."""
        pos = self.pos
        if pos >= self.end:
            raise _ParseFailure("unexpected end of file", None)
        self.pos = pos + 1
        return pos

    def here(self) -> int | None:
        """The index of the current token; None at the end of input."""
        return self.pos if self.pos < self.end else None

    def line(self, i: int) -> int:
        return self.store.position(i)[0]

    def expected(self, what: str) -> _ParseFailure:
        got = self.texts[self.pos] if self.pos < self.end else "end of file"
        return _ParseFailure(f"expected {what}, got {got}", self.here())

    # the end-of-input slots hold None, so each ``expect_*`` fails there
    def expect_keyword(self, *words: str) -> int:
        pos = self.pos
        if self._codes[pos] not in words:
            raise self.expected(" or ".join(words))
        self.pos = pos + 1
        return pos

    def expect_op(self, text: str) -> int:
        pos = self.pos
        if self._codes[pos] != text:
            raise self.expected(repr(text))
        self.pos = pos + 1
        return pos

    def expect_ident(self) -> int:
        pos = self.pos
        if self._codes[pos] != IDENT:
            raise self.expected("identifier")
        self.pos = pos + 1
        return pos

    def match_bracket(self, close: str, nest: str = "") -> int | None:
        """Move to the first operator in ``close`` that does not close a
        bracket opened on the way by an operator in ``nest`` (an empty
        ``nest``: nothing nests) and return its index.  At end of input
        return None, with ``pos`` at the end.  No identifier, literal or
        keyword code is a substring of ``close`` or ``nest``."""
        codes = self._codes
        end = self.end
        depth = 0
        for pos in range(self.pos, end):
            code = codes[pos]
            if code in close:
                if not depth:
                    self.pos = pos
                    return pos
                depth -= 1
            elif code in nest:
                depth += 1
        self.pos = end
        return None

    def error(self, failure: _ParseFailure) -> None:
        line = col = None
        if failure.at is not None:
            line, col = self.store.position(failure.at)
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
        codes = self._codes
        end = self.end
        pos = self.pos
        while pos < end:
            code = codes[pos]
            if code in _POU_BOUNDARY:
                break
            pos += 1
            if block_ends and code.startswith("END_"):
                break
        self.pos = pos

    # -- file level

    def parse_file(self) -> ParseResult:
        pous: list[Pou] = []
        globals_: list[GlobalVar] = []
        while not self.at_end():
            loop_start = self.pos
            try:
                if self.at_keyword("VAR_GLOBAL"):
                    globals_.extend(self.parse_global_block())
                elif self.at_keyword("FUNCTION_BLOCK", "PROGRAM", "FUNCTION"):
                    pous.append(self.parse_pou())
                else:
                    raise _ParseFailure(
                        f"expected a POU or VAR_GLOBAL block, got {self.texts[self.pos]!r}",
                        self.pos,
                    )
            except _ParseFailure as failure:
                self.error(failure)
                self.skip_to_recovery_point()
                # a recovery point we cannot use must still be consumed
                if self.pos == loop_start and not self.at_end():
                    self.take()
        return ParseResult(pous, globals_, self.diagnostics, self.partial)

    def parse_global_block(self) -> list[GlobalVar]:
        self.expect_keyword("VAR_GLOBAL")
        constant = self.parse_qualifiers()
        lines: list[int] = []
        decls = self.parse_decl_list(lines=lines)
        return [
            GlobalVar(d.name, d.type_name, d.init, constant, line)
            for d, line in zip(decls, lines)
        ]

    def parse_pou(self) -> Pou:
        kind_word = self._codes[self.pos]
        head = self.take()
        kind = PouKind[kind_word]
        end_word = "END_" + kind_word
        name = self.expect_ident()
        return_type: str | None = None
        if kind is PouKind.FUNCTION:
            self.expect_op(":")
            return_type = self.parse_type_text()

        sections: list[VarSection] = []
        statements: list[Statement] = []
        actions: list[ActionDef] = []
        declared: set[str] = set()  # lower-cased names of all sections so far
        partial = False

        while True:
            word = self._codes[self.pos]
            if self.at_end():
                self.warn(f"missing {end_word} at end of file", self.line(name))
                break
            if word == end_word:
                self.take()
                break
            if word in POU_START:
                self.warn(f"missing {end_word} before {self.texts[self.pos]}",
                          self.line(self.pos))
                break
            loop_start = self.pos
            try:
                if self.at_op(";"):
                    self.skip_empty_statements()
                elif word in SectionKind.__members__:  # VAR_GLOBAL ended the POU above
                    sections.append(self.parse_var_section(self.texts[name], declared))
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
                if self.pos == loop_start and not self.at_end():
                    self.take()

        if partial:
            self.partial.append(self.texts[name])
        return Pou(
            name=self.texts[name],
            kind=kind,
            return_type=return_type,
            var_sections=tuple(sections),
            statements=tuple(statements),
            actions=tuple(actions),
            span=LineSpan(self.line(head), self.line(self.pos - 1)),
        )

    def parse_action(self) -> ActionDef:
        head = self.expect_keyword("ACTION")
        name = self.expect_ident()
        if self.at_op(":"):
            self.take()
        body = self.parse_statements_until("END_ACTION")
        self.take()
        return ActionDef(self.texts[name], tuple(body), self.line(head))

    # -- declarations

    def parse_var_section(self, pou: str, declared: set[str]) -> VarSection:
        kind = SectionKind[self._codes[self.pos]]
        self.pos += 1
        constant = self.parse_qualifiers()
        return VarSection(kind, tuple(self.parse_decl_list(pou, declared)), constant)

    def parse_qualifiers(self) -> bool:
        """Skip CONSTANT/RETAIN/PERSISTENT; True if CONSTANT was among them."""
        constant = False
        while self.at_keyword("CONSTANT", "RETAIN", "PERSISTENT"):
            constant = constant or self.at_keyword("CONSTANT")
            self.pos += 1
        return constant

    def parse_decl_list(
        self,
        pou: str | None = None,
        declared: set[str] | None = None,
        lines: list[int] | None = None,
    ) -> list[VarDecl]:
        """The declarations up to END_VAR.  In a POU's sections, ``declared``
        holds the lower-cased names the POU has declared so far, and a name
        read a second time is an error at its position.  A ``lines`` list
        gets the line of each declared name, in the order of the result."""
        texts = self.texts
        decls: list[VarDecl] = []
        while True:
            if self.at_keyword("END_VAR"):
                self.take()
                return decls
            if self.at_end():
                self.warn("missing END_VAR at end of file")
                return decls
            if self._codes[self.pos] in _POU_BOUNDARY:
                self.warn(f"missing END_VAR before {texts[self.pos]}", self.line(self.pos))
                return decls
            names = [self.declared_name(pou, declared)]
            while self.at_op(","):
                self.take()
                names.append(self.declared_name(pou, declared))
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
            for at in names:
                decls.append(VarDecl(texts[at], type_name, init))
                if lines is not None:
                    lines.append(self.line(at))

    def declared_name(self, pou: str | None, declared: set[str] | None) -> int:
        """Read one declared identifier (see ``parse_decl_list``); return its
        token index."""
        at = self.expect_ident()
        name = self.texts[at]
        if declared is not None:
            key = name.lower()
            if key in declared:
                line, col = self.store.position(at)
                message = f"duplicate declaration {name!r}"
                self.diagnostics.append(
                    Diagnostic("error", message, pou=pou, path=self.path, line=line, col=col)
                )
            declared.add(key)
        return at

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
        if self.at_end():
            raise _ParseFailure("expected a type name", None)
        if (code := self._codes[self.pos]) != IDENT and code not in KEYWORDS:
            raise _ParseFailure(f"expected a type name, got {self.texts[self.pos]!r}", self.pos)
        text = self.texts[self.take()]
        for open_, close in ("()", "[]"):  # size arguments: STRING(80), STRING[80]
            if self.at_op(open_):
                self.take()
                start = self.pos
                self.match_bracket(close)
                text += open_ + " ".join(self.texts[start : self.pos]) + close
                self.expect_op(close)
        return prefix + text

    def capture_until_semicolon_text(self) -> str:
        """Text up to END_VAR or a ';' outside brackets (a stray closer
        does not hold up the ';')."""
        codes = self._codes
        start = pos = self.pos
        end = self.end
        depth = 0
        while pos < end:
            code = codes[pos]
            if code in ("(", "["):
                depth += 1
            elif code in (")", "]"):
                depth -= 1
            elif code == ";" and depth <= 0 or code == "END_VAR":
                break
            pos += 1
        self.pos = pos
        return " ".join(self.texts[start:pos])

    # -- statements

    _EXPR_STOP_KEYWORDS = {
        "THEN", "DO", "OF", "TO", "BY", "END_IF", "END_CASE", "END_FOR",
        "END_WHILE", "ELSE", "ELSIF", "END_ACTION",
    } | POU_END | POU_START | set(SectionKind.__members__) | {"END_VAR", "ACTION"}

    def capture_expression(self, stop_keywords: set[str] | None = None) -> TokenSeq:
        """Capture tokens up to ';' or a structural keyword at bracket depth 0."""
        stops = stop_keywords or self._EXPR_STOP_KEYWORDS
        codes = self._codes
        start = pos = self.pos
        end = self.end
        depth = 0
        while pos < end:
            code = codes[pos]
            if code in ("(", "["):
                depth += 1
            elif code in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and (code == ";" or code in stops):
                break
            pos += 1
        self.pos = pos
        return TokenSeq(self.store, start, pos)

    def require_expression(self, stop_keywords: set[str] | None = None) -> TokenSeq:
        tokens = self.capture_expression(stop_keywords)
        if not tokens:
            raise _ParseFailure("expected an expression", self.here())
        return tokens

    def skip_empty_statements(self) -> None:
        # every caller of parse_statement skips these next, so a block or call
        # statement leaves its optional closing ';' to them
        codes, pos = self._codes, self.pos
        while codes[pos] == ";":
            pos += 1
        self.pos = pos

    def parse_statement(self) -> Statement:
        if self.pos >= self.end:
            raise _ParseFailure("expected a statement", None)
        parse_block = _BLOCK_PARSERS.get(self._codes[self.pos])
        if parse_block is not None:
            if self.depth >= MAX_NESTING:
                raise _NestingTooDeep(
                    f"{self.texts[self.pos]} nested more than {MAX_NESTING} blocks deep",
                    self.pos,
                )
            self.depth += 1
            try:
                return parse_block(self)
            finally:
                self.depth -= 1
        if self._codes[self.pos] == IDENT:
            return self.parse_simple_statement()
        raise _ParseFailure(f"unexpected token {self.texts[self.pos]!r}", self.pos)

    def parse_simple_statement(self) -> Statement:
        first = self.expect_ident()
        while self.at_op("."):
            self.pos += 1
            self.expect_ident()
        if self.at_op("("):
            # a plain call statement: name(...) ;
            callee = "".join(self.texts[first : self.pos])
            start = self.pos = self.pos + 1
            if self.match_bracket(")]", "([") is None:
                raise _ParseFailure("unterminated call argument list", first)
            args = TokenSeq(self.store, start, self.pos)
            self.pos += 1
            return CallStatement(callee, args, *self.store.position(first))
        # otherwise an assignment; indexes may appear on the target path
        while self.at_op("["):
            self.pos += 1
            if self.match_bracket("]", "[") is None:
                raise _ParseFailure("unterminated index expression", first)
            self.pos += 1
            while self.at_op("."):
                self.pos += 1
                self.expect_ident()
        target = TokenSeq(self.store, first, self.pos)
        self.expect_op(":=")
        value = self.require_expression()
        self.expect_op(";")
        return Assignment(target, value, *self.store.position(first))

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
        return IfStatement(tuple(branches), tuple(else_body), *self.store.position(head))

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
            if self.at_end():
                raise _ParseFailure("missing END_CASE", head)
            labels = self.parse_case_labels()
            body: list[Statement] = []
            self.skip_empty_statements()
            while not (
                self.at_keyword("END_CASE", "ELSE")
                or self.at_case_label()
                or self.at_end()
            ):
                body.append(self.parse_statement())
                self.skip_empty_statements()
            branches.append(CaseBranch(tuple(labels), tuple(body)))
        return CaseStatement(
            selector, tuple(branches), tuple(else_body), *self.store.position(head)
        )

    def at_case_label(self) -> bool:
        """Lookahead: label (',' label)* ':', where a label is an atom or
        atom '..' atom, and an atom a NUMBER or an identifier."""
        codes = self._codes
        pos = self.pos
        ranged = False  # the atom at pos ends a '..' range
        while True:
            if codes[pos] not in _LABEL_CODES:
                return False
            after = codes[pos + 1]
            if after == ".." and not ranged:
                ranged = True
            elif after == ",":
                ranged = False
            else:
                return after == ":"
            pos += 2

    def take_case_label(self, message: str) -> str:
        if self._codes[self.pos] not in _LABEL_CODES:
            raise _ParseFailure(message, self.here())
        return self.texts[self.take()]

    def parse_case_labels(self) -> list[str]:
        labels: list[str] = []
        while True:
            label = self.take_case_label("expected a case label")
            if self.at_op(".."):
                self.take()
                label += ".." + self.take_case_label("expected a case label after '..'")
            labels.append(label)
            if self.at_op(","):
                self.take()
                continue
            self.expect_op(":")
            return labels

    def parse_for(self) -> ForStatement:
        head = self.expect_keyword("FOR")
        var = self.texts[self.expect_ident()]
        self.expect_op(":=")
        start = self.require_expression()
        self.expect_keyword("TO")
        stop = self.require_expression()
        if self.at_keyword("BY"):
            self.take()
            step = self.require_expression()
        else:
            step = TokenSeq(self.store, self.pos, self.pos)
        self.expect_keyword("DO")
        body = self.parse_statements_until("END_FOR")
        self.expect_keyword("END_FOR")
        return ForStatement(var, start, stop, step, tuple(body), *self.store.position(head))

    def parse_while(self) -> WhileStatement:
        head = self.expect_keyword("WHILE")
        condition = self.require_expression()
        self.expect_keyword("DO")
        body = self.parse_statements_until("END_WHILE")
        self.expect_keyword("END_WHILE")
        return WhileStatement(condition, tuple(body), *self.store.position(head))

    def parse_statements_until(self, *stop_keywords: str) -> list[Statement]:
        body: list[Statement] = []
        codes = self._codes
        self.skip_empty_statements()
        while codes[self.pos] not in stop_keywords:
            if self.at_end():
                raise _ParseFailure(f"expected {' or '.join(stop_keywords)}", None)
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
    store, lex_diags = tokenize(source.text, source.path)
    parser = Parser(store, source.path)
    result = parser.parse_file()
    result.diagnostics[:0] = lex_diags
    return result


def parse_source(text: str, path: str = "<string>") -> ParseResult:
    return parse_file(SourceFile(path, text))

