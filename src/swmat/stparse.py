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
start, for what carries a position: diagnostics, call sites and POU spans.

Statements are not built into trees: as the parser descends through a POU
body it records what the analyses need (calls, reads, writes, complexity
and the clone fingerprint), so the store is freed with its file.  On a
syntax error the parser records a diagnostic, drops what the failed
statement recorded and resynchronizes at the next END_* or POU keyword, so
one broken POU does not hide the rest of a file.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from itertools import accumulate, repeat
from operator import add
from sys import intern
from typing import NamedTuple

from .model import (
    ActionDef,
    BodyFacts,
    Diagnostic,
    GlobalVar,
    IDENT,
    LineSpan,
    NUMBER,
    Pou,
    PouKind,
    SectionKind,
    STRING,
    TokenStore,
    VarDecl,
    VarSection,
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
_SECTION_WORDS = frozenset(SectionKind.__members__)

# what nests in an expression or ends it, for ``Parser.capture_expression``:
# an index in an assignment target nests and ends only at square brackets or
# the end of input (None), a call's arguments at either bracket, and any
# other expression also at ';' or a structural keyword
_OPEN, _CLOSE, _STOP, _END = range(4)
_INDEX_ROLES = {"[": _OPEN, "]": _CLOSE, None: _END}
_ARGS_ROLES = {**_INDEX_ROLES, "(": _OPEN, ")": _CLOSE}
_EXPR_ROLES = {
    **_ARGS_ROLES,
    **dict.fromkeys(
        {";", "THEN", "DO", "OF", "TO", "BY", "END_IF", "END_CASE", "END_FOR", "END_WHILE",
         "ELSE", "ELSIF", "ACTION", "END_ACTION", "END_VAR"}
        | POU_END | POU_START | _SECTION_WORDS,
        _STOP,
    ),
}


class SourceFile(NamedTuple):
    path: str
    text: str


class ParseResult:
    """What parsing one file finds."""

    __slots__ = ("pous", "globals", "diagnostics", "partial", "facts")

    def __init__(
        self,
        pous: list[Pou],
        globals: list[GlobalVar],
        diagnostics: list[Diagnostic],
        partial: list[str],
        facts: list[BodyFacts] | None = None,
    ) -> None:
        self.pous = pous
        self.globals = globals
        self.diagnostics = diagnostics
        self.partial = partial  # names of POUs whose body was only partly recovered
        # each POU's calls, reads and writes as written, parallel to ``pous``
        self.facts = [] if facts is None else facts

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


# ``tokenize`` splits a file into pieces, each a token, a comment, a pragma
# or the opening of what ``_scan_special`` reads.  Words and numbers are
# ASCII, as IEC 61131-3 identifiers are (``re.ASCII`` makes ``\w``
# ``[A-Za-z0-9_]``).  A typed literal's tail (``T#5s``, ``TOD#12:30:00``)
# takes a ``:`` only before a digit, so the colon after a typed CASE label
# such as ``INT#1:`` stays an operator, and a ``.`` only before no second
# ``.``, so ``INT#2..INT#3`` is a range of two literals.  ``(*`` is a piece
# of its own, so its ``(`` is never the operator.  The last alternative
# takes any other non-blank character, so ``split`` leaves only blanks
# between pieces.
_PIECES = r"""
    (
        {word}(?:\#(?:[\w+\-]|\.(?!\.)|:(?=[0-9]))*)?
      | [0-9][\w\#]*(?:\.[0-9]\w*)?
      {whole}
      | // | \(\*
      | :=|<=|>=|<>|\.\.|=>|\*\*|[-+*/()\[\]<>=.,;:&\#%]
      | [^ \t\r\n]
    )
"""
_WORD = r"[A-Za-z_]\w*"
# A file is split with a ``//`` comment, an unnested ``(* *)`` comment, a
# ``{}`` pragma and a closed string each as one piece: what ``_scan_special``
# would read there.  A comment, pragma or string read from an opening piece
# (a nested or open comment, say) can end inside a later piece, as in
# ``(* (* a *) see http://x *) y``, which then was no piece: the rest of it
# is split again with only openings as pieces, where nothing read can end
# inside a piece.  So no character is split more than twice.
_PIECE_RE = re.compile(
    _PIECES.format(
        word=_WORD,
        whole=r"""
          | //[^\n]* | \(\*(?:[^(*]|\((?!\*)|\*(?!\)))*\*\) | \{[^}]*\}
          | '(?:[^'$\n]|\$[\s\S])*' | "(?:[^"$\n]|\$[\s\S])*"
        """,
    ),
    re.VERBOSE | re.ASCII,
)
_OPENING_PIECE_RE = re.compile(_PIECES.format(word=_WORD, whole=""), re.VERBOSE | re.ASCII)
_IDENT_RE = re.compile(_WORD, re.ASCII)
_COMMENT_DELIMITER = re.compile(r"\(\*|\*\)")

# the code of a piece that is no token: a comment, a pragma, or the opening
# of a comment, pragma or string, or a stray character
_SPECIAL = "special"
_FIXED_CODES = {
    **{word: word for word in KEYWORDS},
    **{op: op for op in (":=", "<=", ">=", "<>", "..", "=>", "**", *"-+*/()[]<>=.,;:&#%")},
    **dict.fromkeys(("(*", "{", "'", '"'), _SPECIAL),
}
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class _Codes(dict):
    """Piece text -> code, seeded with ``_FIXED_CODES``; any other piece is
    classified the first time it is looked up.  One table per split, so it
    holds one file's vocabulary at a time."""

    def __missing__(self, piece: str) -> str:
        first = piece[0]
        if first in _WORD_START:
            upper = piece.upper()
            code = NUMBER if "#" in piece else intern(upper) if upper in KEYWORDS else IDENT
        elif "0" <= first <= "9":
            code = NUMBER
        else:  # a lone quote is seeded, so a longer piece from one is a string
            code = STRING if first in "'\"" else _SPECIAL
        self[piece] = code
        return code


def is_identifier(name: str) -> bool:
    """Whether ``tokenize`` reads ``name`` as exactly one identifier."""
    return _IDENT_RE.fullmatch(name) is not None and name.upper() not in KEYWORDS


def _line_starts(text: str) -> array:
    """The offset where each line of ``text`` starts; lines end at ``\\n``.
    Machine integers, as the store's ``starts`` column: no int object per line."""
    starts = array("I", accumulate(map(add, map(len, text.split("\n")), repeat(1)), initial=0))
    starts.pop()  # the start of the line after the last one
    return starts


def tokenize(text: str, path: str = "<string>") -> tuple[TokenStore, list[Diagnostic]]:
    """Split source text into a store of tokens; comments are skipped."""
    store = TokenStore(_line_starts(text))
    diags: list[Diagnostic] = []
    _tokenize_span(text, 0, len(text), _PIECE_RE, path, store, diags)
    return store, diags


def _tokenize_span(
    text: str, start: int, stop: int, pattern: re.Pattern,
    path: str, store: TokenStore, diags: list[Diagnostic],
) -> int:
    """Add the tokens of ``text[start:stop]``, split by ``pattern``, to
    ``store``.  Return where reading goes on: ``stop``, or past it when a
    comment, pragma or string read last runs on.

    The codes, texts and offsets of the pieces are taken a whole run at a
    time, up to the next piece that is no token.  That one is read from the
    text where it stands, and the run goes on at the first piece after it.
    """
    parts = pattern.split(text[start:stop])  # blanks, piece, blanks, ..., piece, blanks
    pieces = parts[1::2]
    offsets = array("I", accumulate(map(len, parts), initial=start))[1:-1:2]
    del parts
    codes = list(map(_Codes(_FIXED_CODES).__getitem__, pieces))
    end = len(codes)
    codes.append(_SPECIAL)  # ends the last run
    # texts and keyword codes are interned: the files repeat the same names,
    # keywords, operators and literals, so a name that a file's facts keep
    # (a POU, a call, a read or written global) is one object across files
    add_codes, add_starts, add_texts = store.codes.extend, store.starts.extend, store.texts.extend
    i = 0
    resume = stop
    while True:
        j = codes.index(_SPECIAL, i)
        add_codes(codes[i:j])
        add_starts(offsets[i:j])
        add_texts(map(intern, pieces[i:j]))
        if j == end:
            return max(resume, stop)
        piece = pieces[j]
        if len(piece) > 2 or piece == "{}":  # a whole comment or pragma
            i = j + 1
            continue
        if piece == "//":
            resume = text.find("\n", offsets[j])
            if resume < 0:
                resume = len(text)
        else:
            resume = _scan_special(text, offsets[j], path, store, diags)
        k = bisect_left(offsets, resume, j + 1)
        while (piece_end := offsets[k - 1] + len(pieces[k - 1])) > resume:
            # what was read ended inside piece k - 1
            resume = _tokenize_span(text, resume, piece_end, _OPENING_PIECE_RE, path, store, diags)
            k = bisect_left(offsets, resume, k)
        i = k


def _scan_special(
    text: str, i: int, path: str, store: TokenStore, diags: list[Diagnostic],
) -> int:
    """Scan the comment, pragma or string at ``text[i]``; any other character
    here, a non-ASCII one included, is an error, since ``_PIECE_RE`` takes
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
        if j < n and text[j] == ch:
            j += 1  # the closing quote
        else:
            diags.append(_positioned("error", "unterminated string literal", path, store, i))
        store.codes.append(STRING)
        store.starts.append(i)
        store.texts.append(text[i:j])
        return j
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


# At most this many IF/CASE/FOR/WHILE blocks may nest.  The parser recurses
# once per block, so this keeps it far from Python's recursion limit; deeper
# code is reported as a syntax error.
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
        self.facts: list[BodyFacts] = []  # one per POU parsed
        # the facts of the body being parsed: the calls and the fingerprint's
        # codes in source order, and the names read and written as the keys
        # of dicts, in the order first seen (``parse_pou`` takes a failed
        # statement's back out)
        self.calls: list[tuple[str, int, int]] = []
        self.out: list[str] = []
        self.reads: dict[str, None] = {}
        self.writes: dict[str, None] = {}
        self.complexity = 0

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
        return ParseResult(pous, globals_, self.diagnostics, self.partial, self.facts)

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
        actions: list[ActionDef] = []
        action_facts: list[tuple[list, list]] = []  # each action's calls and codes
        declared: set[str] = set()  # lower-cased names of all sections so far
        partial = False
        calls, out = self.calls, self.out = [], []
        reads, writes = self.reads, self.writes = {}, {}
        self.complexity = 0

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
            # a statement or action that fails leaves no fact behind
            n_calls, n_out, n_reads, n_writes = len(calls), len(out), len(reads), len(writes)
            complexity = self.complexity
            try:
                if word == ";":
                    self.skip_empty_statements()
                elif word in _SECTION_WORDS:  # VAR_GLOBAL ended the POU above
                    sections.append(self.parse_var_section(self.texts[name], declared))
                elif word == "ACTION":
                    actions.append(self.parse_action(action_facts))
                else:
                    self.parse_statement()
            except _ParseFailure as failure:
                del calls[n_calls:], out[n_out:]
                for names, n in ((reads, n_reads), (writes, n_writes)):
                    while len(names) > n:
                        names.popitem()
                self.complexity = complexity
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
        for action_calls, action_out in action_facts:  # the actions' facts follow the body's
            calls += action_calls
            out += action_out
        self.facts.append(BodyFacts(calls, reads, writes))
        return Pou(
            name=self.texts[name],
            kind=kind,
            return_type=return_type,
            var_sections=tuple(sections),
            actions=tuple(actions),
            complexity=self.complexity,
            fingerprint=" ".join(out),
            span=LineSpan(self.line(head), self.line(self.pos - 1)),
        )

    def parse_action(self, action_facts: list[tuple[list, list]]) -> ActionDef:
        """An ACTION block; its calls and codes go to ``action_facts``, apart
        from the body's, and its reads, writes and complexity to the POU's."""
        head = self.expect_keyword("ACTION")
        name = self.expect_ident()
        if self.at_op(":"):
            self.take()
        calls, out = self.calls, self.out
        self.calls, self.out = [], []
        try:
            self.parse_statements_until("END_ACTION")
            self.take()
            action_facts.append((self.calls, self.out))
        finally:
            self.calls, self.out = calls, out
        return ActionDef(self.texts[name], self.line(head))

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
    #
    # Statements are parsed into the facts of the POU body that holds them,
    # recorded in source order as the parser descends; no statement tree is
    # built.  Beside ``model.BodyFacts`` there are two:
    #
    # * complexity: statements + decision points.  Every assignment and call
    #   statement adds one, and so do every IF and ELSIF branch, every CASE
    #   label and every loop header: a deliberately simple proxy that grows
    #   with both size and branching.
    # * the clone fingerprint: the token codes of the statements, joined by
    #   a space, which no code holds.  Identifiers, numbers and strings each
    #   have one code, so renamed copies compare equal.  A block always ends
    #   in its END_* code and ';', a call statement in ')' ';'; an ELSE is
    #   there only before a statement, and a CASE label piece is NUMBER if
    #   its text starts with a digit, IDENT otherwise.

    def capture_expression(self, roles: dict = _EXPR_ROLES) -> int:
        """Move to where the expression at ``pos`` ends, by ``roles``, and
        return that index: the first ';' or structural keyword at bracket
        depth 0, a closer that closes no bracket opened in it, or the end of
        input.  On the way, record each dotted path followed by '(' as a
        call and the base of any other path as read."""
        codes, texts, reads = self._codes, self.texts, self.reads
        pos = self.pos
        depth = 0
        while True:
            code = codes[pos]
            if code == IDENT:
                j = pos + 1  # past the dotted path; the end of input is no '.'
                while codes[j] == "." and codes[j + 1] == IDENT:
                    j += 2
                if codes[j] == "(":
                    self.calls.append((".".join(texts[pos:j:2]), *self.store.position(pos)))
                else:
                    reads[texts[pos]] = None
                pos = j
                continue
            role = roles.get(code)
            if role is None:
                pass
            elif role == _OPEN:
                depth += 1
            elif role == _CLOSE:
                if not depth:
                    break
                depth -= 1
            elif role == _END or not depth:
                break
            pos += 1
        self.pos = pos
        return pos

    def require_expression(self) -> None:
        start = self.pos
        if self.capture_expression() == start:
            raise _ParseFailure("expected an expression", self.here())

    def skip_empty_statements(self) -> None:
        # every caller of parse_statement skips these next, so a block or call
        # statement leaves its optional closing ';' to them
        codes, pos = self._codes, self.pos
        while codes[pos] == ";":
            pos += 1
        self.pos = pos

    def parse_statement(self) -> None:
        pos = self.pos
        code = self._codes[pos]
        if code == IDENT:
            return self.parse_simple_statement()
        parse_block = _BLOCK_PARSERS.get(code)
        if parse_block is None:
            if pos >= self.end:
                raise _ParseFailure("expected a statement", None)
            raise _ParseFailure(f"unexpected token {self.texts[pos]!r}", pos)
        if self.depth >= MAX_NESTING:
            raise _NestingTooDeep(
                f"{self.texts[pos]} nested more than {MAX_NESTING} blocks deep", pos
            )
        self.depth += 1
        try:
            parse_block(self)
        finally:
            self.depth -= 1

    def parse_simple_statement(self) -> None:
        codes = self._codes
        first = pos = self.pos
        pos += 1
        while codes[pos] == ".":
            if codes[pos + 1] != IDENT:
                self.pos = pos + 1
                raise self.expected("identifier")
            pos += 2
        if codes[pos] == "(":
            # a plain call statement: name(...) ;
            self.calls.append(("".join(self.texts[first:pos]), *self.store.position(first)))
            self.pos = pos + 1
            close = self.capture_expression(_ARGS_ROLES)
            if codes[close] is None:
                raise _ParseFailure("unterminated call argument list", first)
            self.pos = close + 1
            self.complexity += 1
            out = self.out
            out += codes[first:close]
            out += (")", ";")
            return
        # otherwise an assignment; indexes may appear on the target path
        while codes[pos] == "[":
            self.pos = pos + 1
            pos = self.capture_expression(_INDEX_ROLES)
            if codes[pos] is None:
                raise _ParseFailure("unterminated index expression", first)
            pos += 1
            if codes[pos] == "." and codes[pos + 1] == IDENT:
                # the member after an index reads as a name, as in an expression
                self.reads[self.texts[pos + 1]] = None
            while codes[pos] == ".":
                if codes[pos + 1] != IDENT:
                    self.pos = pos + 1
                    raise self.expected("identifier")
                pos += 2
        self.pos = pos
        self.expect_op(":=")
        self.writes[self.texts[first]] = None
        self.require_expression()
        self.expect_op(";")
        self.complexity += 1
        self.out += codes[first : self.pos]

    def parse_if(self) -> None:
        head = self.pos
        while True:  # IF, then each ELSIF: condition THEN body
            self.pos += 1
            self.require_expression()
            self.expect_keyword("THEN")
            self.complexity += 1
            self.out += self._codes[head : self.pos]
            self.parse_statements_until("ELSIF", "ELSE", "END_IF")
            if not self.at_keyword("ELSIF"):
                break
            head = self.pos
        if self.at_keyword("ELSE"):
            self.take()
            self.parse_else("END_IF")
        self.expect_keyword("END_IF")
        self.out += ("END_IF", ";")

    def parse_else(self, stop: str) -> None:
        """The body after an ELSE, up to ``stop``; ELSE is recorded only
        before a statement."""
        out = self.out
        out.append("ELSE")
        before = len(out)
        self.parse_statements_until(stop)
        if len(out) == before:
            out.pop()

    def parse_case(self) -> None:
        head = self.take()
        self.require_expression()
        self.expect_keyword("OF")
        self.out += self._codes[head : self.pos]
        while True:
            if self.at_keyword("END_CASE"):
                self.take()
                break
            if self.at_keyword("ELSE"):
                self.take()
                self.parse_else("END_CASE")
                self.expect_keyword("END_CASE")
                break
            if self.at_end():
                raise _ParseFailure("missing END_CASE", head)
            self.parse_case_labels()
            self.skip_empty_statements()
            while not (
                self.at_keyword("END_CASE", "ELSE")
                or self.at_case_label()
                or self.at_end()
            ):
                self.parse_statement()
                self.skip_empty_statements()
        self.out += ("END_CASE", ";")

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

    def parse_case_labels(self) -> None:
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
            break
        self.complexity += len(labels)
        out = self.out
        for k, label in enumerate(labels):
            if k:
                out.append(",")
            for j, piece in enumerate(label.split("..")):
                if j:
                    out.append("..")
                out.append(NUMBER if piece[:1].isdigit() else IDENT)
        out.append(":")

    def parse_for(self) -> None:
        head = self.take()
        var = self.expect_ident()
        self.expect_op(":=")
        self.require_expression()
        self.expect_keyword("TO")
        self.require_expression()
        if self.at_keyword("BY"):
            self.take()
            self.require_expression()
        self.expect_keyword("DO")
        self.complexity += 1
        self.writes[self.texts[var]] = None
        self.out += self._codes[head : self.pos]
        self.parse_statements_until("END_FOR")
        self.expect_keyword("END_FOR")
        self.out += ("END_FOR", ";")

    def parse_while(self) -> None:
        head = self.take()
        self.require_expression()
        self.expect_keyword("DO")
        self.complexity += 1
        self.out += self._codes[head : self.pos]
        self.parse_statements_until("END_WHILE")
        self.expect_keyword("END_WHILE")
        self.out += ("END_WHILE", ";")

    def parse_statements_until(self, *stop_keywords: str) -> None:
        codes = self._codes
        self.skip_empty_statements()
        while codes[self.pos] not in stop_keywords:
            if self.at_end():
                raise _ParseFailure(f"expected {' or '.join(stop_keywords)}", None)
            self.parse_statement()
            self.skip_empty_statements()


_BLOCK_PARSERS = {
    "IF": Parser.parse_if,
    "CASE": Parser.parse_case,
    "FOR": Parser.parse_for,
    "WHILE": Parser.parse_while,
}


def parse_file(source: SourceFile) -> ParseResult:
    """Parse one ST source file into POUs, the facts of their bodies and
    global variable declarations."""
    store, lex_diags = tokenize(source.text, source.path)
    parser = Parser(store, source.path)
    result = parser.parse_file()
    result.diagnostics[:0] = lex_diags
    return result


def parse_source(text: str, path: str = "<string>") -> ParseResult:
    return parse_file(SourceFile(path, text))

