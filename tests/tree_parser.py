"""The statement-tree parser and its fact walk: the reference for the facts
that ``swmat.stparse`` records while it parses.

The runtime parser builds no statement trees.  This module keeps the
parser as it was before: ``TreeParser`` overrides the POU and statement
half of ``stparse.Parser`` (declarations are shared), builds one node per
statement with each expression as a ``TokenSeq`` span of the token store,
and ``body_facts`` walks the trees for the calls, reads, writes,
complexity and clone fingerprint.

``parse_file`` and ``parse_source`` return the trees.  Each also parses
the same source with ``swmat.stparse`` and asserts that it agrees: equal
diagnostics, partial POUs and globals, and POUs equal to the trees' POUs
with their facts taken by ``body_facts``.  So every test that reads trees
also checks the runtime parser.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from swmat import stparse
from swmat.model import (
    IDENT,
    NUMBER,
    ActionDef,
    LineSpan,
    Pou,
    PouKind,
    SectionKind,
    TokenStore,
)
from swmat.stparse import (
    MAX_NESTING,
    POU_END,
    POU_START,
    ParseResult,
    SourceFile,
    _NestingTooDeep,
    _ParseFailure,
    tokenize,
)


class TokenSeq:
    """An expression as parsed: tokens ``start`` up to ``end`` of ``store``.

    Two sequences are equal when their tokens agree in code, text, line and
    col, whichever stores hold them.
    """

    __slots__ = ("store", "start", "end")

    def __init__(self, store: TokenStore, start: int, end: int) -> None:
        self.store = store
        self.start = start
        self.end = end

    def __len__(self) -> int:
        return self.end - self.start

    def _content(self) -> tuple:
        store, start, end = self.store, self.start, self.end
        return (store.codes[start:end], store.texts[start:end],
                [store.position(i) for i in range(start, end)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenSeq):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(tuple(self.store.texts[self.start:self.end]))

    def __repr__(self) -> str:
        return f"TokenSeq({' '.join(self.store.texts[self.start:self.end])!r})"


@dataclass(frozen=True, slots=True)
class Assignment:
    # target holds the full lvalue token sequence (base ident, member/index tokens)
    target: TokenSeq
    value: TokenSeq
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class CallStatement:
    callee: str
    args: TokenSeq
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class IfBranch:
    condition: TokenSeq
    body: tuple["Statement", ...]


@dataclass(frozen=True, slots=True)
class IfStatement:
    branches: tuple[IfBranch, ...]
    else_body: tuple["Statement", ...]
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class CaseBranch:
    labels: tuple[str, ...]
    body: tuple["Statement", ...]


@dataclass(frozen=True, slots=True)
class CaseStatement:
    selector: TokenSeq
    branches: tuple[CaseBranch, ...]
    else_body: tuple["Statement", ...]
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class ForStatement:
    var: str
    start: TokenSeq
    stop: TokenSeq
    step: TokenSeq
    body: tuple["Statement", ...]
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class WhileStatement:
    condition: TokenSeq
    body: tuple["Statement", ...]
    line: int
    col: int


Statement = Union[
    Assignment, CallStatement, IfStatement, CaseStatement, ForStatement, WhileStatement
]


@dataclass(frozen=True, slots=True)
class TreeAction:
    name: str
    body: tuple[Statement, ...]
    line: int = 0


# a record cannot add fields to another, so TreePou repeats Pou's
_TreePouFields = namedtuple(
    "TreePou", (*Pou._fields, "statements"), defaults=(*Pou._field_defaults.values(), ())
)


class TreePou(_TreePouFields):
    """A POU with its statement trees; its actions are ``TreeAction``s."""

    __slots__ = ()
    declared_names = Pou.declared_names

    def all_statements(self) -> tuple[Statement, ...]:
        """Top-level statements of the body, then of each action in order."""
        return self.statements + tuple(s for a in self.actions for s in a.body)


def tree_pou(pou: Pou, statements: Sequence[Statement], actions: Sequence[TreeAction]) -> TreePou:
    """``pou`` with statement trees and action bodies."""
    return TreePou(*pou._replace(actions=tuple(actions)), statements=tuple(statements))


def runtime_pou(pou: TreePou) -> Pou:
    """The POU that ``swmat.stparse`` returns for ``pou``: no trees, its
    actions by name and line, its complexity and fingerprint filled."""
    facts = body_facts(pou.all_statements())
    return Pou._make(pou[:len(Pou._fields)])._replace(
        actions=tuple(ActionDef(a.name, a.line) for a in pou.actions),
        complexity=facts.complexity,
        fingerprint=facts.fingerprint,
    )


class TreeParser(stparse.Parser):
    """``stparse.Parser`` with its POU and statement half building trees."""

    def parse_pou(self) -> TreePou:
        kind_word = self._codes[self.pos]
        head = self.take()
        kind = PouKind[kind_word]
        end_word = "END_" + kind_word
        name = self.expect_ident()
        return_type: str | None = None
        if kind is PouKind.FUNCTION:
            self.expect_op(":")
            return_type = self.parse_type_text()

        sections = []
        statements: list[Statement] = []
        actions: list[TreeAction] = []
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
        return TreePou(
            name=self.texts[name],
            kind=kind,
            return_type=return_type,
            var_sections=tuple(sections),
            statements=tuple(statements),
            actions=tuple(actions),
            span=LineSpan(self.line(head), self.line(self.pos - 1)),
        )

    def parse_action(self) -> TreeAction:
        head = self.expect_keyword("ACTION")
        name = self.expect_ident()
        if self.at_op(":"):
            self.take()
        body = self.parse_statements_until("END_ACTION")
        self.take()
        return TreeAction(self.texts[name], tuple(body), self.line(head))

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
    "IF": TreeParser.parse_if,
    "CASE": TreeParser.parse_case,
    "FOR": TreeParser.parse_for,
    "WHILE": TreeParser.parse_while,
}


class TreeFacts(NamedTuple):
    calls: list[tuple[str, int, int]]
    reads: set[str]
    writes: set[str]
    complexity: int
    fingerprint: str


def body_facts(statements: Sequence[Statement]) -> TreeFacts:
    """Calls, read and written names, complexity and clone fingerprint of a
    statement tree, in one walk (see ``stparse.Parser`` and
    ``model.BodyFacts`` for what each is).

    An explicit stack, which also holds the closing codes that follow a
    block's body, keeps nesting depth away from Python's recursion limit.
    """
    calls: list[tuple[str, int, int]] = []
    reads: set[str] = set()
    writes: set[str] = set()
    complexity = 0
    out: list[str] = []

    def scan(seq: TokenSeq, target: bool = False) -> None:
        """Append the codes of ``seq`` and note its calls and reads; the base
        of a ``target`` is the write, its index expressions are reads."""
        store = seq.store
        codes, texts = store.codes, store.texts
        start = i = seq.start
        end = seq.end
        out.extend(codes[start:end])
        while i < end:
            if codes[i] != IDENT:
                i += 1
                continue
            j = i + 1  # past the dotted path a.b.c starting at i
            while j + 1 < end and codes[j] == "." and codes[j + 1] == IDENT:
                j += 2
            if j < end and codes[j] == "(":
                calls.append((".".join(texts[i:j:2]), *store.position(i)))
            elif not (target and i == start):
                reads.add(texts[i])
            i = j

    stack: list = list(reversed(statements))
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:  # the codes that close a block
            out += node
        elif kind is Assignment:
            complexity += 1
            target = node.target
            if target and target.store.codes[target.start] == IDENT:
                writes.add(target.store.texts[target.start])
            scan(target, True)
            out.append(":=")
            scan(node.value)
            out.append(";")
        elif kind is CallStatement:
            complexity += 1
            calls.append((node.callee, node.line, node.col))
            out.append(IDENT)
            out += [".", IDENT] * node.callee.count(".")
            out.append("(")
            scan(node.args)
            out += (")", ";")
        elif kind is IfStatement:
            stack.append(("END_IF", ";"))
            if node.else_body:
                stack += reversed(node.else_body)
                stack.append(("ELSE",))
            for k in range(len(node.branches) - 1, -1, -1):
                stack += (node.branches[k], ("ELSIF",) if k else ("IF",))
        elif kind is IfBranch:
            complexity += 1
            scan(node.condition)
            out.append("THEN")
            stack += reversed(node.body)
        elif kind is CaseStatement:
            out.append("CASE")
            scan(node.selector)
            out.append("OF")
            stack.append(("END_CASE", ";"))
            if node.else_body:
                stack += reversed(node.else_body)
                stack.append(("ELSE",))
            stack += reversed(node.branches)
        elif kind is CaseBranch:
            complexity += len(node.labels)
            for k, label in enumerate(node.labels):
                if k:
                    out.append(",")
                for j, piece in enumerate(label.split("..")):
                    if j:
                        out.append("..")
                    out.append(NUMBER if piece[:1].isdigit() else IDENT)
            out.append(":")
            stack += reversed(node.body)
        elif kind is ForStatement:
            complexity += 1
            writes.add(node.var)
            out += ("FOR", IDENT, ":=")
            scan(node.start)
            out.append("TO")
            scan(node.stop)
            if node.step:
                out.append("BY")
                scan(node.step)
            out.append("DO")
            stack.append(("END_FOR", ";"))
            stack += reversed(node.body)
        else:  # WhileStatement
            complexity += 1
            out.append("WHILE")
            scan(node.condition)
            out.append("DO")
            stack.append(("END_WHILE", ";"))
            stack += reversed(node.body)
    return TreeFacts(calls, reads, writes, complexity, " ".join(out))


def assert_runtime_agrees(source: SourceFile, reference: ParseResult) -> None:
    """``swmat.stparse.parse_file`` of ``source`` gives what the trees of
    ``reference`` say."""
    actual = stparse.parse_file(source)
    assert actual.diagnostics == reference.diagnostics
    assert actual.partial == reference.partial
    assert actual.globals == reference.globals
    assert actual.pous == [runtime_pou(pou) for pou in reference.pous]
    assert [(f.calls, set(f.reads), set(f.writes)) for f in actual.facts] == [
        (f.calls, f.reads, f.writes) for f in reference.facts
    ]


def parse_file(source: SourceFile) -> ParseResult:
    """Parse one ST source file into POUs with statement trees, and check
    that the runtime parser agrees."""
    store, lex_diags = tokenize(source.text, source.path)
    result = TreeParser(store, source.path).parse_file()
    result.diagnostics[:0] = lex_diags
    result.facts = [body_facts(pou.all_statements()) for pou in result.pous]
    assert_runtime_agrees(source, result)
    return result


def parse_source(text: str, path: str = "<string>") -> ParseResult:
    return parse_file(SourceFile(path, text))
