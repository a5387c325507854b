"""Shared domain model: parsed PLC code, questionnaire data, assessment results.

All types are immutable value objects with structural equality.  Scores and
maturity ratios are `fractions.Fraction` throughout so that sums of
quarter-point scores (3.25, 3.75, 1.25) stay exact under addition.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from sys import intern
from typing import Iterator, NamedTuple, Sequence, Union


class PouKind(Enum):
    PROGRAM = "program"
    FUNCTION_BLOCK = "function_block"
    FUNCTION = "function"


class SectionKind(Enum):
    VAR = "var"
    VAR_INPUT = "var_input"
    VAR_OUTPUT = "var_output"
    VAR_IN_OUT = "var_in_out"
    VAR_TEMP = "var_temp"
    VAR_GLOBAL = "var_global"


class CallResolution(Enum):
    DIRECT_POU = "direct_pou"
    INSTANCE_OF_FB = "instance_of_fb"
    LOCAL_ACTION = "local_action"
    EXTERNAL = "external"


class TokenKind(Enum):
    """The kind of a token, as ``TokenStore.kind`` reads it off its code."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    OP = "op"


# The code of an identifier, a number and a string literal.  A keyword's code
# is its upper-cased text and an operator's its text, so a code tells its
# token's kind: keyword codes are upper-case words, operators hold no letters.
IDENT, NUMBER, STRING = "i", "n", "s"
_LITERAL_CODES = {TokenKind.IDENT: IDENT, TokenKind.NUMBER: NUMBER, TokenKind.STRING: STRING}
_LITERAL_KINDS = {code: kind for kind, code in _LITERAL_CODES.items()}


class TokenStore:
    """The tokens of one source file, kept as parallel columns.

    Token ``i`` has code ``codes[i]`` and text ``texts[i]``, and starts at
    offset ``starts[i]`` of the source text.  Line and col are not stored;
    ``locate`` computes them on demand by bisecting ``line_starts``, the
    offsets where lines start.
    """

    __slots__ = ("codes", "starts", "texts", "line_starts")

    def __init__(self, line_starts: array) -> None:
        self.codes: list[str] = []
        # 32-bit machine integers: no int object per token.  A source of 4 GiB
        # or more, whose offsets would not fit, needs tens of GB of columns
        self.starts = array("I")
        self.texts: list[str] = []
        self.line_starts = line_starts

    def __len__(self) -> int:
        return len(self.texts)

    def add(self, kind: TokenKind, text: str, start: int) -> None:
        """Append one token of kind ``kind`` starting at offset ``start``."""
        code = _LITERAL_CODES.get(kind)
        self.codes.append(code or (intern(text.upper()) if kind is TokenKind.KEYWORD else text))
        self.starts.append(start)
        self.texts.append(text)

    def kind(self, i: int) -> TokenKind:
        """The kind of token ``i``, read off its code."""
        code = self.codes[i]
        return _LITERAL_KINDS.get(code) or (
            TokenKind.KEYWORD if code[0].isalpha() else TokenKind.OP
        )

    def locate(self, offset: int) -> tuple[int, int]:
        """The 1-based line and col of a text offset."""
        line_starts = self.line_starts
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def position(self, i: int) -> tuple[int, int]:
        """The 1-based line and col of token ``i``."""
        return self.locate(self.starts[i])


class TokenSeq:
    """An expression as parsed: tokens ``start`` up to ``end`` of ``store``.

    Readers index the store's columns over ``range(start, end)``.  Two
    sequences are equal when their tokens agree in code, text, line and col,
    whichever stores hold them.
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
class VarDecl:
    name: str
    type_name: str
    init: str | None = None


@dataclass(frozen=True, slots=True)
class VarSection:
    kind: SectionKind
    decls: tuple[VarDecl, ...]
    constant: bool = False


@dataclass(frozen=True, slots=True)
class ActionDef:
    name: str
    body: tuple[Statement, ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class CallSite:
    caller: str
    callee_text: str
    resolution: CallResolution
    # resolved POU for DIRECT_POU, FB type for INSTANCE_OF_FB, action name for
    # LOCAL_ACTION; None for EXTERNAL
    target: str | None
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class LineSpan:
    start: int
    end: int

    def contains(self, line: int) -> bool:
        return self.start <= line <= self.end


@dataclass(frozen=True)
class Pou:
    name: str
    kind: PouKind
    return_type: str | None = None
    var_sections: tuple[VarSection, ...] = ()
    statements: tuple[Statement, ...] = ()
    actions: tuple[ActionDef, ...] = ()
    call_sites: tuple[CallSite, ...] = ()
    global_reads: frozenset[str] = frozenset()
    global_writes: frozenset[str] = frozenset()
    complexity: int = 0
    span: LineSpan = LineSpan(1, 1)
    stub: bool = False
    group: str | None = None

    def declared_names(self) -> dict[str, VarDecl]:
        """All variable declarations keyed by lower-cased name."""
        out: dict[str, VarDecl] = {}
        for section in self.var_sections:
            for decl in section.decls:
                out[decl.name.lower()] = decl
        return out

    def all_statements(self) -> tuple[Statement, ...]:
        """Top-level statements of the body, then of each action in order."""
        return self.statements + tuple(s for a in self.actions for s in a.body)


@dataclass(frozen=True)
class GlobalVar:
    name: str
    type_name: str
    init: str | None = None
    constant: bool = False
    # the line of its name; a hand-built global has none
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TaskDef:
    name: str
    cycle_ms: int
    entry: str
    # where the task was declared; a hand-built task has none
    path: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SourceRef:
    path: str
    span: LineSpan


@dataclass(frozen=True)
class Project:
    name: str
    pous: tuple[Pou, ...] = ()
    globals: tuple[GlobalVar, ...] = ()
    tasks: tuple[TaskDef, ...] = ()
    source_index: dict[str, SourceRef] = field(default_factory=dict)

    def pou(self, name: str) -> Pou | None:
        wanted = name.lower()
        for pou in self.pous:
            if pou.name.lower() == wanted:
                return pou
        return None

    def global_names(self) -> dict[str, GlobalVar]:
        return {g.name.lower(): g for g in self.globals}


# --- questionnaire / maturity ---------------------------------------------


class Category(Enum):
    GEN = "GEN"
    MOD = "MOD"
    TEST = "TEST"
    OP = "OP"


SCORED_CATEGORIES = (Category.MOD, Category.TEST, Category.OP)


class AnswerMode(Enum):
    SINGLE_CHOICE = "single-choice"
    NUMERIC = "numeric"
    FREE_TEXT = "free-text"


class CompanyCategory(Enum):
    PLATFORM = "platform"
    MACHINE = "machine"
    PLANT = "plant"


def _canonical_category(qid: int) -> "Category | None":
    """Fixed grouping of the 45 questionnaire ids; None for foreign ids."""
    if 15 <= qid <= 30:
        return Category.MOD
    if 31 <= qid <= 35:
        return Category.TEST
    if 36 <= qid <= 39:
        return Category.OP
    if 1 <= qid <= 45:
        return Category.GEN
    return None


@dataclass(frozen=True)
class Option:
    key: str
    label: str
    score: Fraction


@dataclass(frozen=True)
class Question:
    id: int
    text: str
    category: Category
    weight: Fraction = Fraction(5)
    options: tuple[Option, ...] = ()
    mode: AnswerMode = AnswerMode.SINGLE_CHOICE


@dataclass(frozen=True)
class QuestionnaireSchema:
    questions: tuple[Question, ...]

    def question(self, qid: int) -> Question:
        try:
            return self._by_id[qid]
        except KeyError:
            raise KeyError(f"no question with id {qid}") from None

    @cached_property
    def _by_id(self) -> dict[int, Question]:
        by_id: dict[int, Question] = {}
        for q in self.questions:
            by_id.setdefault(q.id, q)  # a duplicate id resolves to its first question
        return by_id

    def ids(self, category: Category | None = None) -> tuple[int, ...]:
        if category is None:
            return self._ids
        return tuple(q.id for q in self.questions if q.category == category)

    @cached_property
    def _ids(self) -> tuple[int, ...]:
        return tuple(q.id for q in self.questions)

    def scored_ids(self, category: Category | None = None) -> tuple[int, ...]:
        """Ids of single-choice questions that enter a maturity score."""
        return self._scored_ids.get(category, ())

    @cached_property
    def _scored_ids(self) -> dict[Category | None, tuple[int, ...]]:
        scored = [
            q for q in self.questions
            if q.mode is AnswerMode.SINGLE_CHOICE and q.category in SCORED_CATEGORIES
        ]
        by_category: dict[Category | None, tuple[int, ...]] = {
            category: tuple(q.id for q in scored if q.category == category)
            for category in SCORED_CATEGORIES
        }
        by_category[None] = tuple(q.id for q in scored)
        return by_category

    @cached_property
    def denominator(self) -> int:
        """The least common denominator of every weight and option score:
        sums of them can be taken as integer counts of its steps."""
        return math.lcm(*(
            value.denominator
            for q in self.questions
            for value in (q.weight, *(o.score for o in q.options))
        ))

    @cached_property
    def answer_scores(self) -> dict[tuple[int, str], tuple[Fraction, Fraction]]:
        """Memo of ``maturity.score_answer``: (question id, answer text) to the
        option's score and its 0..5 normalization, filled on first use."""
        return {}

    def validate(self) -> list[str]:
        problems: list[str] = []
        seen: set[int] = set()
        for q in self.questions:
            if q.id in seen:
                problems.append(f"question {q.id}: duplicate id")
            seen.add(q.id)
            expected = _canonical_category(q.id)
            if expected is not None and q.category is not expected:
                problems.append(
                    f"question {q.id}: category {q.category.value}, "
                    f"the questionnaire groups it under {expected.value}"
                )
            if q.mode is AnswerMode.SINGLE_CHOICE:
                if q.weight <= 0:
                    problems.append(f"question {q.id}: weight {q.weight} must be > 0")
                if not q.options:
                    problems.append(f"question {q.id}: single-choice without options")
                    continue
                scores = [o.score for o in q.options]
                if max(scores) != q.weight:
                    problems.append(
                        f"question {q.id}: best option scores {max(scores)}, "
                        f"expected weight {q.weight}"
                    )
                # published scales do not always bottom out at zero (updates
                # installed on site still scores 2), so only the range is hard
                if min(scores) < 0:
                    problems.append(f"question {q.id}: option scores must be >= 0")
                keys = [o.key for o in q.options]
                if len(set(keys)) != len(keys):
                    problems.append(f"question {q.id}: duplicate option keys")
        return problems


AnswerValue = Union[str, Fraction]


@dataclass(frozen=True)
class AnswerSet:
    company: str
    category: CompanyCategory
    answers: dict[int, AnswerValue] = field(default_factory=dict)

    def unanswered_ids(self, schema: QuestionnaireSchema) -> tuple[int, ...]:
        return tuple(qid for qid in schema.ids() if qid not in self.answers)


@dataclass(frozen=True)
class MaturityReport:
    company: str
    company_category: CompanyCategory
    per_question_normalized: dict[int, Fraction | None]
    m_mod: Fraction | None
    m_test: Fraction | None
    m_op: Fraction | None
    overall: Fraction | None
    category_points: dict[Category, tuple[Fraction, Fraction]]
    complexity_measure: Fraction | None = None
    unanswered: tuple[int, ...] = ()


# --- modularity assessment --------------------------------------------------


class Grade(Enum):
    MINUS = "-"
    PLUS = "+"
    PLUS_PLUS = "++"

    @property
    def points(self) -> int:
        return {"-": 0, "+": 1, "++": 2}[self.value]


class GovernanceLevel(Enum):
    L0 = "L0"
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"

    @property
    def mark(self) -> str:
        return "-" if self is GovernanceLevel.L0 else "+"


class StructureStyle(Enum):
    HIERARCHICAL_CALLS = "hierarchical_calls"
    FLAT_GLOBAL = "flat_global"
    MIXED = "mixed"


class ArchLevel(Enum):
    PLANT = "plant"
    FACILITY = "facility"
    APPLICATION = "application"
    BASIC = "basic"
    ATOMIC_BASIC = "atomic_basic"


MEYER_CRITERIA = ("decomposability", "composability", "understandability", "protection")


@dataclass(frozen=True)
class ModularityAssessment:
    grades: dict[str, Grade]
    governance: GovernanceLevel
    structure_style: StructureStyle
    levels_below_entry: int
    score_sum: int
    coupling_fraction: Fraction = Fraction(0)
    rationale: str = ""


# --- diagnostics -------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    pou: str | None = None
    path: str | None = None
    line: int | None = None
    col: int | None = None

    def render(self) -> str:
        loc = ""
        if self.path:
            loc = self.path
            if self.line is not None:
                loc += f":{self.line}"
                if self.col is not None:
                    loc += f":{self.col}"
            loc += ": "
        subject = f" [{self.pou}]" if self.pou else ""
        return f"{loc}{self.severity}{subject}: {self.message}"


Node = Union[Statement, IfBranch, CaseBranch]


def walk(statements: Sequence[Statement]) -> Iterator[Node]:
    """Every node of the statement trees, pre-order, in source order.

    Besides statements this yields each IF/ELSIF branch and each CASE branch
    ahead of its body, so a condition comes before the statements it guards.
    An explicit stack keeps nesting depth away from Python's recursion limit.
    """
    stack = list(reversed(statements))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Assignment, CallStatement)):
            continue
        if isinstance(node, (IfStatement, CaseStatement)):
            stack.extend(reversed(node.else_body))
            stack.extend(reversed(node.branches))
        else:
            stack.extend(reversed(node.body))


def expressions(node: Node) -> tuple[TokenSeq, ...]:
    """The expressions a node holds directly, in source order."""
    if isinstance(node, Assignment):
        return (node.target, node.value)
    if isinstance(node, CallStatement):
        return (node.args,)
    if isinstance(node, (IfBranch, WhileStatement)):
        return (node.condition,)
    if isinstance(node, CaseStatement):
        return (node.selector,)
    if isinstance(node, ForStatement):
        return (node.start, node.stop, node.step)
    return ()


def dotted_paths(seq: TokenSeq) -> Iterator[tuple[int, int, bool]]:
    """Each dotted identifier path ``a.b.c`` in ``seq`` as (start, end, is_call).

    ``start`` and ``end`` index the store: ``seq.store.texts[start:end:2]``
    are the path's identifiers; is_call tells whether '(' follows the path.
    """
    codes = seq.store.codes
    i, n = seq.start, seq.end
    while i < n:
        if codes[i] != IDENT:
            i += 1
            continue
        j = i + 1
        while j + 1 < n and codes[j] == "." and codes[j + 1] == IDENT:
            j += 2
        yield i, j, j < n and codes[j] == "("
        i = j


class BodyFacts(NamedTuple):
    calls: list[tuple[str, int, int]]
    reads: set[str]
    writes: set[str]
    complexity: int


def body_facts(statements: Sequence[Statement]) -> BodyFacts:
    """Calls, read and written names, and complexity of a statement tree, in one walk.

    * ``calls``: each syntactic call occurrence as (callee text, line, col),
      in source order: call statements and every dotted path followed by
      '(' inside an expression.
    * ``writes``: the base identifier of each assignment target, and each
      FOR loop counter.
    * ``reads``: the base of every other dotted path that is not called; the
      index expressions inside an assignment target are reads.
    * ``complexity``: statements + decision points.  Every assignment and
      call statement counts once, and so does every IF, every ELSIF, every
      CASE branch label and every loop header.  The metric is a deliberately
      simple proxy that grows with both size and branching; swap it out here
      if a better one exists for your codebase.

    Names keep their spelling; resolving them against declarations is the
    caller's job.
    """
    calls: list[tuple[str, int, int]] = []
    reads: set[str] = set()
    writes: set[str] = set()
    complexity = 0
    for node in walk(statements):
        if isinstance(node, CaseBranch):
            complexity += len(node.labels)
        elif not isinstance(node, (IfStatement, CaseStatement)):
            complexity += 1  # a simple statement, an IF/ELSIF branch or a loop header
        is_assignment = isinstance(node, Assignment)
        if isinstance(node, CallStatement):
            calls.append((node.callee, node.line, node.col))
        elif is_assignment:
            target = node.target
            if target and target.store.codes[target.start] == IDENT:
                writes.add(target.store.texts[target.start])
        elif isinstance(node, ForStatement):
            writes.add(node.var)
        for k, seq in enumerate(expressions(node)):
            texts = seq.store.texts
            for start, end, is_call in dotted_paths(seq):
                if is_call:
                    calls.append((".".join(texts[start:end:2]), *seq.store.position(start)))
                # the target's base is the write; its index expressions are reads
                elif not (is_assignment and k == 0 and start == seq.start):
                    reads.add(texts[start])
    return BodyFacts(calls, reads, writes, complexity)


def validate_project(project: Project) -> list[Diagnostic]:
    """Check what the author of a Project controls; an empty list iff it holds.

    The checks: POU names are unique in any case, each task enters a POU that
    is not a function, and a POU has a return type iff it is a function.
    Duplicate declarations are reported by the parser, where it reads them.
    How call sites were resolved is not re-checked here: that would only
    restate ``project.extract_call_sites``, and ``tests/oracles.py`` checks it
    independently.
    """
    diags: list[Diagnostic] = []

    by_lower: dict[str, Pou] = {}
    for pou in project.pous:
        key = pou.name.lower()
        if key in by_lower:
            diags.append(
                Diagnostic(
                    "error",
                    f"duplicate POU name: {by_lower[key].name!r} and {pou.name!r}",
                    pou=pou.name,
                )
            )
        else:
            by_lower[key] = pou
        if (pou.kind is PouKind.FUNCTION) != (pou.return_type is not None):
            diags.append(
                Diagnostic(
                    "error",
                    "return type present iff the POU is a function",
                    pou=pou.name,
                )
            )

    for task in project.tasks:
        entry = by_lower.get(task.entry.lower())
        if entry is None:
            diags.append(
                Diagnostic(
                    "error",
                    f"unresolved task entry: {task.entry!r} names no POU",
                    pou=task.entry,
                    path=task.path,
                    line=task.line,
                )
            )
        elif entry.kind is PouKind.FUNCTION:
            diags.append(
                Diagnostic(
                    "error",
                    f"task entry {task.entry!r} is a function; "
                    "tasks must enter a program or function block",
                    pou=entry.name,
                    path=task.path,
                    line=task.line,
                )
            )
    return diags


# --- JSON input shapes ------------------------------------------------------------


SCALAR = "a string or number"  # a shape: a bool is never a number
_ABSENT = object()
_EXPECTED = {dict: "an object", list: "a list", str: "a string", SCALAR: SCALAR}


def check_json(value, shape, path: str | Path, key: str = "") -> None:
    """Raise a ValueError naming the file ``path`` and the key path where
    ``value``, found at ``key``, first differs from ``shape``: ``str``,
    ``SCALAR``, ``[item]`` (a list of ``item``) or ``{name: shape}`` (an
    object; a listed key is required unless its name ends in ``?``, and
    ``"*"`` checks every value)."""
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    ok = (isinstance(value, (str, int, float, Fraction)) and not isinstance(value, bool)
          if kind is SCALAR else isinstance(value, kind))
    if not ok:
        got = "nothing" if value is _ABSENT else type(value).__name__
        where = f"key {key!r}" if key else "top level"
        raise ValueError(f"{path}: {where}: expected {_EXPECTED[kind]}, got {got}")
    if kind is list:
        for index, item in enumerate(value):
            check_json(item, shape[0], path, f"{key}[{index}]")
    elif kind is dict:
        for name, item_shape in shape.items():
            if name == "*":
                items = value.items()
            elif name.endswith("?"):
                name = name[:-1]
                items = [(name, value[name])] if name in value else ()
            else:
                items = [(name, value.get(name, _ABSENT))]
            for child, item in items:
                check_json(item, item_shape, path, f"{key}.{child}" if key else child)


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file ``path``; bytes that are not UTF-8 raise a
    ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_json(path: str | Path, shape, **options):
    """The JSON document in the file ``path``, checked against ``shape``.
    Bytes that are not UTF-8, text that is not JSON (``NaN`` included) or
    nests too deep raise a ValueError naming the file, as a wrong shape does.
    """
    text = read_text(path)
    try:
        value = json.loads(text, parse_constant=_no_constant, **options)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    check_json(value, shape, path)
    return value
