"""Shared domain model: parsed PLC code, questionnaire data, assessment results.

All types are immutable value objects with structural equality.  Scores and
maturity ratios are `fractions.Fraction` throughout so that sums of
quarter-point scores (3.25, 3.75, 1.25) stay exact under addition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
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
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    OP = "op"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int = 0
    col: int = 0


TokenSeq = tuple[Token, ...]


@dataclass(frozen=True)
class Assignment:
    # target holds the full lvalue token sequence (base ident, member/index tokens)
    target: TokenSeq
    value: TokenSeq
    line: int
    col: int


@dataclass(frozen=True)
class CallStatement:
    callee: str
    args: TokenSeq
    line: int
    col: int


@dataclass(frozen=True)
class IfBranch:
    condition: TokenSeq
    body: tuple["Statement", ...]


@dataclass(frozen=True)
class IfStatement:
    branches: tuple[IfBranch, ...]
    else_body: tuple["Statement", ...]
    line: int
    col: int


@dataclass(frozen=True)
class CaseBranch:
    labels: tuple[str, ...]
    body: tuple["Statement", ...]


@dataclass(frozen=True)
class CaseStatement:
    selector: TokenSeq
    branches: tuple[CaseBranch, ...]
    else_body: tuple["Statement", ...]
    line: int
    col: int


@dataclass(frozen=True)
class ForStatement:
    var: str
    start: TokenSeq
    stop: TokenSeq
    step: TokenSeq
    body: tuple["Statement", ...]
    line: int
    col: int


@dataclass(frozen=True)
class WhileStatement:
    condition: TokenSeq
    body: tuple["Statement", ...]
    line: int
    col: int


Statement = Union[
    Assignment, CallStatement, IfStatement, CaseStatement, ForStatement, WhileStatement
]


@dataclass(frozen=True)
class VarDecl:
    name: str
    type_name: str
    init: str | None = None


@dataclass(frozen=True)
class VarSection:
    kind: SectionKind
    decls: tuple[VarDecl, ...]
    constant: bool = False


@dataclass(frozen=True)
class ActionDef:
    name: str
    body: tuple[Statement, ...]
    line: int = 0


@dataclass(frozen=True)
class CallSite:
    caller: str
    callee_text: str
    resolution: CallResolution
    # resolved POU for DIRECT_POU, FB type for INSTANCE_OF_FB, action name for
    # LOCAL_ACTION; None for EXTERNAL
    target: str | None
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TaskDef:
    name: str
    cycle_ms: int
    entry: str


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
        return tuple(
            q.id for q in self.questions if category is None or q.category == category
        )

    def scored_ids(self, category: Category | None = None) -> tuple[int, ...]:
        """Ids of single-choice questions that enter a maturity score."""
        return tuple(
            q.id
            for q in self.questions
            if q.mode is AnswerMode.SINGLE_CHOICE
            and q.category in SCORED_CATEGORIES
            and (category is None or q.category == category)
        )

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
    """The expression token sequences a node holds directly, in source order."""
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


def dotted_paths(tokens: TokenSeq) -> Iterator[tuple[int, int, bool]]:
    """Each dotted identifier path ``a.b.c`` as (start, end, is_call).

    ``tokens[start:end:2]`` are the path's identifiers; is_call tells whether
    '(' follows the path.
    """
    ident, op = TokenKind.IDENT, TokenKind.OP  # locals: enum lookups cost per token
    n = len(tokens)
    i = 0
    while i < n:
        if tokens[i].kind is not ident:
            i += 1
            continue
        j = i + 1
        while (
            j + 1 < n
            and tokens[j].kind is op
            and tokens[j].text == "."
            and tokens[j + 1].kind is ident
        ):
            j += 2
        yield i, j, j < n and tokens[j].kind is op and tokens[j].text == "("
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
        elif is_assignment and node.target and node.target[0].kind is TokenKind.IDENT:
            writes.add(node.target[0].text)
        elif isinstance(node, ForStatement):
            writes.add(node.var)
        for k, tokens in enumerate(expressions(node)):
            for start, end, is_call in dotted_paths(tokens):
                if is_call:
                    head = tokens[start]
                    path = ".".join(t.text for t in tokens[start:end:2])
                    calls.append((path, head.line, head.col))
                # the target's base is the write; its index expressions are reads
                elif not (is_assignment and k == 0 and start == 0):
                    reads.add(tokens[start].text)
    return BodyFacts(calls, reads, writes, complexity)


def validate_project(project: Project) -> list[Diagnostic]:
    """Check Project/Pou invariants; returns an empty list iff all hold."""
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

    for task in project.tasks:
        entry = by_lower.get(task.entry.lower())
        if entry is None:
            diags.append(
                Diagnostic(
                    "error",
                    f"unresolved task entry: {task.entry!r} names no POU",
                    pou=task.entry,
                )
            )
        elif entry.kind is PouKind.FUNCTION:
            diags.append(
                Diagnostic(
                    "error",
                    f"task entry {task.entry!r} is a function; "
                    "tasks must enter a program or function block",
                    pou=entry.name,
                )
            )

    fb_names = {p.name.lower() for p in project.pous if p.kind is PouKind.FUNCTION_BLOCK}
    global_names = project.global_names()

    for pou in project.pous:
        if (pou.kind is PouKind.FUNCTION) != (pou.return_type is not None):
            diags.append(
                Diagnostic(
                    "error",
                    "return type present iff the POU is a function",
                    pou=pou.name,
                )
            )
        seen_decls: set[str] = set()
        for section in pou.var_sections:
            for decl in section.decls:
                key = decl.name.lower()
                if key in seen_decls:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"duplicate declaration {decl.name!r}",
                            pou=pou.name,
                        )
                    )
                seen_decls.add(key)

        body_calls = {
            text.lower() for text, _, _ in body_facts(pou.all_statements()).calls
        }
        decls = pou.declared_names()
        for site in pou.call_sites:
            if site.callee_text.lower() not in body_calls:
                diags.append(
                    Diagnostic(
                        "error",
                        f"call site {site.callee_text!r} does not occur in the body",
                        pou=pou.name,
                    )
                )
            if site.resolution is CallResolution.INSTANCE_OF_FB:
                base = site.callee_text.split(".")[0].lower()
                decl = decls.get(base)
                declared_type = decl.type_name.lower() if decl else None
                if declared_type is None:
                    g = global_names.get(base)
                    declared_type = g.type_name.lower() if g else None
                if declared_type is None or declared_type not in fb_names:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"call to {site.callee_text!r} marked as an instance call "
                            "but no matching FB instance is declared",
                            pou=pou.name,
                        )
                    )
    return diags
