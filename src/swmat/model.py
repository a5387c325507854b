"""Shared domain model: parsed PLC code, questionnaire data, assessment results.

All records are ``typing.NamedTuple``s: immutable values, and two records
of one type are equal when their fields are.  Scores and maturity ratios
are `fractions.Fraction` throughout so that sums of quarter-point scores
(3.25, 3.75, 1.25) stay exact under addition.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Union


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


# The code of an identifier, a number and a string literal.  A keyword's code
# is its upper-cased text and an operator's its text, so a code tells its
# token's kind: keyword codes are upper-case words, operators hold no letters.
IDENT, NUMBER, STRING = "i", "n", "s"


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

    def locate(self, offset: int) -> tuple[int, int]:
        """The 1-based line and col of a text offset."""
        line_starts = self.line_starts
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def position(self, i: int) -> tuple[int, int]:
        """The 1-based line and col of token ``i``."""
        return self.locate(self.starts[i])


class Memos:
    """The ``cached_property`` memos of a record.

    A record that keeps memos is a class derived from its ``NamedTuple`` of
    fields and from this one, with no ``__slots__`` of its own, so each
    instance has a ``__dict__``.  ``cached_property`` writes a memo straight
    into it; any attribute assignment raises, as on a record without memos.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")


class VarDecl(NamedTuple):
    name: str
    type_name: str
    init: str | None = None


class VarSection(NamedTuple):
    kind: SectionKind
    decls: tuple[VarDecl, ...]
    constant: bool = False


class ActionDef(NamedTuple):
    name: str
    line: int = 0


class CallSite(NamedTuple):
    caller: str
    callee_text: str
    resolution: CallResolution
    # resolved POU for DIRECT_POU, FB type for INSTANCE_OF_FB, action name for
    # LOCAL_ACTION; None for EXTERNAL
    target: str | None
    line: int = 0
    col: int = 0


class LineSpan(NamedTuple):
    start: int
    end: int

    def contains(self, line: int) -> bool:
        return self.start <= line <= self.end


class Pou(NamedTuple):
    name: str
    kind: PouKind
    return_type: str | None = None
    var_sections: tuple[VarSection, ...] = ()
    actions: tuple[ActionDef, ...] = ()
    call_sites: tuple[CallSite, ...] = ()
    global_reads: frozenset[str] = frozenset()
    global_writes: frozenset[str] = frozenset()
    # statements + decision points, and the clone fingerprint, of the body
    # and its actions, as the parser records them (``stparse``)
    complexity: int = 0
    fingerprint: str = ""
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


class GlobalVar(NamedTuple):
    name: str
    type_name: str
    init: str | None = None
    constant: bool = False
    # the line of its name; a hand-built global has none.  Equality and the
    # hash leave it out
    line: int | None = None

    def __eq__(self, other):
        return type(other) is GlobalVar and self[:4] == other[:4]

    def __ne__(self, other):  # tuple's own would compare ``line`` too
        return not self == other

    def __hash__(self):
        return hash(self[:4])


class TaskDef(NamedTuple):
    name: str
    cycle_ms: int
    entry: str
    # where the task was declared; a hand-built task has none.  Equality and
    # the hash leave both out
    path: str | None = None
    line: int | None = None

    def __eq__(self, other):
        return type(other) is TaskDef and self[:3] == other[:3]

    def __ne__(self, other):  # tuple's own would compare ``path`` and ``line`` too
        return not self == other

    def __hash__(self):
        return hash(self[:3])


class SourceRef(NamedTuple):
    path: str
    span: LineSpan


class _ProjectFields(NamedTuple):
    name: str
    pous: tuple[Pou, ...] = ()
    globals: tuple[GlobalVar, ...] = ()
    tasks: tuple[TaskDef, ...] = ()
    source_index: dict[str, SourceRef] | None = None


class Project(_ProjectFields):
    __slots__ = ()

    def __new__(cls, name, pous=(), globals=(), tasks=(), source_index=None):
        # a new dict for each project that is given none
        return super().__new__(
            cls, name, pous, globals, tasks, {} if source_index is None else source_index
        )

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


class Option(NamedTuple):
    key: str
    label: str
    score: Fraction


class Question(NamedTuple):
    id: int
    text: str
    category: Category
    weight: Fraction = Fraction(5)
    options: tuple[Option, ...] = ()
    mode: AnswerMode = AnswerMode.SINGLE_CHOICE


class _QuestionnaireSchemaFields(NamedTuple):
    questions: tuple[Question, ...]


class QuestionnaireSchema(_QuestionnaireSchemaFields, Memos):
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
    def weight_steps(self) -> dict[int, tuple[int, int]]:
        """Each scored question's category, as its index in
        ``SCORED_CATEGORIES``, and its weight in steps of ``denominator``."""
        denominator = self.denominator
        return {
            qid: (slot, weight.numerator * (denominator // weight.denominator))
            for slot, category in enumerate(SCORED_CATEGORIES)
            for qid in self.scored_ids(category)
            for weight in [self.question(qid).weight]
        }

    @cached_property
    def step_ratios(self) -> dict[tuple[int, int], Fraction]:
        """Memo of ``maturity``'s ratios of integer step sums: (numerator,
        denominator) to its Fraction, filled on first use, so the reports
        of a cohort share one object per value."""
        return {}

    @cached_property
    def answer_scores(self) -> dict[tuple[int, str], tuple[Fraction, Fraction, int]]:
        """Memo of ``maturity.score_answer``: (question id, answer text) to the
        option's score, its 0..5 normalization and the score in steps of
        ``denominator``, filled on first use."""
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


AnswerValue = Union[str, int, Fraction]


class _AnswerSetFields(NamedTuple):
    company: str
    category: CompanyCategory
    answers: dict[int, AnswerValue] | None = None


class AnswerSet(_AnswerSetFields):
    __slots__ = ()

    def __new__(cls, company, category, answers=None):
        # a new dict for each answer set that is given none
        return super().__new__(cls, company, category, {} if answers is None else answers)

    def unanswered_ids(self, schema: QuestionnaireSchema) -> tuple[int, ...]:
        return tuple(qid for qid in schema.ids() if qid not in self.answers)


class MaturityReport(NamedTuple):
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


# the digits after the point of every ratio written out
RATIO_PLACES = 4


def format_ratio(value: Fraction | None) -> str:
    """Fixed-point rendering to ``RATIO_PLACES`` digits with exact half-up
    rounding; '' for missing."""
    if value is None:
        return ""
    scale = 10**RATIO_PLACES
    numerator, denominator = value.numerator, value.denominator
    # floor(|value| * scale + 1/2) in integers: halves round away from zero
    quotient = (2 * abs(numerator) * scale + denominator) // (2 * denominator)
    sign = "-" if numerator < 0 and quotient else ""
    whole, frac = divmod(quotient, scale)
    return f"{sign}{whole}.{frac:0{RATIO_PLACES}d}"


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


class ModularityAssessment(NamedTuple):
    grades: dict[str, Grade]
    governance: GovernanceLevel
    structure_style: StructureStyle
    levels_below_entry: int
    score_sum: int
    coupling_fraction: Fraction = Fraction(0)
    rationale: str = ""


# --- diagnostics -------------------------------------------------------------


class Diagnostic(NamedTuple):
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


class BodyFacts(NamedTuple):
    """What a POU's body and actions say, before names are resolved; the
    parser records it in source order, the body's before each action's.

    * ``calls``: each syntactic call occurrence as (callee text, line, col):
      call statements and every dotted path followed by '(' inside an
      expression.
    * ``writes``: the base identifier of each assignment target, and each
      FOR loop counter.
    * ``reads``: the base of every other dotted path that is not called; the
      index expressions inside an assignment target are reads.

    Names keep their spelling, as keys in the order first seen; resolving
    them against declarations is the caller's job.
    """

    calls: list[tuple[str, int, int]]
    reads: dict[str, None]
    writes: dict[str, None]


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
_SCALARS = {str, int, float, Fraction}  # exact types: a bool is not an int here


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
                if item_shape is SCALAR and type(item) in _SCALARS:
                    continue  # the common leaf, passed without a call
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
