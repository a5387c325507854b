"""Scoring engine: per-question scores, category maturities, cohort statistics.

A maturity is gained points over reachable points for one category; the
overall value re-weights the categories by their reachable points rather
than averaging the three ratios.  All arithmetic is exact (Fraction); only
the correlation coefficient drops to float because of the square root.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import (
    AnswerMode,
    AnswerSet,
    AnswerValue,
    Category,
    CompanyCategory,
    MaturityReport,
    Option,
    Question,
    QuestionnaireSchema,
    SCORED_CATEGORIES,
)

INTERACTION_IDS = (23, 24, 26, 27)


class ScoringError(Exception):
    pass


class DegenerateSampleError(Exception):
    """Raised when a correlation is requested on unusable data."""


# --- answer lookup -----------------------------------------------------------


def find_option(question: Question, answer: str) -> Option:
    """Match an option by key (exact, then case-insensitive) or by label."""
    for option in question.options:
        if option.key == answer:
            return option
    lowered = answer.lower()
    for option in question.options:
        if option.key.lower() == lowered:
            return option
    for option in question.options:
        if option.label.lower() == lowered:
            return option
    valid = ", ".join(o.key for o in question.options)
    raise ScoringError(
        f"question {question.id}: unknown option {answer!r} (valid keys: {valid})"
    )


def validate_answers(schema: QuestionnaireSchema, answers: AnswerSet) -> list[str]:
    """Check the answer-set invariants: known ids, known option keys."""
    problems: list[str] = []
    known = set(schema.ids())
    for qid, value in sorted(answers.answers.items()):
        if qid not in known:
            problems.append(f"answer for unknown question {qid}")
            continue
        question = schema.question(qid)
        if question.mode is AnswerMode.SINGLE_CHOICE:
            if not isinstance(value, str):
                problems.append(f"question {qid}: expected an option key, got {value!r}")
                continue
            try:
                find_option(question, value)
            except ScoringError as exc:
                problems.append(str(exc))
        elif question.mode is AnswerMode.NUMERIC:
            try:
                parse_numeric_answer(value)
            except ScoringError as exc:
                problems.append(str(exc))
    return problems


def numeric_notes(schema: QuestionnaireSchema, answers: AnswerSet) -> list[str]:
    """Ingestion log: how descriptive values like '2-6' were read as numbers."""
    notes: list[str] = []
    for qid, value in sorted(answers.answers.items()):
        try:
            question = schema.question(qid)
        except KeyError:
            continue
        if question.mode is not AnswerMode.NUMERIC:
            continue
        try:
            _, note = parse_numeric_answer(value)
        except ScoringError:
            continue
        if note:
            notes.append(f"question {qid}: {note}")
    return notes


def score_answer(
    schema: QuestionnaireSchema, qid: int, answer: AnswerValue
) -> tuple[Fraction, Fraction]:
    """Raw score (0..weight) and its 0..5 normalization for one answer."""
    question = schema.question(qid)
    if question.mode is not AnswerMode.SINGLE_CHOICE:
        raise ScoringError(f"question {qid} is not scored ({question.mode.value})")
    if not isinstance(answer, str):
        raise ScoringError(f"question {qid}: expected an option key, got {answer!r}")
    score = find_option(question, answer).score
    return score, score / question.weight * 5


_RANGE_RE = re.compile(r"^\s*(-?\d+(?:\.\d+)?)\s*-\s*(-?\d+(?:\.\d+)?)\s*$")
_BOUND_RE = re.compile(r"^\s*([<>])\s*(-?\d+(?:\.\d+)?)\s*$")


def parse_numeric_answer(value: AnswerValue) -> tuple[Fraction, str | None]:
    """Numbers pass through; ranges like '2-6' resolve to their midpoint."""
    if isinstance(value, Fraction):
        return value, None
    if isinstance(value, int):
        return Fraction(value), None
    text = str(value).strip()
    match = _RANGE_RE.match(text)
    if match:
        lo, hi = Fraction(match.group(1)), Fraction(match.group(2))
        mid = (lo + hi) / 2
        return mid, f"range {text!r} resolved to midpoint {mid}"
    match = _BOUND_RE.match(text)
    if match:
        bound = Fraction(match.group(2))
        return bound, f"bound {text!r} resolved to {bound}"
    try:
        return Fraction(text), None
    except ValueError:
        raise ScoringError(f"cannot read {value!r} as a number") from None


# --- category / overall maturity ----------------------------------------------


@dataclass(frozen=True)
class CategoryScore:
    category: Category
    maturity: Fraction | None
    gained: Fraction
    reachable: Fraction
    answered: tuple[int, ...]
    unanswered: tuple[int, ...]


def category_maturity(
    schema: QuestionnaireSchema,
    answers: AnswerSet,
    category: Category,
    strict: bool = False,
) -> CategoryScore:
    """Gained over reachable points for one maturity category.

    Lenient mode (default) counts only answered questions in the denominator;
    strict mode counts every question of the category.
    """
    if category not in SCORED_CATEGORIES:
        raise ValueError(f"{category} is not a scored category")
    gained = Fraction(0)
    reachable = Fraction(0)
    answered: list[int] = []
    unanswered: list[int] = []
    for qid in schema.scored_ids(category):
        question = schema.question(qid)
        raw = answers.answers.get(qid)
        if raw is None:
            unanswered.append(qid)
            if strict:
                reachable += question.weight
            continue
        score, _ = score_answer(schema, qid, raw)
        gained += score
        reachable += question.weight
        answered.append(qid)
    maturity = gained / reachable if reachable else None
    return CategoryScore(
        category, maturity, gained, reachable, tuple(answered), tuple(unanswered)
    )


def overall_maturity(
    parts: Iterable[tuple[Fraction, Fraction]]
) -> Fraction | None:
    """Sum of gained over sum of reachable across the scored categories."""
    gained = Fraction(0)
    reachable = Fraction(0)
    for g, r in parts:
        gained += g
        reachable += r
    return gained / reachable if reachable else None


def complexity_measure(cpus: Fraction | int, programmers: Fraction | int) -> Fraction:
    """Half the sum of CPU count and programmer count."""
    if cpus < 0 or programmers < 0:
        raise ValueError("cpus and programmers must be non-negative")
    return Fraction(1, 2) * (Fraction(cpus) + Fraction(programmers))


def normalized_answers(
    schema: QuestionnaireSchema, answers: AnswerSet
) -> dict[int, Fraction | None]:
    """Normalized 0..5 score per scored question; None where unanswered."""
    out: dict[int, Fraction | None] = {}
    for qid in schema.scored_ids():
        raw = answers.answers.get(qid)
        if raw is None:
            out[qid] = None
        else:
            out[qid] = score_answer(schema, qid, raw)[1]
    return out


def interaction_variable(
    normalized: Mapping[int, Fraction | None],
    ids: Sequence[int] = INTERACTION_IDS,
) -> Fraction | None:
    """Mean of the library-competence scores; missing answers shrink the divisor."""
    values = [normalized.get(qid) for qid in ids]
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present, Fraction(0)) / len(present)


def build_report(
    schema: QuestionnaireSchema, answers: AnswerSet, strict: bool = False
) -> MaturityReport:
    """Score one answer set into a full maturity report.

    Raises ScoringError when the answers violate the schema (unknown ids or
    option keys); reports are only built from valid input.
    """
    problems = validate_answers(schema, answers)
    if problems:
        raise ScoringError("; ".join(problems))
    per_question = normalized_answers(schema, answers)
    scores = {
        cat: category_maturity(schema, answers, cat, strict=strict)
        for cat in SCORED_CATEGORIES
    }
    overall = overall_maturity(
        (s.gained, s.reachable) for s in scores.values()
    )

    complexity: Fraction | None = None
    raw14 = answers.answers.get(14)
    if raw14 is not None:
        complexity = parse_numeric_answer(raw14)[0]
    else:
        cpus = answers.answers.get(9)
        programmers = answers.answers.get(7)
        if cpus is not None and programmers is not None:
            complexity = complexity_measure(
                parse_numeric_answer(cpus)[0], parse_numeric_answer(programmers)[0]
            )

    return MaturityReport(
        company=answers.company,
        company_category=answers.category,
        per_question_normalized=per_question,
        m_mod=scores[Category.MOD].maturity,
        m_test=scores[Category.TEST].maturity,
        m_op=scores[Category.OP].maturity,
        overall=overall,
        category_points={
            cat: (s.gained, s.reachable) for cat, s in scores.items()
        },
        complexity_measure=complexity,
        unanswered=answers.unanswered_ids(schema),
    )


# --- correlation ---------------------------------------------------------------


class Significance(Enum):
    NONE = "none"
    P05 = "p<0.05"
    P01 = "p<0.01"


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int
    significance: Significance


# two-tailed critical values of Student's t for alpha 0.05 / 0.01, df 1..30;
# frozen here and cross-checked against a t-distribution oracle in the tests
T_CRITICAL: dict[int, tuple[float, float]] = {
    1: (12.7062, 63.6567), 2: (4.3027, 9.9248), 3: (3.1824, 5.8409),
    4: (2.7764, 4.6041), 5: (2.5706, 4.0321), 6: (2.4469, 3.7074),
    7: (2.3646, 3.4995), 8: (2.3060, 3.3554), 9: (2.2622, 3.2498),
    10: (2.2281, 3.1693), 11: (2.2010, 3.1058), 12: (2.1788, 3.0545),
    13: (2.1604, 3.0123), 14: (2.1448, 2.9768), 15: (2.1314, 2.9467),
    16: (2.1199, 2.9208), 17: (2.1098, 2.8982), 18: (2.1009, 2.8784),
    19: (2.0930, 2.8609), 20: (2.0860, 2.8453), 21: (2.0796, 2.8314),
    22: (2.0739, 2.8188), 23: (2.0687, 2.8073), 24: (2.0639, 2.7969),
    25: (2.0595, 2.7874), 26: (2.0555, 2.7787), 27: (2.0518, 2.7707),
    28: (2.0484, 2.7633), 29: (2.0452, 2.7564), 30: (2.0423, 2.7500),
}


def _t_critical(df: int) -> tuple[float, float]:
    # beyond the table, the df=30 values are a conservative stand-in
    return T_CRITICAL[min(df, 30)]


def pearson(
    xs: Sequence[Fraction | float | None], ys: Sequence[Fraction | float | None]
) -> CorrelationResult:
    """Sample correlation over complete pairs, with a two-tailed t significance.

    Pairs containing a missing value are skipped.  Fewer than two complete
    pairs or a constant series raise DegenerateSampleError.
    """
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    pairs = [
        (float(x), float(y)) for x, y in zip(xs, ys) if x is not None and y is not None
    ]
    n = len(pairs)
    if n < 2:
        raise DegenerateSampleError("degenerate sample: fewer than 2 complete pairs")
    mean_x = sum(p[0] for p in pairs) / n
    mean_y = sum(p[1] for p in pairs) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    var_x = sum((x - mean_x) ** 2 for x, _ in pairs)
    var_y = sum((y - mean_y) ** 2 for _, y in pairs)
    if var_x == 0 or var_y == 0:
        raise DegenerateSampleError("degenerate sample: zero variance")
    r = cov / math.sqrt(var_x * var_y)
    r = max(-1.0, min(1.0, r))

    significance = Significance.NONE
    if n >= 4:
        if abs(r) >= 1.0:
            significance = Significance.P01
        else:
            t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
            t05, t01 = _t_critical(n - 2)
            if t >= t01:
                significance = Significance.P01
            elif t >= t05:
                significance = Significance.P05
    return CorrelationResult(r, n, significance)


# --- cohort --------------------------------------------------------------------


@dataclass(frozen=True)
class CohortStats:
    question_means: dict[int, Fraction | None]
    question_counts: dict[int, int]
    category_means: dict[Category, Fraction | None]
    company_count: int


def cohort_stats(
    reports: Sequence[MaturityReport],
    category: CompanyCategory | None = None,
) -> CohortStats:
    """Per-question and per-category means over a (filtered) company cohort."""
    cohort = [r for r in reports if category is None or r.company_category == category]
    if not cohort:
        raise ValueError("empty cohort")

    question_values: dict[int, list[Fraction]] = {}
    for report in cohort:
        for qid, value in report.per_question_normalized.items():
            values = question_values.setdefault(qid, [])
            if value is not None:
                values.append(value)

    question_means = {
        qid: (sum(values, Fraction(0)) / len(values) if values else None)
        for qid, values in question_values.items()
    }
    question_counts = {qid: len(values) for qid, values in question_values.items()}

    category_values = {
        Category.MOD: [r.m_mod for r in cohort],
        Category.TEST: [r.m_test for r in cohort],
        Category.OP: [r.m_op for r in cohort],
    }
    category_means: dict[Category, Fraction | None] = {}
    for cat, values in category_values.items():
        maturities = [m for m in values if m is not None]
        category_means[cat] = (
            sum(maturities, Fraction(0)) / len(maturities) if maturities else None
        )
    return CohortStats(question_means, question_counts, category_means, len(cohort))


# --- schema / answers file formats ----------------------------------------------


def _fraction_to_json(value: Fraction):
    if value.denominator == 1:
        return value.numerator
    if 10**6 % value.denominator == 0:
        return float(value)
    return str(value)


def schema_to_dict(schema: QuestionnaireSchema) -> dict:
    return {
        "questions": [
            {
                "id": q.id,
                "text": q.text,
                "category": q.category.value,
                "weight": _fraction_to_json(q.weight),
                "mode": q.mode.value,
                "options": [
                    {"key": o.key, "label": o.label, "score": _fraction_to_json(o.score)}
                    for o in q.options
                ],
            }
            for q in schema.questions
        ]
    }


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise ScoringError(f"cannot read {value!r} as a score")


def schema_from_dict(data: dict) -> QuestionnaireSchema:
    questions = []
    for q in data["questions"]:
        options = tuple(
            Option(o["key"], o.get("label", o["key"]), _to_fraction(o["score"]))
            for o in q.get("options", [])
        )
        questions.append(
            Question(
                id=int(q["id"]),
                text=q["text"],
                category=Category(q["category"]),
                weight=_to_fraction(q.get("weight", 5)),
                options=options,
                mode=AnswerMode(q.get("mode", "single-choice")),
            )
        )
    schema = QuestionnaireSchema(tuple(questions))
    problems = schema.validate()
    if problems:
        raise ScoringError("invalid schema: " + "; ".join(problems))
    return schema


def load_schema_file(path: str | Path) -> QuestionnaireSchema:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle, parse_float=Fraction)
    return schema_from_dict(data)


def answers_from_dict(data: dict) -> AnswerSet:
    """An AnswerSet from decoded JSON; ValueError names the key of a wrong shape."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object at the top level, got {type(data).__name__}")
    raw_answers = data.get("answers", {})
    if not isinstance(raw_answers, dict):
        raise ValueError(f"key 'answers': expected an object, got {type(raw_answers).__name__}")
    company = data.get("company")
    if not isinstance(company, str):
        raise ValueError(f"key 'company': expected a string, got {type(company).__name__}")
    category = data.get("category")
    if not isinstance(category, str):
        raise ValueError(f"key 'category': expected a string, got {type(category).__name__}")
    answers: dict[int, AnswerValue] = {}
    for key, value in raw_answers.items():
        qid = int(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            answers[qid] = _to_fraction(value)
        else:
            answers[qid] = value
    return AnswerSet(
        company=company,
        category=CompanyCategory(category.lower()),
        answers=answers,
    )


def load_answers_file(path: str | Path) -> AnswerSet:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle, parse_float=Fraction)
    try:
        return answers_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_ratio(value: Fraction | None, places: int = 4) -> str:
    """Fixed-point rendering with exact half-up rounding; '' for missing."""
    if value is None:
        return ""
    scale = 10**places
    scaled = value * scale
    quotient = (
        (scaled.numerator * 2 + scaled.denominator)
        // (2 * scaled.denominator)
        if scaled >= 0
        else -((-scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator))
    )
    sign = "-" if quotient < 0 else ""
    quotient = abs(quotient)
    whole, frac = divmod(quotient, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def report_to_dict(
    report: MaturityReport,
    answers: AnswerSet | None = None,
    schema: QuestionnaireSchema | None = None,
) -> dict:
    data = {
        "company": report.company,
        "category": report.company_category.value,
        "m_mod": format_ratio(report.m_mod),
        "m_test": format_ratio(report.m_test),
        "m_op": format_ratio(report.m_op),
        "overall": format_ratio(report.overall),
        "complexity": (
            str(report.complexity_measure)
            if report.complexity_measure is not None
            else ""
        ),
        "per_question_normalized": {
            str(qid): (format_ratio(v) if v is not None else None)
            for qid, v in sorted(report.per_question_normalized.items())
        },
        "category_points": {
            cat.value: {"gained": str(g), "reachable": str(r)}
            for cat, (g, r) in report.category_points.items()
        },
        "unanswered": list(report.unanswered),
    }
    if answers is not None and schema is not None:
        # descriptive questions are never scored but still belong in the report
        data["descriptive_answers"] = {
            str(qid): str(value)
            for qid, value in sorted(answers.answers.items())
            if schema.question(qid).mode is not AnswerMode.SINGLE_CHOICE
        }
    return data
