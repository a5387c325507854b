"""Scoring engine: per-question scores, category maturities, cohort statistics.

A maturity is gained points over reachable points for one category; the
overall value re-weights the categories by their reachable points rather
than averaging the three ratios.  All arithmetic is exact; only the
correlation coefficient drops to float because of the square root.

An answer set is scored in one pass (``_score_pass``) that validates it,
scores each answer once and sums each category in integer steps of
``schema.denominator``.  A ``Fraction`` is made only for a value that is
reported, and once per schema (``schema.step_ratios``).  Cohort means sum
numerators per denominator, so each mean is the only Fraction it makes.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    RATIO_PLACES,
    SCALAR,
    SCORED_CATEGORIES,
    format_ratio,
    load_json,
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


def numeric_notes(schema: QuestionnaireSchema, answers: AnswerSet) -> list[str]:
    """Ingestion log: how descriptive values like '2-6' were read as numbers."""
    return _score_pass(schema, answers).notes


def score_answer(
    schema: QuestionnaireSchema, qid: int, answer: AnswerValue
) -> tuple[Fraction, Fraction]:
    """Raw score (0..weight) and its 0..5 normalization for one answer."""
    return _option_score(schema, qid, answer)[:2]


def _option_score(
    schema: QuestionnaireSchema, qid: int, answer: AnswerValue
) -> tuple[Fraction, Fraction, int]:
    """``score_answer`` and the raw score in steps of ``schema.denominator``.

    Each (question, answer text) pair is looked up once per schema and kept
    in ``schema.answer_scores``: a single-choice question has a few options,
    so a cohort gives the same few answers to it over and over."""
    found = schema.answer_scores.get((qid, answer)) if isinstance(answer, str) else None
    if found is None:
        question = schema.question(qid)
        if question.mode is not AnswerMode.SINGLE_CHOICE:
            raise ScoringError(f"question {qid} is not scored ({question.mode.value})")
        if not isinstance(answer, str):
            # not a string, so a number from the JSON: print it as a number
            raise ScoringError(f"question {qid}: expected an option key, got {answer}")
        score = find_option(question, answer).score
        steps = score.numerator * (schema.denominator // score.denominator)
        found = schema.answer_scores[qid, answer] = (
            score, score / question.weight * 5, steps
        )
    return found


_RANGE_RE = re.compile(r"^\s*(-?\d+(?:\.\d+)?)\s*-\s*(-?\d+(?:\.\d+)?)\s*$")
_BOUND_RE = re.compile(r"^\s*([<>])\s*(-?\d+(?:\.\d+)?)\s*$")


def _decimal(text: str) -> Fraction | int:
    """A number the range and bound patterns matched; integers stay int."""
    return Fraction(text) if "." in text else int(text)


def parse_numeric_answer(value: AnswerValue) -> tuple[Fraction, str | None]:
    """Numbers read as Fractions; ranges like '2-6' resolve to their midpoint."""
    if isinstance(value, Fraction):
        return value, None
    if isinstance(value, int):
        return Fraction(value), None
    text = str(value).strip()
    match = _RANGE_RE.match(text)
    if match:
        mid = Fraction(_decimal(match.group(1)) + _decimal(match.group(2)), 2)
        return mid, f"range {text!r} resolved to midpoint {mid}"
    match = _BOUND_RE.match(text)
    if match:
        bound = Fraction(_decimal(match.group(2)))
        return bound, f"bound {text!r} resolved to {bound}"
    try:
        return Fraction(text), None
    except (ValueError, ZeroDivisionError):
        raise ScoringError(f"cannot read {value!r} as a number") from None


# --- one scoring pass per answer set ------------------------------------------


class _Scored(NamedTuple):
    """What one pass over an answer set finds (see ``_score_pass``)."""

    problems: list[str]  # invariant violations, by question id
    notes: list[str]  # how descriptive numeric answers were read
    normalized: dict[int, Fraction | None]  # 0..5 per scored question
    gained: list[int]  # per scored category, in steps of schema.denominator
    reachable: list[int]  # likewise, over the answered questions only
    numbers: dict[int, Fraction | int]  # each numeric answer, read once


def _score_pass(schema: QuestionnaireSchema, answers: AnswerSet) -> _Scored:
    """Validate and score ``answers`` in one walk over them, in id order.

    Category sums are integer counts of ``schema.denominator`` steps; the
    normalized scores are the memo's shared Fractions, so the pass makes a
    Fraction only for a numeric answer that is not a number yet."""
    memo = schema.answer_scores
    weight_steps = schema.weight_steps
    problems: list[str] = []
    notes: list[str] = []
    normalized: dict[int, Fraction | None] = dict.fromkeys(schema.scored_ids())
    gained = [0, 0, 0]
    reachable = [0, 0, 0]
    numbers: dict[int, Fraction | int] = {}
    given = answers.answers
    for qid in sorted(given):
        value = given[qid]
        weight = weight_steps.get(qid)
        if weight is None:  # not scored, maybe not even known
            try:
                mode = schema.question(qid).mode
            except KeyError:
                problems.append(f"answer for unknown question {qid}")
                continue
            if mode is AnswerMode.NUMERIC:
                if isinstance(value, (int, Fraction)):
                    numbers[qid] = value
                    continue
                try:
                    numbers[qid], note = parse_numeric_answer(value)
                except ScoringError as exc:
                    problems.append(f"question {qid}: {exc}")
                    continue
                if note:
                    notes.append(f"question {qid}: {note}")
            if mode is not AnswerMode.SINGLE_CHOICE:
                continue
        # the usual answers to a single-choice question are in the memo
        found = memo.get((qid, value)) if type(value) is str else None
        if found is None:
            try:
                found = _option_score(schema, qid, value)
            except ScoringError as exc:
                problems.append(str(exc))
                continue
        if weight is not None:
            slot, steps = weight
            normalized[qid] = found[1]
            gained[slot] += found[2]
            reachable[slot] += steps
    return _Scored(problems, notes, normalized, gained, reachable, numbers)


def _checked_pass(schema: QuestionnaireSchema, answers: AnswerSet) -> _Scored:
    """``_score_pass``; an answer set with a problem raises ScoringError."""
    scored = _score_pass(schema, answers)
    if scored.problems:
        raise ScoringError("; ".join(scored.problems))
    return scored


def _ratio(schema: QuestionnaireSchema, numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)`` through ``schema.step_ratios``: a
    cohort's reports repeat a few hundred such values thousands of times."""
    key = numerator, denominator
    found = schema.step_ratios.get(key)
    if found is None:
        found = schema.step_ratios[key] = Fraction(numerator, denominator)
    return found


# --- category / overall maturity ----------------------------------------------


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
    """Normalized 0..5 score per scored question; None where unanswered.

    Raises ScoringError when the answers violate the schema, as
    ``build_report`` does."""
    return _checked_pass(schema, answers).normalized


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


# the complexity's inputs when question 14 is unanswered
_COUNTS = ((9, "CPU"), (7, "programmer"))


def build_report(
    schema: QuestionnaireSchema, answers: AnswerSet, strict: bool = False
) -> MaturityReport:
    """Score one answer set into a full maturity report.

    A category's maturity is its gained over its reachable points.  Lenient
    mode (default) counts only answered questions as reachable; strict mode
    counts every scored question of the category.

    Raises ScoringError when the answers violate the schema (unknown ids or
    option keys, numeric answers that are no numbers) or when the complexity
    comes from a negative CPU or programmer count; reports are only built
    from valid input.
    """
    scored = _checked_pass(schema, answers)
    gained = scored.gained
    reachable = scored.reachable
    if strict:
        reachable = [0, 0, 0]
        for slot, steps in schema.weight_steps.values():
            reachable[slot] += steps
    denominator = schema.denominator
    maturities = [_ratio(schema, g, r) if r else None for g, r in zip(gained, reachable)]
    total = sum(reachable)

    numbers = scored.numbers
    complexity = numbers.get(14)
    if complexity is not None:
        complexity = Fraction(complexity)
    elif all(qid in numbers for qid, _ in _COUNTS):
        for qid, what in _COUNTS:
            if numbers[qid] < 0:
                raise ScoringError(
                    f"question {qid}: {what} count {numbers[qid]} must be non-negative"
                )
        complexity = complexity_measure(*(numbers[qid] for qid, _ in _COUNTS))

    return MaturityReport(
        company=answers.company,
        company_category=answers.category,
        per_question_normalized=scored.normalized,
        m_mod=maturities[0],
        m_test=maturities[1],
        m_op=maturities[2],
        overall=_ratio(schema, sum(gained), total) if total else None,
        category_points={
            cat: (_ratio(schema, g, denominator), _ratio(schema, r, denominator))
            for cat, g, r in zip(SCORED_CATEGORIES, gained, reachable)
        },
        complexity_measure=complexity,
        unanswered=answers.unanswered_ids(schema),
    )


# --- correlation ---------------------------------------------------------------


class Significance(Enum):
    NONE = "none"
    P05 = "p<0.05"
    P01 = "p<0.01"


class CorrelationResult(NamedTuple):
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


class CohortStats(NamedTuple):
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

    question_means: dict[int, Fraction | None] = {}
    question_counts: dict[int, int] = {}
    for qid in dict.fromkeys(q for r in cohort for q in r.per_question_normalized):
        question_means[qid], question_counts[qid] = _mean(
            r.per_question_normalized.get(qid) for r in cohort
        )
    category_means = {
        Category.MOD: _mean(r.m_mod for r in cohort)[0],
        Category.TEST: _mean(r.m_test for r in cohort)[0],
        Category.OP: _mean(r.m_op for r in cohort)[0],
    }
    return CohortStats(question_means, question_counts, category_means, len(cohort))


def _mean(values: Iterable[Fraction | None]) -> tuple[Fraction | None, int]:
    """The mean of the values that are not None, and their count.

    Numerators are summed per denominator, and a cohort's values have few
    denominators, so the mean is the only Fraction made."""
    sums: dict[int, int] = {}
    count = 0
    for value in values:
        if value is not None:
            denominator = value.denominator
            sums[denominator] = sums.get(denominator, 0) + value.numerator
            count += 1
    if not count:
        return None, 0
    common = math.lcm(*sums)
    total = sum(numerator * (common // d) for d, numerator in sums.items())
    return Fraction(total, common * count), count


# --- schema / answers file formats ----------------------------------------------


def _to_fraction(value) -> Fraction:
    # a float decoded without parse_float=Fraction reads as its shortest decimal
    return Fraction(str(value) if isinstance(value, float) else value)


SCHEMA_SHAPE = {"questions": [{
    "id": SCALAR, "text": str, "category": str, "weight?": SCALAR, "mode?": str,
    "options?": [{"key": str, "label?": str, "score": SCALAR}],
}]}


def schema_from_dict(data: dict) -> QuestionnaireSchema:
    """A schema from decoded JSON of ``SCHEMA_SHAPE``."""
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
    data = load_json(path, SCHEMA_SHAPE, parse_float=Fraction)
    try:
        return schema_from_dict(data)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except ScoringError as exc:
        raise ScoringError(f"{path}: {exc}") from None


def default_schema() -> QuestionnaireSchema:
    """The built-in questionnaire: 45 questions in four groups, read from the
    package's ``default_schema.json`` through the same checks as a schema file.

    Only the four start-up/operation/maintenance questions (36-39) come with
    a published fixed scale; every other scored question carries evenly
    spaced scores from 5 (best) down to 0 (worst) over invented but plausible
    answer levels.  Each call reads the file again, so callers never share
    a schema's memos."""
    return load_schema_file(Path(__file__).with_name("default_schema.json"))


ANSWERS_SHAPE = {"company": str, "category": str, "answers?": {"*": SCALAR}}


def answers_from_dict(data: dict) -> AnswerSet:
    """An AnswerSet from decoded JSON of ``ANSWERS_SHAPE``."""
    return AnswerSet(
        company=data["company"],
        category=CompanyCategory(data["category"].lower()),
        answers={int(key): value for key, value in data.get("answers", {}).items()},
    )


def load_answers_file(path: str | Path) -> AnswerSet:
    """An answer file; a JSON integer stays an ``int`` and a JSON float reads
    as an exact Fraction, so every number is exact."""
    data = load_json(path, ANSWERS_SHAPE, parse_float=Fraction)
    try:
        return answers_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
