from __future__ import annotations

import decimal
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from model_codec import schema_to_dict
from oracles import pearson_reference, reference_cohort, reference_report
from swmat.maturity import (
    DegenerateSampleError,
    ScoringError,
    Significance,
    T_CRITICAL,
    build_report,
    cohort_stats,
    complexity_measure,
    default_schema,
    interaction_variable,
    load_answers_file,
    load_schema_file,
    normalized_answers,
    overall_maturity,
    parse_numeric_answer,
    pearson,
    schema_from_dict,
    score_answer,
    format_ratio,
    RATIO_PLACES,
)
from swmat.model import (
    AnswerMode,
    AnswerSet,
    Category,
    CompanyCategory,
    Option,
    Question,
    QuestionnaireSchema,
)

F = Fraction


def _answers(mapping, company="co", category=CompanyCategory.MACHINE):
    return AnswerSet(company, category, dict(mapping))


OP_BEST = {36: "never", 37: "no-source", 38: "remote-and-on-demand", 39: "very-often"}

TABLE_OP_SCORES = {
    36: [("Never", F(5)), ("Rarely", F("3.25")), ("Sometimes", F("2.5")), ("Very often", F(0))],
    37: [
        ("Customer does not receive the source code", F(5)),
        ("Customer only receives parts of the source code", F("2.5")),
        ("Customer receives the whole source code", F(0)),
    ],
    38: [
        ("Remote maintenance and on demand", F(5)),
        ("Remote maintenance", F(4)),
        ("On site", F(2)),
    ],
    39: [("Very often", F(5)), ("Often", F("3.75")), ("Rarely", F("1.25")), ("Never", F(0))],
}


def test_operation_scale_exact(schema):
    for qid, expected in TABLE_OP_SCORES.items():
        for label, want in expected:
            score, normalized = score_answer(schema, qid, label)
            assert score == want, (qid, label)
            assert normalized == want  # weight 5 makes normalization identity


def test_score_answer_accepts_key_or_label(schema):
    assert score_answer(schema, 36, "never")[0] == 5
    assert score_answer(schema, 36, "Never")[0] == 5
    assert score_answer(schema, 37, "Customer receives the whole source code")[0] == 0


def test_unknown_option_lists_valid_keys(schema):
    with pytest.raises(ScoringError) as info:
        score_answer(schema, 36, "whenever")
    message = str(info.value)
    assert "36" in message and "never" in message and "rarely" in message


def test_op_category_example(schema):
    answers = _answers(
        {36: "never", 37: "whole-source", 38: "remote-and-on-demand", 39: "very-often"}
    )
    report = build_report(schema, answers)
    assert report.category_points[Category.OP] == (15, 20)
    assert report.m_op == F(3, 4)


def test_all_best_options_give_one(schema):
    answers = _answers(OP_BEST)
    assert build_report(schema, answers).m_op == 1


def test_strict_mode_counts_unanswered(schema):
    answers = _answers({36: "never", 37: "no-source", 38: "remote-and-on-demand"})
    lenient = build_report(schema, answers)
    strict = build_report(schema, answers, strict=True)
    assert lenient.m_op == 1
    assert strict.m_op == F(15, 20)
    assert strict.category_points[Category.OP] == (15, 20)
    op_ids = schema.scored_ids(Category.OP)
    assert [qid for qid in strict.unanswered if qid in op_ids] == [39]


def test_unanswered_category_is_missing(schema):
    answers = _answers({})
    report = build_report(schema, answers)
    assert report.m_op is None
    assert report.category_points[Category.OP] == (0, 0)


# --- overall -------------------------------------------------------------------


def _parts(ratios, weights=(80, 25, 20)):
    return [(F(str(r)) * w, F(w)) for r, w in zip(ratios, weights)]


@pytest.mark.parametrize(
    "ratios,expected",
    [
        ((0.86, 0.63, 0.58), 0.77),
        ((0.75, 0.85, 0.95), 0.80),
        ((0.32, 0.36, 0.55), 0.36),
        ((0.36, 0.28, 0.54), 0.37),
    ],
)
def test_overall_reconstruction(ratios, expected):
    overall = overall_maturity(_parts(ratios))
    assert overall is not None
    assert abs(overall - F(str(expected))) <= F(1, 100)


def test_overall_case_a_value():
    overall = overall_maturity(_parts((0.86, 0.63, 0.58)))
    assert overall == F("96.15") / 125


def test_overall_zero():
    assert overall_maturity([(F(0), F(80)), (F(0), F(25)), (F(0), F(20))]) == 0


def test_overall_missing_when_nothing_reachable():
    assert overall_maturity([(F(0), F(0))]) is None


def test_overall_between_min_and_max_category(schema):
    answers = _answers(
        {15: "interdisciplinary-teams", 31: "no", 36: "sometimes", 37: "parts"}
    )
    report = build_report(schema, answers)
    present = [m for m in (report.m_mod, report.m_test, report.m_op) if m is not None]
    assert min(present) <= report.overall <= max(present)


# --- complexity measure -----------------------------------------------------------


def test_complexity_company_14():
    assert complexity_measure(1, 1) == 1


def test_complexity_zero():
    assert complexity_measure(0, 0) == 0


def test_complexity_three_five():
    assert complexity_measure(3, 5) == 4


def test_complexity_rejects_negative():
    with pytest.raises(ValueError):
        complexity_measure(-1, 2)


def test_ranges_resolve_to_midpoint():
    value, note = parse_numeric_answer("2-6")
    assert value == 4
    assert "midpoint" in note


@pytest.mark.parametrize("text", ["1/0", "many", "2-"])
def test_unreadable_number_raises_scoring_error(text):
    with pytest.raises(ScoringError, match="cannot read"):
        parse_numeric_answer(text)


def test_report_computes_complexity_from_cpus_and_programmers(schema):
    answers = _answers({9: "2-6", 7: F(2)})
    report = build_report(schema, answers)
    assert report.complexity_measure == F(3)  # 0.5 * (4 + 2)


@pytest.mark.parametrize(
    "counts, message",
    [({9: -1, 7: 2}, "question 9: CPU count -1 must be non-negative"),
     ({9: 4, 7: "-3"}, "question 7: programmer count -3 must be non-negative"),
     ({9: F(-1, 2), 7: -2}, "question 9: CPU count -1/2 must be non-negative")],
)
def test_negative_count_is_a_scoring_error_naming_its_question(schema, counts, message):
    with pytest.raises(ScoringError) as info:
        build_report(schema, _answers(counts))
    assert str(info.value) == message


def test_negative_count_is_not_read_when_question_14_is_answered(schema):
    report = build_report(schema, _answers({14: 3, 9: -1, 7: 2}))
    assert report.complexity_measure == 3 and type(report.complexity_measure) is F


# --- interaction variable -----------------------------------------------------------


def test_interaction_all_fives():
    assert interaction_variable({23: F(5), 24: F(5), 26: F(5), 27: F(5)}) == 5


def test_interaction_mean():
    assert interaction_variable({23: F(5), 24: F(0), 26: F(5), 27: F(0)}) == F(5, 2)


def test_interaction_skips_missing():
    assert interaction_variable({23: F(5), 24: None, 26: F(5), 27: F(5)}) == 5


def test_interaction_all_missing():
    assert interaction_variable({23: None, 24: None, 26: None, 27: None}) is None


@given(values=st.permutations([F(5), F(0), F("2.5"), F("3.75")]))
def test_interaction_permutation_invariant(values):
    mapping = dict(zip((23, 24, 26, 27), values))
    assert interaction_variable(mapping) == interaction_variable(
        dict(zip((23, 24, 26, 27), reversed(values)))
    )


# --- pearson -------------------------------------------------------------------


def test_pearson_perfect():
    assert pearson([1, 2, 3, 4], [1, 2, 3, 4]).r == pytest.approx(1.0)


def test_pearson_anti():
    assert pearson([1, 2, 3], [3, 2, 1]).r == pytest.approx(-1.0)


def test_pearson_example_point_eight():
    result = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert result.r == pytest.approx(0.8, abs=1e-12)


def test_pearson_skips_missing_pairs():
    result = pearson([1, None, 2, 3], [2, 5, 4, 6])
    assert result.n == 3
    assert result.r == pytest.approx(1.0)


def test_pearson_degenerate_zero_variance():
    with pytest.raises(DegenerateSampleError, match="degenerate sample"):
        pearson([1, 1, 1], [1, 2, 3])


def test_pearson_degenerate_too_few():
    with pytest.raises(DegenerateSampleError, match="degenerate sample"):
        pearson([1], [2])


def test_pearson_significance_none_below_four():
    assert pearson([1, 2, 3], [1, 2, 3]).significance is Significance.NONE


def test_pearson_significance_p01():
    xs = list(range(10))
    assert pearson(xs, xs).significance is Significance.P01


def test_pearson_significance_without_relation():
    result = pearson([1, 2, 3, 4, 5, 6], [4, 1, 5, 2, 6, 3])
    assert result.significance is Significance.NONE


def test_t_table_matches_distribution_oracle():
    for df, (t05, t01) in T_CRITICAL.items():
        assert t05 == pytest.approx(scipy_stats.t.ppf(0.975, df), abs=5e-5)
        assert t01 == pytest.approx(scipy_stats.t.ppf(0.995, df), abs=5e-5)


def test_pearson_matches_reference_oracle():
    rng = random.Random(1234)
    for _ in range(100):
        n = rng.randint(3, 20)
        xs = [rng.uniform(-10, 10) for _ in range(n)]
        ys = [rng.uniform(-10, 10) for _ in range(n)]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            continue
        assert pearson(xs, ys).r == pytest.approx(
            pearson_reference(xs, ys), abs=1e-9
        )


def test_pearson_affine_invariance():
    rng = random.Random(99)
    xs = [rng.uniform(0, 5) for _ in range(12)]
    ys = [rng.uniform(0, 5) for _ in range(12)]
    base = pearson(xs, ys).r
    for a, b in ((2.0, 1.0), (0.5, -3.0), (10.0, 100.0)):
        assert abs(pearson([a * x + b for x in xs], ys).r - base) < 1e-12
        assert abs(pearson(xs, [a * y + b for y in ys]).r - base) < 1e-12


# --- cohort -------------------------------------------------------------------


def test_cohort_single_company_identity(schema):
    answers = _answers(OP_BEST)
    stats = cohort_stats([build_report(schema, answers)])
    assert stats.company_count == 1
    assert stats.question_means[36] == 5
    assert stats.category_means[Category.OP] == 1


def test_cohort_mean_of_two(schema):
    a = _answers({36: "never"}, company="a")
    b = _answers({36: "very-often"}, company="b")
    stats = cohort_stats([build_report(schema, a), build_report(schema, b)])
    assert stats.question_means[36] == F(5, 2)
    assert stats.question_counts[36] == 2


def test_cohort_contributor_counts(schema):
    sets = [
        _answers({39: "very-often"}, company="a"),
        _answers({36: "never"}, company="b"),
        _answers({36: "never"}, company="c"),
    ]
    stats = cohort_stats([build_report(schema, s) for s in sets])
    assert stats.question_counts[39] == 1
    assert stats.question_means[39] == 5


def test_cohort_category_filter(schema):
    sets = [
        _answers(OP_BEST, company="m", category=CompanyCategory.MACHINE),
        _answers({36: "very-often"}, company="p", category=CompanyCategory.PLANT),
    ]
    reports = [build_report(schema, s) for s in sets]
    stats = cohort_stats(reports, category=CompanyCategory.MACHINE)
    assert stats.company_count == 1
    assert stats.category_means[Category.OP] == 1


def test_cohort_empty_errors(schema):
    with pytest.raises(ValueError, match="empty cohort"):
        cohort_stats([], category=None)


# --- monotonicity property ----------------------------------------------------------


def _upgrade_strategy(schema):
    scored = schema.scored_ids()

    @st.composite
    def build(draw):
        answers = {}
        for qid in scored:
            question = schema.question(qid)
            if draw(st.booleans()):
                answers[qid] = draw(
                    st.sampled_from([o.key for o in question.options])
                )
        qid = draw(st.sampled_from(scored))
        question = schema.question(qid)
        options = sorted(question.options, key=lambda o: o.score)
        current = answers.get(qid)
        lower = [o for o in options if current is None or o.score <= _score(question, current)]
        higher = [o for o in options if current is None or o.score > _score(question, current)]
        if not higher:
            # pick a fresh pair instead
            low, high = options[0], options[-1]
            answers[qid] = low.key
            return answers, qid, high.key
        answers[qid] = current if current is not None else options[0].key
        return answers, qid, draw(st.sampled_from([o.key for o in higher]))

    return build()


def _score(question, key):
    for option in question.options:
        if option.key == key:
            return option.score
    raise AssertionError(key)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_upgrading_an_answer_never_lowers_maturity(schema, data):
    answers, qid, better_key = data.draw(_upgrade_strategy(schema))
    before = build_report(schema, _answers(answers))
    upgraded = dict(answers)
    upgraded[qid] = better_key
    after = build_report(schema, _answers(upgraded))
    for attr in ("m_mod", "m_test", "m_op", "overall"):
        old = getattr(before, attr)
        new = getattr(after, attr)
        if old is not None and new is not None:
            assert new >= old or (new == old)


# --- exact scoring against the reference scorer --------------------------------------

# keys that collide when case is ignored, so an exact match must win over a
# case-folded one, and labels that equal some key in another case
_KEYS = ("a", "A", "b", "B", "ab", "Ab", "never")
_LABELS = ("Never", "level ONE", "Level one", "b", "other")
_DENOMINATORS = (1, 2, 3, 4, 6)  # weights and scores such as 5/3


@st.composite
def _scoring_cases(draw):
    """Two schemas of one question structure with weights and scores drawn
    independently, and answer sets for that structure."""
    structure = []
    # ids from 15 up: build_report reads 7, 9 and 14 as numbers for the complexity
    for qid in draw(st.lists(st.integers(15, 70), min_size=1, max_size=8, unique=True)):
        category = draw(st.sampled_from(list(Category)))
        mode = draw(st.sampled_from(list(AnswerMode)))
        keys = (
            draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4, unique=True))
            if mode is AnswerMode.SINGLE_CHOICE else []
        )
        labels = [draw(st.sampled_from(_LABELS)) for _ in keys]
        structure.append((qid, category, mode, keys, labels))

    def fraction(low):
        return F(draw(st.integers(low, 12)), draw(st.sampled_from(_DENOMINATORS)))

    def schema():
        return QuestionnaireSchema(tuple(
            Question(qid, f"question {qid}", category, weight=fraction(1), mode=mode,
                     options=tuple(Option(k, label, fraction(0)) for k, label in zip(keys, labels)))
            for qid, category, mode, keys, labels in structure
        ))

    schemas = [schema(), schema()]
    answer_sets = []
    for index in range(draw(st.integers(1, 4))):
        answers = {}
        for qid, _, mode, keys, labels in structure:
            if draw(st.integers(0, 4)) == 0:
                continue  # unanswered
            if mode is AnswerMode.SINGLE_CHOICE:
                pick = draw(st.integers(0, len(keys) - 1))
                answers[qid] = draw(st.sampled_from(
                    [keys[pick], keys[pick].swapcase(), labels[pick], labels[pick].upper()]
                ))
            elif mode is AnswerMode.NUMERIC:
                # 3 as a JSON integer reads it, F(7, 2) as a JSON float does
                answers[qid] = draw(st.sampled_from([3, F(3), F(7, 2), "2-6"]))
            else:
                answers[qid] = "free text"
        answer_sets.append(AnswerSet(f"co{index}", CompanyCategory.MACHINE, answers))
    return schemas, answer_sets


def _exact(values):
    return all(v is None or type(v) is F for v in values)


@settings(max_examples=150, deadline=None)
@given(case=_scoring_cases())
def test_scoring_matches_reference_scorer(case):
    schemas, answer_sets = case
    # alternate the two schemas, so that a table kept for one and read for
    # the other gives the other's scores
    for schema in schemas + schemas:
        for strict in (False, True):
            reports = [build_report(schema, a, strict=strict) for a in answer_sets]
            wanted = [reference_report(schema, a, strict) for a in answer_sets]
            for answers, report, want in zip(answer_sets, reports, wanted):
                assert report.per_question_normalized == want["normalized"]
                assert normalized_answers(schema, answers) == want["normalized"]
                assert report.category_points == want["points"]
                assert (report.m_mod, report.m_test, report.m_op) == tuple(
                    want["maturity"][c] for c in (Category.MOD, Category.TEST, Category.OP)
                )
                assert report.overall == want["overall"]
                assert report.unanswered == want["unanswered"]
                assert _exact(report.per_question_normalized.values())
                assert _exact([report.m_mod, report.m_test, report.m_op, report.overall])
                assert _exact([v for pair in report.category_points.values() for v in pair])
            stats = cohort_stats(reports)
            want = reference_cohort(wanted)
            assert stats.question_means == want["question_means"]
            assert stats.question_counts == want["question_counts"]
            assert stats.category_means == want["category_means"]
            assert stats.company_count == len(answer_sets)
            assert _exact(stats.question_means.values())
            assert _exact(stats.category_means.values())


# --- normalization, files -----------------------------------------------------------


def test_normalized_scores_within_range(schema):
    answers = _answers({36: "rarely", 37: "parts", 38: "on-site", 39: "often"})
    values = [v for v in normalized_answers(schema, answers).values() if v is not None]
    assert values and all(0 <= v <= 5 for v in values)


def test_normalization_idempotent(schema):
    score, normalized = score_answer(schema, 36, "rarely")
    assert normalized == F("3.25")
    assert normalized / 5 * 5 == normalized


def test_schema_json_round_trip(schema, tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
    loaded = load_schema_file(path)
    assert loaded == schema


def test_built_in_schema_is_pinned():
    """``default_schema.json`` holds the questionnaire the package has always
    built in: 45 questions, 25 of them scored, scores in twelfths."""
    schema = default_schema()
    text = json.dumps(schema_to_dict(schema), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "292c1c5deb9a5f7a7c3575930d136b7e98d4a6db89319111dbd007042f586149"
    )
    assert (len(schema.questions), len(schema.scored_ids()), schema.denominator) == (45, 25, 12)


def test_built_in_schema_is_read_afresh_on_each_call():
    """No two callers share a schema, so neither shares its memos."""
    first, second = default_schema(), default_schema()
    assert first == second
    assert first is not second
    score_answer(first, 36, "rarely")
    assert first.answer_scores and not second.answer_scores


def test_answers_file_round_trip(tmp_path):
    path = tmp_path / "answers.json"
    payload = {
        "company": "co",
        "category": "machine",
        "answers": {"36": "never", "9": 3.25, "12": 2000},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    answers = load_answers_file(path)
    assert answers.answers[36] == "never"
    assert answers.answers[9] == F("3.25")
    assert answers.answers[12] == 2000
    assert type(answers.answers[12]) is int  # an integer is exact as it is


def test_format_ratio():
    assert format_ratio(F(3, 4)) == "0.7500"
    assert format_ratio(F("96.15") / 125) == "0.7692"
    assert format_ratio(None) == ""
    assert format_ratio(F(1, 3)) == "0.3333"
    assert format_ratio(F(5, 2)) == "2.5000"
    assert format_ratio(F(-1, 8000)) == "-0.0001"


def _half_up(value: F) -> str:
    """The decimal module's ROUND_HALF_UP of ``value`` to ``RATIO_PLACES``
    digits, without the sign of a zero.  The quotient carries 300 digits, far
    more than any drawn value needs to sit on the right side of a half."""
    with decimal.localcontext() as context:
        context.prec = 300
        exact = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        rounded = exact.quantize(decimal.Decimal(1).scaleb(-RATIO_PLACES), decimal.ROUND_HALF_UP)
    return f"{abs(rounded) if rounded.is_zero() else rounded:f}"


# exact halves at the last printed digit, of either sign, where the
# rounding direction is all that decides
_HALVES = st.integers(-10**9, 10**9).map(lambda k: F(2 * k + 1, 2 * 10**RATIO_PLACES))
_RATIOS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(_RATIOS, _HALVES))
def test_format_ratio_rounds_half_up_like_decimal(value):
    assert format_ratio(value) == _half_up(value)


def test_normalized_answers_checks_the_answers(schema):
    with pytest.raises(ScoringError, match="answer for unknown question 99"):
        normalized_answers(schema, _answers({36: "never", 99: "x"}))
    with pytest.raises(ScoringError, match="question 9: cannot read 'lots' as a number"):
        normalized_answers(schema, _answers({36: "never", 9: "lots"}))


def test_validate_answers_rejects_unknown_question(schema):
    with pytest.raises(ScoringError, match="answer for unknown question 99"):
        build_report(schema, _answers({99: "never"}))


def test_build_report_rejects_invalid_answers(schema):
    with pytest.raises(ScoringError):
        build_report(schema, _answers({99: "never"}))
    with pytest.raises(ScoringError):
        build_report(schema, _answers({36: "whenever"}))


def test_numeric_notes_logged(schema):
    from swmat.maturity import numeric_notes

    notes = numeric_notes(schema, _answers({9: "2-6", 7: F(1)}))
    assert notes == ["question 9: range '2-6' resolved to midpoint 4"]


def test_schema_validate_enforces_groupings():
    from swmat.model import Category, Question, QuestionnaireSchema

    schema = default_schema()
    shifted = tuple(
        q._replace(category=Category.TEST) if q.id == 36 else q
        for q in schema.questions
    )
    problems = QuestionnaireSchema(shifted).validate()
    assert any("question 36" in p and "OP" in p for p in problems)


def test_report_overall_consistent_with_category_points(schema):
    answers = _answers(
        {15: "structured-exchange", 31: "partially", 36: "rarely", 39: "often"}
    )
    report = build_report(schema, answers)
    gained = sum((g for g, _ in report.category_points.values()), F(0))
    reachable = sum((r for _, r in report.category_points.values()), F(0))
    assert report.overall == gained / reachable


def test_report_echoes_descriptive_answers(schema):
    from swmat.maturity import report_to_dict

    answers = _answers({36: "never", 9: F(3), 45: "synchronized axes"})
    report = build_report(schema, answers)
    data = report_to_dict(report, answers, schema)
    assert data["descriptive_answers"] == {"9": "3", "45": "synchronized axes"}
    assert "36" not in data["descriptive_answers"]
