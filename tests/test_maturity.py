from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from oracles import pearson_reference
from swmat.maturity import (
    CategoryScore,
    DegenerateSampleError,
    ScoringError,
    Significance,
    T_CRITICAL,
    build_report,
    category_maturity,
    cohort_stats,
    complexity_measure,
    interaction_variable,
    load_answers_file,
    load_schema_file,
    normalized_answers,
    overall_maturity,
    parse_numeric_answer,
    pearson,
    schema_from_dict,
    schema_to_dict,
    score_answer,
    format_ratio,
)
from swmat.model import AnswerSet, Category, CompanyCategory

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
    score = category_maturity(schema, answers, Category.OP)
    assert score.gained == 15
    assert score.reachable == 20
    assert score.maturity == F(3, 4)


def test_all_best_options_give_one(schema):
    answers = _answers(OP_BEST)
    assert category_maturity(schema, answers, Category.OP).maturity == 1


def test_strict_mode_counts_unanswered(schema):
    answers = _answers({36: "never", 37: "no-source", 38: "remote-and-on-demand"})
    lenient = category_maturity(schema, answers, Category.OP)
    strict = category_maturity(schema, answers, Category.OP, strict=True)
    assert lenient.maturity == 1
    assert strict.maturity == F(15, 20)
    assert strict.unanswered == (39,)


def test_unanswered_category_is_missing(schema):
    answers = _answers({})
    score = category_maturity(schema, answers, Category.OP)
    assert score.maturity is None
    assert score.reachable == 0


def test_category_must_be_scored(schema):
    with pytest.raises(ValueError):
        category_maturity(schema, _answers({}), Category.GEN)


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


def test_report_computes_complexity_from_cpus_and_programmers(schema):
    answers = _answers({9: "2-6", 7: F(2)})
    report = build_report(schema, answers)
    assert report.complexity_measure == F(3)  # 0.5 * (4 + 2)


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


def test_format_ratio():
    assert format_ratio(F(3, 4)) == "0.7500"
    assert format_ratio(F("96.15") / 125) == "0.7692"
    assert format_ratio(None) == ""
    assert format_ratio(F(1, 3)) == "0.3333"


def test_validate_answers_rejects_unknown_question(schema):
    from swmat.maturity import validate_answers

    problems = validate_answers(schema, _answers({99: "never"}))
    assert problems and "unknown question 99" in problems[0]


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
    from swmat.default_schema import default_schema
    from swmat.model import Category, Question, QuestionnaireSchema
    import dataclasses

    schema = default_schema()
    shifted = tuple(
        dataclasses.replace(q, category=Category.TEST) if q.id == 36 else q
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
