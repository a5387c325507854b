from __future__ import annotations

import csv
import io
import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from swmat import cli, reporting
from swmat.maturity import build_report, cohort_stats, load_answers_file
from swmat.model import Category, CompanyCategory, MaturityReport
from swmat.reporting import (
    RadarSeries,
    RadarSpec,
    ScatterPoint,
    emit_overview_csv,
    emit_radar_svg,
    emit_scatter_csv,
    radius_for,
)

F = Fraction


def _spokes(n):
    return tuple((i + 1, f"q{i + 1}") for i in range(n))


def _series(values, name="co", dashed=False):
    return RadarSeries(name, tuple(values), dashed)


def _polylines(svg: str) -> list[ET.Element]:
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return list(root.iter(f"{ns}polyline"))


def test_radar_all_max_touches_outer_ring():
    spec = RadarSpec(_spokes(4), (_series([F(5)] * 4),))
    svg = emit_radar_svg(spec)
    lines = _polylines(svg)
    assert len(lines) == 1
    outer = radius_for(F(5))
    center = 260.0
    points = [
        tuple(map(float, chunk.split(",")))
        for chunk in lines[0].attrib["points"].split()
    ]
    for x, y in points:
        assert ((x - center) ** 2 + (y - center) ** 2) ** 0.5 == pytest.approx(outer, abs=0.02)


def test_radar_missing_splits_polyline():
    values = [F(4), F(4), None, F(4), F(4)]
    spec = RadarSpec(_spokes(5), (_series(values),))
    assert len(_polylines(emit_radar_svg(spec))) == 2


def test_radar_complete_series_single_closed_polyline():
    spec = RadarSpec(_spokes(5), (_series([F(2)] * 5),))
    lines = _polylines(emit_radar_svg(spec))
    assert len(lines) == 1
    points = lines[0].attrib["points"].split()
    assert points[0] == points[-1]  # closed loop


def test_radar_mean_series_dashed():
    spec = RadarSpec(
        _spokes(4),
        (_series([F(3)] * 4, "co"), _series([F(2)] * 4, "mean", dashed=True)),
    )
    svg = emit_radar_svg(spec)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    groups = [g for g in root.iter(f"{ns}g")]
    assert len(groups) == 2
    dashed = groups[1].find(f"{ns}polyline")
    assert dashed.attrib.get("stroke-dasharray") == "6 4"
    solid = groups[0].find(f"{ns}polyline")
    assert "stroke-dasharray" not in solid.attrib


def test_radar_requires_three_spokes():
    with pytest.raises(ValueError, match="3 spokes"):
        emit_radar_svg(RadarSpec(_spokes(2), (_series([F(1), F(2)]),)))


def test_radar_series_length_mismatch():
    with pytest.raises(ValueError, match="values"):
        emit_radar_svg(RadarSpec(_spokes(4), (_series([F(1)] * 3),)))


def _fresh_svg(spec: RadarSpec) -> str:
    """``emit_radar_svg`` with its caches emptied first, so it reuses nothing
    (a series keeps its own drawing: pass series made for this call)."""
    reporting._frame.cache_clear()
    return emit_radar_svg(spec)


def test_radar_validates_on_every_call():
    spokes = _spokes(3)
    emit_radar_svg(RadarSpec(spokes, (_series([F(1)] * 3),)))  # caches the frame
    with pytest.raises(ValueError, match="values"):
        emit_radar_svg(RadarSpec(spokes, (_series([F(1)] * 2),)))
    for _ in range(2):
        with pytest.raises(ValueError, match="3 spokes"):
            emit_radar_svg(RadarSpec(_spokes(2), (_series([F(1), F(2)]),)))


def test_two_spoke_sets_in_one_process():
    four = RadarSpec(_spokes(4), (_series([F(1), F(2), None, F(4)]),))
    six = RadarSpec(
        tuple((i, f"other {i}") for i in range(1, 7)),
        (_series([F(3)] * 6), _series([F(5, 3)] * 6, "mean", dashed=True)),
    )
    relabelled = RadarSpec(tuple((i, f"other {i}") for i in range(1, 5)), four.series)
    wanted = [(spec, _fresh_svg(spec)) for spec in (four, six, relabelled)]
    for spec, want in wanted + wanted:
        assert emit_radar_svg(spec) == want
    assert wanted[0][1].count("<line ") == 4 and "other" not in wanted[0][1]
    assert wanted[1][1].count("<line ") == 6 and "#6 other 6" in wanted[1][1]
    assert wanted[2][1].count("<line ") == 4 and "#4 other 4" in wanted[2][1]


def test_cohort_radars_equal_fresh_renders(tmp_path, schema):
    rng = random.Random(3)
    answers_dir = tmp_path / "answers"
    answers_dir.mkdir()
    for index in range(6):
        answers = {
            str(qid): rng.choice(schema.question(qid).options).key
            for qid in schema.scored_ids()
            if rng.random() < 0.8
        }
        payload = {"company": f"co{index}", "category": "machine", "answers": answers}
        (answers_dir / f"co{index}.json").write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "reports"
    assert cli.run(["cohort", "--answers-dir", str(answers_dir), "--out", str(out)]) == 0

    reports = [build_report(schema, load_answers_file(p)) for p in sorted(answers_dir.iterdir())]
    means = cohort_stats(reports).question_means
    shared = []
    for report in reports:
        svg = (out / f"radar_{report.company}.svg").read_text(encoding="utf-8")
        mean = cli._mean_series(means, schema)
        assert svg == _fresh_svg(cli._radar_for(report, mean))
        # all but the company's own group is the same in every file
        lines = svg.splitlines()
        start = lines.index(f'  <g data-series="{report.company}">')
        end = lines.index('  <g data-series="cohort mean">')
        shared.append(lines[:start] + lines[end:])
    assert all(lines == shared[0] for lines in shared)
    assert len(shared[0]) == 4 + 2 * len(schema.scored_ids()) + 4  # frame, mean, </svg>


def test_a_shared_series_is_drawn_once(monkeypatch):
    reporting._frame(_spokes(5))  # the frame is drawn once per spoke set anyway
    drawn = []
    point = reporting._point
    monkeypatch.setattr(reporting, "_point", lambda *args: drawn.append(args) or point(*args))
    mean = _series([F(1), F(2), None, F(4), F(5)], "mean", dashed=True)
    specs = [RadarSpec(_spokes(5), (_series([F(k)] * 5, f"co{k}"), mean)) for k in range(3)]
    svgs = [emit_radar_svg(spec) for spec in specs]
    assert len(drawn) == 3 * 5 + 4  # five points per company, the mean's four once
    assert svgs == [_fresh_svg(RadarSpec(_spokes(5), (_series([F(k)] * 5, f"co{k}"),
                                                      _series(mean.values, "mean", True))))
                    for k in range(3)]


def test_radius_affine_in_value():
    r0 = radius_for(F(0))
    r5 = radius_for(F(5))
    for v in (F(1), F(2), F("2.5"), F(4)):
        expected = r0 + (r5 - r0) * float(v) / 5
        assert radius_for(v) == pytest.approx(expected)


def test_radar_deterministic():
    spec = RadarSpec(_spokes(4), (_series([F(1), None, F(3), F(5)]),))
    assert emit_radar_svg(spec) == emit_radar_svg(spec)


def test_radar_svg_is_well_formed_xml():
    spec = RadarSpec(
        tuple((i, 'label "quoted" & <odd>') for i in range(1, 5)),
        (_series([F(2)] * 4, name="a&b<c>"),),
    )
    ET.fromstring(emit_radar_svg(spec))  # raises on malformed output


def test_radar_data_series_attribute_reads_back():
    name = 'ACME "Süd" & <Co>'
    svg = emit_radar_svg(RadarSpec(_spokes(3), (_series([F(1)] * 3, name=name),)))
    groups = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}g")
    assert [g.get("data-series") for g in groups] == [name]


_AWKWARD = ("a & b", "<tag>", 'say "hi"', "it's", "&amp; already", "Größe µ ≤ 5 €", "")


def test_escape_matches_saxutils():
    from xml.sax.saxutils import escape as oracle

    for text in _AWKWARD:
        assert reporting.escape(text) == oracle(text)


def test_radar_svg_escapes_like_saxutils(monkeypatch):
    from xml.sax import saxutils

    spec = RadarSpec(
        tuple((i, label) for i, label in enumerate(_AWKWARD, 1)),
        (_series([F(2)] * len(_AWKWARD), name="A&B <GmbH> \"Süd\" 'Nord'"),
         _series([F(1)] * len(_AWKWARD), name="Ünternehmen & Co", dashed=True)),
    )
    svg = _fresh_svg(spec).encode("utf-8")
    monkeypatch.setattr(reporting, "escape", saxutils.escape)
    assert svg == _fresh_svg(spec).encode("utf-8")


# --- overview CSV ----------------------------------------------------------------


def _report(company, m_mod, m_test, m_op, overall, category=CompanyCategory.MACHINE):
    return MaturityReport(
        company=company,
        company_category=category,
        per_question_normalized={},
        m_mod=m_mod,
        m_test=m_test,
        m_op=m_op,
        overall=overall,
        category_points={},
    )


def test_overview_case_a_row():
    report = _report("A", F("0.86"), F("0.63"), F("0.58"), F("96.15") / 125)
    text = emit_overview_csv([report])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["company", "category", "m_mod", "m_test", "m_op", "overall"]
    assert rows[1] == ["A", "machine", "0.8600", "0.6300", "0.5800", "0.7692"]


def test_overview_missing_is_empty_cell():
    report = _report("x", None, F(1, 2), None, F(1, 2))
    rows = list(csv.reader(io.StringIO(emit_overview_csv([report]))))
    assert rows[1][2] == ""
    assert rows[1][4] == ""


def test_overview_line_count_sixteen():
    reports = [_report(f"c{i}", F(1, 2), F(1, 2), F(1, 2), F(1, 2)) for i in range(16)]
    text = emit_overview_csv(reports)
    assert len(text.splitlines()) == 17


def test_overview_quotes_commas():
    report = _report('Acme, "Packaging"', F(1), F(1), F(1), F(1))
    text = emit_overview_csv([report])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][0] == 'Acme, "Packaging"'


# --- scatter CSV -----------------------------------------------------------------


def _point(x, y, company="co", category="machine"):
    return ScatterPoint("complexity", "m_mod", F(x), F(y), company, category)


def test_scatter_single_point_has_median():
    text = emit_scatter_csv([_point(1, 2)])
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 3  # header + point + median
    assert rows[1][-1] == "point"
    assert rows[2][-1] == "median"
    assert rows[2][2] == rows[1][2] and rows[2][3] == rows[1][3]


def test_scatter_median_order_statistics():
    points = [_point(i, y) for i, y in enumerate((1, 2, 3))]
    rows = list(csv.reader(io.StringIO(emit_scatter_csv(points))))
    median = [r for r in rows if r[-1] == "median"][0]
    assert median[3] == "2.0000"


def test_scatter_two_categories_two_medians():
    points = [
        _point(1, 1, category="machine"),
        _point(2, 2, category="plant"),
    ]
    rows = list(csv.reader(io.StringIO(emit_scatter_csv(points))))
    medians = [r for r in rows if r[-1] == "median"]
    assert [m[1] for m in medians] == ["machine", "plant"]


def test_scatter_median_compares_equal_floats_exactly():
    # both values round to one float, yet only the larger is a half at the
    # fourth digit: a float-only sort key keeps the input order and picks
    # the smaller as the middle of three
    half = F(1, 20000)
    below = half - F(1, 10**30)
    assert float(below) == float(half)
    points = [_point(half, 0, "a"), _point(below, 0, "b"), _point(half, 0, "c")]
    rows = list(csv.reader(io.StringIO(emit_scatter_csv(points))))
    assert [r[2] for r in rows[1:]] == ["0.0001", "0.0000", "0.0001", "0.0001"]


def test_scatter_median_of_an_even_group_is_the_exact_midpoint():
    points = [_point(x, 0) for x in (F(1, 3), F(5), F(2, 3), F(-1))]
    rows = list(csv.reader(io.StringIO(emit_scatter_csv(points))))
    assert rows[-1][2] == "0.5000"  # (1/3 + 2/3) / 2


def test_scatter_rejects_mixed_axes():
    bad = ScatterPoint("a", "b", F(1), F(1), "c", "machine")
    with pytest.raises(ValueError, match="axis labels"):
        emit_scatter_csv([_point(1, 1), bad])


def test_scatter_header_names_axes():
    rows = list(csv.reader(io.StringIO(emit_scatter_csv([_point(1, 2)]))))
    assert rows[0] == ["company", "category", "complexity", "m_mod", "kind"]

