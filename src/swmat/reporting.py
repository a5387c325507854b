"""Report emitters: radar SVG, overview CSV, scatter CSV.

Everything here is deterministic text generation; callers decide where the
bytes go.  Radar values live on a 0..5 scale where the outer ring is 5; a
missing value interrupts the profile line instead of dropping to zero.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .model import MaturityReport, Memos, format_ratio

RADAR_MAX = Fraction(5)


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, the bytes
    ``xml.sax.saxutils.escape`` gives without importing ``xml.sax``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _RadarSeriesFields(NamedTuple):
    name: str
    values: tuple[Fraction | None, ...]
    dashed: bool = False


class RadarSeries(_RadarSeriesFields, Memos):
    @cached_property
    def polylines(self) -> tuple[str, ...]:
        """The ``points`` text of each unbroken run of the profile on
        ``len(values)`` spokes, drawn once per series: a cohort's radars
        all share one mean series."""
        count = len(self.values)
        runs = _segments(self.values)
        complete = len(runs) == 1 and len(runs[0]) == count
        polylines = []
        for run in runs:
            points = [_point(idx, count, self.values[idx]) for idx in run]
            if complete:
                points.append(points[0])  # close the loop only when unbroken
            polylines.append(" ".join(f"{x:.2f},{y:.2f}" for x, y in points))
        return tuple(polylines)


class RadarSpec(NamedTuple):
    spokes: tuple[tuple[int, str], ...]
    series: tuple[RadarSeries, ...]

    def validate(self) -> None:
        if len(self.spokes) < 3:
            raise ValueError("a radar needs at least 3 spokes")
        for series in self.series:
            if len(series.values) != len(self.spokes):
                raise ValueError(
                    f"series {series.name!r} has {len(series.values)} values "
                    f"for {len(self.spokes)} spokes"
                )


_SIZE = 520.0
_CENTER = _SIZE / 2
_INNER = 30.0   # radius drawn for value 0
_OUTER = 220.0  # radius drawn for value 5
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_RADAR_MAX = float(RADAR_MAX)


def radius_for(value: Fraction) -> float:
    """Affine map from a 0..5 value onto the ring radii."""
    return _INNER + (_OUTER - _INNER) * float(value) / _RADAR_MAX


def _point(index: int, count: int, value: Fraction) -> tuple[float, float]:
    angle = -math.pi / 2 + 2 * math.pi * index / count
    r = radius_for(value)
    return (_CENTER + r * math.cos(angle), _CENTER + r * math.sin(angle))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _segments(values: tuple[Fraction | None, ...]) -> list[list[int]]:
    """Runs of answered spokes; a missing value splits the profile line."""
    runs: list[list[int]] = []
    current: list[int] = []
    for idx, value in enumerate(values):
        if value is None:
            if current:
                runs.append(current)
            current = []
        else:
            current.append(idx)
    if current:
        runs.append(current)
    return runs


@lru_cache(maxsize=16)
def _frame(spokes: tuple[tuple[int, str], ...]) -> str:
    """The opening lines every radar over ``spokes`` shares: the header, both
    rings, and each spoke with its label."""
    count = len(spokes)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE:.0f}" height="{_SIZE:.0f}" '
        f'viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'  <circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_INNER)}" '
        'fill="none" stroke="#999999" stroke-width="1"/>',
        f'  <circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_OUTER)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for idx, (qid, label) in enumerate(spokes):
        x0, y0 = _point(idx, count, Fraction(0))
        x1, y1 = _point(idx, count, RADAR_MAX)
        lines.append(
            f'  <line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
        lx, ly = _point(idx, count, RADAR_MAX + Fraction(1, 2))
        lines.append(
            f'  <text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="11" '
            f'text-anchor="middle">{escape(f"#{qid} {label}" if label else f"#{qid}")}</text>'
        )
    return "\n".join(lines)


def emit_radar_svg(spec: RadarSpec) -> str:
    """Render the radar as standalone SVG 1.1 text."""
    spec.validate()
    lines = [_frame(spec.spokes)]
    for series_index, series in enumerate(spec.series):
        color = _COLORS[series_index % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if series.dashed else ""
        name = escape(series.name).replace('"', "&quot;")  # an attribute value
        lines.append(f'  <g data-series="{name}">')
        for coords in series.polylines:
            lines.append(
                f'    <polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="2"{dash}/>'
            )
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --- CSV emitters ---------------------------------------------------------------


OVERVIEW_HEADER = ("company", "category", "m_mod", "m_test", "m_op", "overall")


def _csv_writer() -> tuple[io.StringIO, object]:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    return buffer, writer


def emit_overview_csv(reports: list[MaturityReport]) -> str:
    """One row per company with the three category maturities and the overall."""
    if not reports:
        raise ValueError("no reports to emit")
    buffer, writer = _csv_writer()
    writer.writerow(OVERVIEW_HEADER)
    for report in reports:
        writer.writerow(
            (
                report.company,
                report.company_category.value,
                format_ratio(report.m_mod),
                format_ratio(report.m_test),
                format_ratio(report.m_op),
                format_ratio(report.overall),
            )
        )
    return buffer.getvalue()


class ScatterPoint(NamedTuple):
    x_label: str
    y_label: str
    x: Fraction
    y: Fraction
    company: str
    category: str


def emit_scatter_csv(points: list[ScatterPoint]) -> str:
    """Point rows plus one median row per category, sharing one axis pair."""
    if not points:
        raise ValueError("no points to emit")
    labels = {(p.x_label, p.y_label) for p in points}
    if len(labels) != 1:
        raise ValueError("scatter points must share their axis labels")
    x_label, y_label = next(iter(labels))

    buffer, writer = _csv_writer()
    writer.writerow(("company", "category", x_label, y_label, "kind"))
    for p in points:
        writer.writerow(
            (p.company, p.category, format_ratio(p.x), format_ratio(p.y), "point")
        )
    by_category: dict[str, list[ScatterPoint]] = {}
    for p in points:
        by_category.setdefault(p.category, []).append(p)
    for category in sorted(by_category):
        group = by_category[category]
        writer.writerow(
            (
                "",
                category,
                format_ratio(_median([p.x for p in group])),
                format_ratio(_median([p.y for p in group])),
                "median",
            )
        )
    return buffer.getvalue()


def _exact_order(value: Fraction) -> tuple[float, Fraction]:
    # float of a Fraction is correctly rounded, so monotone: the cheap float
    # comparison decides, and only equal floats compare the Fractions
    return float(value), value


def _median(values: list[Fraction]) -> Fraction:
    """``statistics.median`` of exact values, sorted by ``_exact_order``."""
    ordered = sorted(values, key=_exact_order)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2
