"""Architecture levels, structure style, clones, Meyer grades, governance.

The four modularity criteria (decomposability, composability,
understandability, protection) are graded from measured quantities by a
fixed rule table; every cutoff lives in :class:`Thresholds` and can be
overridden from a ``key = value`` file, so the defaults are a starting
point rather than dogma.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from .graphs import CallGraph, GlobalCommGraph
from .model import (
    ArchLevel,
    Assignment,
    CallStatement,
    CaseStatement,
    ForStatement,
    Grade,
    GovernanceLevel,
    IDENT,
    IfStatement,
    MEYER_CRITERIA,
    ModularityAssessment,
    NUMBER,
    Pou,
    PouKind,
    Project,
    Statement,
    StructureStyle,
    TokenSeq,
    WhileStatement,
    read_text,
)


@dataclass(frozen=True)
class Thresholds:
    flat_global_min_f: Fraction = Fraction(1, 2)
    hierarchical_max_f: Fraction = Fraction(1, 4)
    flat_max_depth: int = 2
    hierarchical_min_depth: int = 3
    clone_min_tokens: int = 20
    fan_out_bound: Fraction = Fraction(7)
    cross_cutting_k: int = 4
    cross_cutting_strata: int = 3
    protection_pp_max_f: Fraction = Fraction(1, 10)
    protection_p_max_f: Fraction = Fraction(7, 20)
    reuse_pp_min: Fraction = Fraction(1, 2)
    reuse_p_min: Fraction = Fraction(1, 5)
    depth_min: int = 2
    depth_max: int = 5


def load_thresholds(path: str | Path) -> Thresholds:
    """Read ``key = value`` overrides; comments allowed.  An unknown key or a
    value that does not read as the knob's type raises a ValueError naming
    the file and line."""
    values = Thresholds()
    valid = {f.name: f.type for f in fields(Thresholds)}
    overrides = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in valid:
            raise ValueError(f"{path}:{lineno}: unknown threshold {key!r}")
        try:
            overrides[key] = int(value) if valid[key] == "int" else Fraction(value)
        except (ValueError, ZeroDivisionError):
            expected = "an integer" if valid[key] == "int" else "a number"
            message = f"{path}:{lineno}: {key}: expected {expected}, got {value!r}"
            raise ValueError(message) from None
    return replace(values, **overrides)


# --- architectural levels -------------------------------------------------------


@dataclass(frozen=True)
class LevelAssignment:
    strata: dict[str, int | None]  # None = unreachable from every entry
    named: dict[str, ArchLevel]
    levels_below_entry: int
    unreachable: tuple[str, ...]


_LADDER = (ArchLevel.PLANT, ArchLevel.FACILITY, ArchLevel.APPLICATION, ArchLevel.BASIC)


def assign_levels(graph: CallGraph, plant: bool = False) -> LevelAssignment:
    """BFS strata from the entry nodes, mapped onto the five level names.

    Entries start at facility level (plant level for plant projects); strata
    past the named ladder collapse into basic; every leaf is atomic basic.
    """
    strata: dict[str, int | None] = {n.name: None for n in graph.nodes}
    queue: deque[str] = deque()
    for entry in graph.entries:
        if entry in strata and strata[entry] is None:
            strata[entry] = 0
            queue.append(entry)
    while queue:
        current = queue.popleft()
        depth = strata[current]
        assert depth is not None
        for nxt in graph.callees(current):
            if strata.get(nxt) is None:
                strata[nxt] = depth + 1
                queue.append(nxt)

    reachable = [s for s in strata.values() if s is not None]
    levels_below = max(reachable) if reachable else 0

    node_map = graph.node_map()
    base = 0 if plant else 1
    named: dict[str, ArchLevel] = {}
    for name, stratum in strata.items():
        is_leaf = all(node_map[c].external for c in graph.callees(name))
        if is_leaf:
            named[name] = ArchLevel.ATOMIC_BASIC
        elif stratum is None:
            named[name] = ArchLevel.BASIC
        else:
            named[name] = _LADDER[min(base + stratum, len(_LADDER) - 1)]

    unreachable = tuple(sorted((n for n, s in strata.items() if s is None), key=str.lower))
    return LevelAssignment(strata, named, levels_below, unreachable)


# --- structure style ------------------------------------------------------------


@dataclass(frozen=True)
class StyleResult:
    style: StructureStyle
    coupling_fraction: Fraction
    warning: str | None = None


def classify_structure_style(
    call_graph: CallGraph,
    global_graph: GlobalCommGraph,
    thresholds: Thresholds = Thresholds(),
    levels: LevelAssignment | None = None,
) -> StyleResult:
    """Flat-and-global versus hierarchical-call structure, or mixed.

    The coupling fraction f is the share of global-communication edges among
    all edges; the call-depth below the entry separates flat from deep shapes.
    """
    g = global_graph.edge_count
    c = len(call_graph.edges)
    if g + c == 0:
        return StyleResult(
            StructureStyle.MIXED, Fraction(0), warning="no edges in either graph"
        )
    f = Fraction(g, g + c)
    depth = (levels or assign_levels(call_graph)).levels_below_entry
    if f >= thresholds.flat_global_min_f and depth <= thresholds.flat_max_depth:
        style = StructureStyle.FLAT_GLOBAL
    elif f <= thresholds.hierarchical_max_f and depth >= thresholds.hierarchical_min_depth:
        style = StructureStyle.HIERARCHICAL_CALLS
    else:
        style = StructureStyle.MIXED
    return StyleResult(style, f)


# --- clone detection ------------------------------------------------------------


def _codes(seq: TokenSeq) -> list[str]:
    return seq.store.codes[seq.start : seq.end]


def _flatten(stmts: Sequence[Statement], out: list[str]) -> None:
    """Append the token codes of a statement tree to ``out``, in source order.
    Identifiers, numbers and strings each have one code (``model.IDENT``),
    so renamed copies compare equal.

    Closing keywords follow their bodies, so this recurses once per block;
    the parser keeps that within ``stparse.MAX_NESTING``.
    """
    for stmt in stmts:
        if isinstance(stmt, Assignment):
            out += _codes(stmt.target)
            out.append(":=")
            out += _codes(stmt.value)
            out.append(";")
        elif isinstance(stmt, CallStatement):
            out.append(IDENT)
            out += [".", IDENT] * stmt.callee.count(".")
            out.append("(")
            out += _codes(stmt.args)
            out += (")", ";")
        elif isinstance(stmt, IfStatement):
            for k, branch in enumerate(stmt.branches):
                out.append("ELSIF" if k else "IF")
                out += _codes(branch.condition)
                out.append("THEN")
                _flatten(branch.body, out)
            if stmt.else_body:
                out.append("ELSE")
                _flatten(stmt.else_body, out)
            out += ("END_IF", ";")
        elif isinstance(stmt, CaseStatement):
            out.append("CASE")
            out += _codes(stmt.selector)
            out.append("OF")
            for branch in stmt.branches:
                for k, label in enumerate(branch.labels):
                    if k:
                        out.append(",")
                    for j, piece in enumerate(label.split("..")):
                        if j:
                            out.append("..")
                        out.append(NUMBER if piece[:1].isdigit() else IDENT)
                out.append(":")
                _flatten(branch.body, out)
            if stmt.else_body:
                out.append("ELSE")
                _flatten(stmt.else_body, out)
            out += ("END_CASE", ";")
        elif isinstance(stmt, ForStatement):
            out += ("FOR", IDENT, ":=")
            out += _codes(stmt.start)
            out.append("TO")
            out += _codes(stmt.stop)
            if stmt.step:
                out.append("BY")
                out += _codes(stmt.step)
            out.append("DO")
            _flatten(stmt.body, out)
            out += ("END_FOR", ";")
        elif isinstance(stmt, WhileStatement):
            out.append("WHILE")
            out += _codes(stmt.condition)
            out.append("DO")
            _flatten(stmt.body, out)
            out += ("END_WHILE", ";")


def clone_fingerprint(pou: Pou) -> tuple[str, ...]:
    """The POU's body and actions as one stream of token codes."""
    out: list[str] = []
    _flatten(pou.all_statements(), out)
    return tuple(out)


@dataclass(frozen=True)
class CloneReport:
    groups: tuple[tuple[str, ...], ...]
    clone_ratio: Fraction
    total_pous: int


def detect_clones(project: Project, min_tokens: int = 20) -> CloneReport:
    """Group POUs whose normalized body token streams are identical."""
    # keyed by the codes joined with a space, which no code holds, so two
    # keys are equal exactly when the streams are: one string per POU costs
    # far less than a tuple of its codes
    by_stream: dict[str, list[str]] = {}
    for pou in project.pous:
        stream = clone_fingerprint(pou)
        if len(stream) < min_tokens:
            continue
        by_stream.setdefault(" ".join(stream), []).append(pou.name)

    groups = tuple(
        sorted(
            (tuple(sorted(names, key=str.lower)) for names in by_stream.values() if len(names) >= 2),
            key=lambda g: g[0].lower(),
        )
    )
    cloned = sum(len(g) for g in groups)
    total = len(project.pous)
    ratio = Fraction(cloned, total) if total else Fraction(0)
    return CloneReport(groups, ratio, total)


# --- cross-cutting POUs ---------------------------------------------------------


def detect_cross_cutting(
    graph: CallGraph,
    levels: LevelAssignment | None = None,
    k: int = 4,
    min_strata: int = 3,
) -> list[str]:
    """POUs called from at least k callers spread over >= min_strata strata.

    This is the signature of alarm and error handling that cannot stay inside
    one module: everyone on every level calls it.
    """
    levels = levels or assign_levels(graph)
    flagged: list[str] = []
    for node in graph.nodes:
        if node.external:
            continue
        callers = graph.callers(node.name)
        if len(callers) < k:
            continue
        strata = {
            levels.strata.get(c)
            for c in callers
            if levels.strata.get(c) is not None
        }
        if len(strata) >= min_strata:
            flagged.append(node.name)
    return sorted(flagged, key=str.lower)


# --- Meyer criteria + governance ------------------------------------------------


def _is_call_tree(graph: CallGraph) -> bool:
    """True when no project POU (outside the entries) has two distinct callers."""
    for node in graph.nodes:
        if node.external or node.name in graph.entries:
            continue
        if len(set(graph.callers(node.name))) > 1:
            return False
    return True


def reuse_ratio(project: Project) -> Fraction:
    """Share of FB types that are library stubs or instantiated at least twice."""
    fb_types = {p.name.lower(): p for p in project.pous if p.kind is PouKind.FUNCTION_BLOCK}
    if not fb_types:
        return Fraction(0)
    instance_counts: dict[str, int] = {name: 0 for name in fb_types}
    for pou in project.pous:
        for section in pou.var_sections:
            for decl in section.decls:
                key = decl.type_name.lower().removeprefix("array of ").strip()
                if key in instance_counts:
                    instance_counts[key] += 1
    for g in project.globals:
        key = g.type_name.lower()
        if key in instance_counts:
            instance_counts[key] += 1
    reused = sum(
        1
        for name, pou in fb_types.items()
        if pou.stub or instance_counts[name] >= 2
    )
    return Fraction(reused, len(fb_types))


def mean_fan_out(graph: CallGraph) -> Fraction:
    project_nodes = [n for n in graph.nodes if not n.external]
    if not project_nodes:
        return Fraction(0)
    outgoing = {n.name: 0 for n in project_nodes}
    for edge in graph.edges:
        if edge.caller in outgoing:
            outgoing[edge.caller] += 1
    return Fraction(sum(outgoing.values()), len(project_nodes))


def grade_meyer(
    call_graph: CallGraph,
    levels: LevelAssignment,
    style: StyleResult,
    reuse: Fraction,
    thresholds: Thresholds = Thresholds(),
) -> dict[str, Grade]:
    """Deterministic grades for the four modularity criteria.

    They derive from coupling, tree shape, the FB reuse ratio ``reuse``,
    fan-out and depth; clones feed only the governance estimate.
    """
    f = style.coupling_fraction
    depth = levels.levels_below_entry

    if f >= thresholds.flat_global_min_f:
        decomposability = Grade.MINUS
    elif f <= thresholds.hierarchical_max_f and _is_call_tree(call_graph):
        decomposability = Grade.PLUS_PLUS
    else:
        decomposability = Grade.PLUS

    if f <= thresholds.protection_pp_max_f:
        protection = Grade.PLUS_PLUS
    elif f <= thresholds.protection_p_max_f:
        protection = Grade.PLUS
    else:
        protection = Grade.MINUS

    if reuse >= thresholds.reuse_pp_min:
        composability = Grade.PLUS_PLUS
    elif reuse >= thresholds.reuse_p_min:
        composability = Grade.PLUS
    else:
        composability = Grade.MINUS

    fan_ok = mean_fan_out(call_graph) <= thresholds.fan_out_bound
    depth_ok = thresholds.depth_min <= depth <= thresholds.depth_max
    understandability = {
        2: Grade.PLUS_PLUS,
        1: Grade.PLUS,
        0: Grade.MINUS,
    }[int(fan_ok) + int(depth_ok)]

    return {
        "decomposability": decomposability,
        "composability": composability,
        "understandability": understandability,
        "protection": protection,
    }


@dataclass(frozen=True)
class GovernanceEvidence:
    """Process facts supplied by a human; they cannot be read from code."""

    templates_present: bool = False
    parameters_present: bool = False
    provenance_log_present: bool = False


def estimate_governance(
    clones: CloneReport,
    reuse: Fraction,
    evidence: GovernanceEvidence,
) -> tuple[GovernanceLevel, str]:
    """Lower-bound reuse-governance level from clones plus process evidence."""
    if evidence.templates_present:
        return (
            GovernanceLevel.L3,
            "template-based configuration in use: clone-and-own with configuration",
        )
    if evidence.parameters_present:
        return (
            GovernanceLevel.L2,
            "parameter-based configuration without templates; "
            "lower bound of the L2-L3 range reported",
        )
    if evidence.provenance_log_present and clones.clone_ratio > 0:
        return (
            GovernanceLevel.L1,
            f"copies tracked via provenance log (clone ratio {clones.clone_ratio}); "
            "clone-and-own with provenance",
        )
    detail = (
        f"clone ratio {clones.clone_ratio}, FB reuse ratio {reuse}"
        if clones.total_pous
        else "no POUs analyzed"
    )
    return GovernanceLevel.L0, f"ad-hoc clone-and-own assumed ({detail})"


def assessment_score(grades: dict[str, Grade], governance: GovernanceLevel) -> int:
    """Sum of grade points plus one when the governance mark is '+'."""
    total = sum(grades[criterion].points for criterion in MEYER_CRITERIA)
    if governance.mark == "+":
        total += 1
    return total


@dataclass(frozen=True)
class ProjectAnalysis:
    call_graph: CallGraph
    global_graph: GlobalCommGraph
    levels: LevelAssignment
    style: StyleResult
    clones: CloneReport
    cross_cutting: tuple[str, ...]
    assessment: ModularityAssessment


def assess_project(
    project: Project,
    call_graph: CallGraph,
    global_graph: GlobalCommGraph,
    thresholds: Thresholds = Thresholds(),
    evidence: GovernanceEvidence = GovernanceEvidence(),
    plant: bool = False,
) -> ProjectAnalysis:
    """Run every modularity analysis and fold the results into one assessment."""
    levels = assign_levels(call_graph, plant=plant)
    style = classify_structure_style(call_graph, global_graph, thresholds, levels)
    clones = detect_clones(project, thresholds.clone_min_tokens)
    cross = detect_cross_cutting(
        call_graph, levels, thresholds.cross_cutting_k, thresholds.cross_cutting_strata
    )
    reuse = reuse_ratio(project)
    grades = grade_meyer(call_graph, levels, style, reuse, thresholds)
    governance, rationale = estimate_governance(clones, reuse, evidence)
    assessment = ModularityAssessment(
        grades=grades,
        governance=governance,
        structure_style=style.style,
        levels_below_entry=levels.levels_below_entry,
        score_sum=assessment_score(grades, governance),
        coupling_fraction=style.coupling_fraction,
        rationale=rationale,
    )
    return ProjectAnalysis(
        call_graph, global_graph, levels, style, clones, tuple(cross), assessment
    )
