"""Independent reference implementations used to cross-check the analyzers.

Everything here is written naively on purpose: plain loops over the statement
tree with local name resolution, no sharing of the resolution code under test.
The runtime keeps no statement trees, so the project oracles read the trees
that ``with_trees`` takes from ``tree_parser.parse_file`` of the same sources.
"""

from __future__ import annotations

import math
import re
from array import array
from fractions import Fraction
from pathlib import Path

from swmat.graphs import GlobalCommGraph
from swmat.model import (
    IDENT,
    NUMBER,
    AnswerMode,
    Category,
    Pou,
    PouKind,
    Project,
    TokenStore,
)
from swmat.stparse import KEYWORDS, SourceFile, _line_starts, _scan_special
from token_view import TokenKind, expand
from tree_parser import (
    Assignment,
    CallStatement,
    CaseStatement,
    ForStatement,
    IfStatement,
    TreePou,
    WhileStatement,
    parse_file,
    tree_pou,
)

NormToken = tuple[TokenKind, str]


def _walk_statements(statements):
    for stmt in statements:
        yield stmt
        if isinstance(stmt, IfStatement):
            for branch in stmt.branches:
                yield from _walk_statements(branch.body)
            yield from _walk_statements(stmt.else_body)
        elif isinstance(stmt, CaseStatement):
            for branch in stmt.branches:
                yield from _walk_statements(branch.body)
            yield from _walk_statements(stmt.else_body)
        elif isinstance(stmt, (ForStatement, WhileStatement)):
            yield from _walk_statements(stmt.body)


def _token_streams(stmt):
    if isinstance(stmt, Assignment):
        streams = [stmt.target, stmt.value]
    elif isinstance(stmt, CallStatement):
        streams = [stmt.args]
    elif isinstance(stmt, IfStatement):
        streams = [b.condition for b in stmt.branches]
    elif isinstance(stmt, CaseStatement):
        streams = [stmt.selector]
    elif isinstance(stmt, ForStatement):
        streams = [stmt.start, stmt.stop, stmt.step]
    elif isinstance(stmt, WhileStatement):
        streams = [stmt.condition]
    else:
        streams = []
    return [expand(seq) for seq in streams]


def _paths(tokens):
    """(path, followed_by_paren) for every dotted identifier path in a stream,
    leaving out a member (a path right after '.') that is not called."""
    results = []
    i = 0
    while i < len(tokens):
        if tokens[i].kind is not TokenKind.IDENT:
            i += 1
            continue
        parts = [tokens[i].text]
        j = i + 1
        while (
            j + 1 < len(tokens)
            and tokens[j].kind is TokenKind.OP
            and tokens[j].text == "."
            and tokens[j + 1].kind is TokenKind.IDENT
        ):
            parts.append(tokens[j + 1].text)
            j += 2
        called = (
            j < len(tokens)
            and tokens[j].kind is TokenKind.OP
            and tokens[j].text == "("
        )
        member = i > 0 and tokens[i - 1].kind is TokenKind.OP and tokens[i - 1].text == "."
        if called or not member:
            results.append((parts, called))
        i = j if j > i else i + 1
    return results


def with_trees(project: Project) -> Project:
    """``project`` with each POU a ``TreePou``: a parsed POU's statement trees
    taken from ``tree_parser.parse_file`` of the file its ``source_index``
    names, a stub's empty."""
    parsed: dict[str, dict] = {}
    pous = []
    for pou in project.pous:
        if pou.stub:
            pous.append(tree_pou(pou, (), ()))
            continue
        path = project.source_index[pou.name].path
        if path not in parsed:
            source = SourceFile(path, Path(path).read_text(encoding="utf-8"))
            parsed[path] = {(p.name, p.span): p for p in parse_file(source).pous}
        tree = parsed[path][pou.name, pou.span]
        pous.append(tree_pou(pou, tree.statements, tree.actions))
    return project._replace(pous=tuple(pous))


def _pou_bodies(pou: Pou):
    # a POU from parse_project has a fingerprint but no trees
    assert isinstance(pou, TreePou) or not pou.fingerprint, f"{pou.name}: no trees; use with_trees"
    if isinstance(pou, TreePou):
        yield pou.statements
        yield from (action.body for action in pou.actions)


def reference_call_occurrences(pou: Pou) -> list[str]:
    """Callee texts of every call in a POU's body and actions (not in source order)."""
    occurrences = []
    for body in _pou_bodies(pou):
        for stmt in _walk_statements(body):
            if isinstance(stmt, CallStatement):
                occurrences.append(stmt.callee)
            for stream in _token_streams(stmt):
                for parts, called in _paths(stream):
                    if called:
                        occurrences.append(".".join(parts))
    return occurrences


def reference_complexity(pou: Pou) -> int:
    """One per simple statement and loop, per IF/ELSIF branch and per CASE label."""
    total = 0
    for body in _pou_bodies(pou):
        for stmt in _walk_statements(body):
            if isinstance(stmt, IfStatement):
                total += len(stmt.branches)
            elif isinstance(stmt, CaseStatement):
                total += sum(len(branch.labels) for branch in stmt.branches)
            else:
                total += 1
    return total


def _resolved_calls(project: Project):
    """(caller POU, callee text, target, instance) per inter-POU call.

    Instance calls (through a local or global of an FB type) target the FB
    type, and ``instance`` is that variable as its declaration spells it;
    it is None for every other call.  Direct calls target the POU, local
    action calls are skipped; any other text targets the POU it spells in
    any case, else a stub spelled as the text.
    """
    pou_by_lower = {p.name.lower(): p for p in project.pous}
    fb_by_lower = {
        p.name.lower(): p.name for p in project.pous if p.kind is PouKind.FUNCTION_BLOCK
    }
    global_types = {g.name.lower(): g.type_name.lower() for g in project.globals}
    global_spelling = {g.name.lower(): g.name for g in project.globals}

    for pou in project.pous:
        local_types = {}
        local_spelling = {}
        for section in pou.var_sections:
            for decl in section.decls:
                local_types[decl.name.lower()] = decl.type_name.lower()
                local_spelling[decl.name.lower()] = decl.name
        action_names = {a.name.lower() for a in pou.actions}

        for callee in reference_call_occurrences(pou):
            base = callee.split(".")[0].lower()
            if base in local_types and local_types[base] in fb_by_lower:
                yield pou, callee, fb_by_lower[local_types[base]], local_spelling[base]
            elif base in global_types and global_types[base] in fb_by_lower:
                yield pou, callee, fb_by_lower[global_types[base]], global_spelling[base]
            elif "." not in callee and base in action_names:
                continue
            elif "." not in callee and base not in local_types and base in pou_by_lower:
                yield pou, callee, pou_by_lower[base].name, None
            elif callee.lower() in pou_by_lower:
                yield pou, callee, pou_by_lower[callee.lower()].name, None
            else:
                yield pou, callee, callee, None


def brute_force_call_edges(project: Project) -> dict[tuple[str, str], int]:
    """Resolved (caller, callee) multiplicities, recomputed from scratch.

    Matches the type-collapsed call graph: instance calls count against the
    FB type, local action calls are internal, unknown names go to a stub
    named by the callee text.
    """
    counts: dict[tuple[str, str], int] = {}
    for pou, _, target, _ in _resolved_calls(project):
        counts[pou.name, target] = counts.get((pou.name, target), 0) + 1
    return counts


def brute_force_instance_edges(project: Project) -> dict[tuple[str, str], int]:
    """(caller, callee) multiplicities of the per-instance call graph.

    An instance call goes to the node ``<caller>.<instance>``, the instance
    spelled as declared; each such node then makes every call its FB type
    makes, counted as in the type-collapsed graph.
    """
    type_edges = brute_force_call_edges(project)
    counts: dict[tuple[str, str], int] = {}
    instance_types: dict[str, str] = {}
    for pou, _, target, instance in _resolved_calls(project):
        if instance is not None:
            target_node = f"{pou.name}.{instance}"
            instance_types.setdefault(target_node, target)
        else:
            target_node = target
        counts[pou.name, target_node] = counts.get((pou.name, target_node), 0) + 1
    for node, fb_type in instance_types.items():
        for (caller, callee), count in type_edges.items():
            if caller == fb_type:
                counts[node, callee] = counts.get((node, callee), 0) + count
    return counts


def reference_global_accesses(project: Project) -> dict[str, tuple[set[str], set[str]]]:
    """Per POU name, the (reads, writes) of visible globals, by a private LHS scan."""
    global_names = {g.name.lower(): g.name for g in project.globals}
    accesses = {}

    for pou in project.pous:
        local = set()
        for section in pou.var_sections:
            for decl in section.decls:
                local.add(decl.name.lower())
        visible = {k: v for k, v in global_names.items() if k not in local}
        reads: set[str] = set()
        writes: set[str] = set()

        def add_reads(seq, skip_first=False):
            for idx, (parts, called) in enumerate(_paths(expand(seq))):
                if called:
                    continue
                if skip_first and idx == 0:
                    continue
                name = visible.get(parts[0].lower())
                if name:
                    reads.add(name)

        def add_write(text):
            name = visible.get(text.lower())
            if name:
                writes.add(name)

        for body in _pou_bodies(pou):
            for stmt in _walk_statements(body):
                if isinstance(stmt, Assignment):
                    target = expand(stmt.target)
                    if target and target[0].kind is TokenKind.IDENT:
                        add_write(target[0].text)
                    add_reads(stmt.target, skip_first=True)
                    add_reads(stmt.value)
                elif isinstance(stmt, CallStatement):
                    add_reads(stmt.args)
                elif isinstance(stmt, IfStatement):
                    for branch in stmt.branches:
                        add_reads(branch.condition)
                elif isinstance(stmt, CaseStatement):
                    add_reads(stmt.selector)
                elif isinstance(stmt, ForStatement):
                    add_write(stmt.var)
                    add_reads(stmt.start)
                    add_reads(stmt.stop)
                    add_reads(stmt.step)
                elif isinstance(stmt, WhileStatement):
                    add_reads(stmt.condition)
        accesses[pou.name] = (reads, writes)
    return accesses


def brute_force_global_edges(project: Project) -> set[tuple[str, str, str]]:
    """(writer, reader, global) triples from the per-POU reference accesses."""
    reads: dict[str, set[str]] = {}
    writes: dict[str, set[str]] = {}
    for pou_name, (pou_reads, pou_writes) in reference_global_accesses(project).items():
        for g in pou_reads:
            reads.setdefault(g, set()).add(pou_name)
        for g in pou_writes:
            writes.setdefault(g, set()).add(pou_name)

    edges = set()
    for g in set(reads) | set(writes):
        for writer in writes.get(g, ()):
            for reader in reads.get(g, ()):
                if reader != writer:
                    edges.add((writer, reader, g))
    return edges


def _reference_option_score(question, answer: str) -> Fraction:
    """The score of the option an answer names: the option whose key is the
    answer as written, else whose key, else whose label, equals it ignoring
    case; the first such option in the question's order."""
    folded = answer.lower()
    for matches in (
        lambda option: option.key == answer,
        lambda option: option.key.lower() == folded,
        lambda option: option.label.lower() == folded,
    ):
        for option in question.options:
            if matches(option):
                return option.score
    raise KeyError(answer)


def reference_report(schema, answers, strict: bool = False) -> dict:
    """One company's scores from the definitions, with plain Fraction sums.

    Each single-choice question of a scored category gets the 0..5 score
    ``score * 5 / weight`` (None unanswered).  A category gains its answered
    scores over the weights of its answered questions (of all its questions
    when strict); the overall adds up gains and weights across categories.
    """
    scored = (Category.MOD, Category.TEST, Category.OP)
    normalized: dict[int, Fraction | None] = {}
    points = {category: (Fraction(0), Fraction(0)) for category in scored}
    for question in schema.questions:
        if question.mode is not AnswerMode.SINGLE_CHOICE or question.category not in scored:
            continue
        gained, reachable = points[question.category]
        answer = answers.answers.get(question.id)
        if answer is None:
            normalized[question.id] = None
            if strict:
                reachable += question.weight
        else:
            score = _reference_option_score(question, answer)
            normalized[question.id] = score * 5 / question.weight
            gained += score
            reachable += question.weight
        points[question.category] = (gained, reachable)
    gained = sum((g for g, _ in points.values()), Fraction(0))
    reachable = sum((r for _, r in points.values()), Fraction(0))
    return {
        "normalized": normalized,
        "points": points,
        "maturity": {c: (g / r if r else None) for c, (g, r) in points.items()},
        "overall": gained / reachable if reachable else None,
        "unanswered": tuple(q.id for q in schema.questions if q.id not in answers.answers),
    }


def reference_cohort(reports: list[dict]) -> dict:
    """Per-question and per-category means of ``reference_report`` results."""

    def mean(values):
        present = [v for v in values if v is not None]
        return sum(present, Fraction(0)) / len(present) if present else None

    qids = reports[0]["normalized"]
    return {
        "question_means": {q: mean(r["normalized"][q] for r in reports) for q in qids},
        "question_counts": {
            q: sum(r["normalized"][q] is not None for r in reports) for q in qids
        },
        "category_means": {
            c: mean(r["maturity"][c] for r in reports) for c in reports[0]["maturity"]
        },
    }


def pearson_reference(xs: list[float], ys: list[float]) -> float:
    """Correlation straight from the covariance / sigma definition."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((xs[i] - mx) * (ys[i] - my) for i in range(n)) / n
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs) / n)
    sy = math.sqrt(sum((y - my) ** 2 for y in ys) / n)
    return cov / (sx * sy)


def bfs_strata(edges: dict[str, list[str]], entries: list[str]) -> dict[str, int]:
    """Textbook BFS distances, for checking level assignment."""
    dist = {e: 0 for e in entries}
    frontier = list(entries)
    while frontier:
        nxt = []
        for node in frontier:
            for callee in edges.get(node, []):
                if callee not in dist:
                    dist[callee] = dist[node] + 1
                    nxt.append(callee)
        frontier = nxt
    return dist


def reference_statement_stream(statements) -> list[NormToken]:
    """(kind, text) pairs of a statement tree, printed by plain recursion."""
    out: list[NormToken] = []

    def walk(stmts):
        for stmt in stmts:
            if isinstance(stmt, Assignment):
                out.extend((t.kind, t.text) for t in expand(stmt.target))
                out.append((TokenKind.OP, ":="))
                out.extend((t.kind, t.text) for t in expand(stmt.value))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, CallStatement):
                for k, part in enumerate(stmt.callee.split(".")):
                    if k:
                        out.append((TokenKind.OP, "."))
                    out.append((TokenKind.IDENT, part))
                out.append((TokenKind.OP, "("))
                out.extend((t.kind, t.text) for t in expand(stmt.args))
                out.append((TokenKind.OP, ")"))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, IfStatement):
                for k, branch in enumerate(stmt.branches):
                    out.append((TokenKind.KEYWORD, "IF" if k == 0 else "ELSIF"))
                    out.extend((t.kind, t.text) for t in expand(branch.condition))
                    out.append((TokenKind.KEYWORD, "THEN"))
                    walk(branch.body)
                if stmt.else_body:
                    out.append((TokenKind.KEYWORD, "ELSE"))
                    walk(stmt.else_body)
                out.append((TokenKind.KEYWORD, "END_IF"))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, CaseStatement):
                out.append((TokenKind.KEYWORD, "CASE"))
                out.extend((t.kind, t.text) for t in expand(stmt.selector))
                out.append((TokenKind.KEYWORD, "OF"))
                for branch in stmt.branches:
                    for k, label in enumerate(branch.labels):
                        if k:
                            out.append((TokenKind.OP, ","))
                        for j, piece in enumerate(label.split("..")):
                            if j:
                                out.append((TokenKind.OP, ".."))
                            kind = TokenKind.NUMBER if piece[:1].isdigit() else TokenKind.IDENT
                            out.append((kind, piece))
                    out.append((TokenKind.OP, ":"))
                    walk(branch.body)
                if stmt.else_body:
                    out.append((TokenKind.KEYWORD, "ELSE"))
                    walk(stmt.else_body)
                out.append((TokenKind.KEYWORD, "END_CASE"))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, ForStatement):
                out.append((TokenKind.KEYWORD, "FOR"))
                out.append((TokenKind.IDENT, stmt.var))
                out.append((TokenKind.OP, ":="))
                out.extend((t.kind, t.text) for t in expand(stmt.start))
                out.append((TokenKind.KEYWORD, "TO"))
                out.extend((t.kind, t.text) for t in expand(stmt.stop))
                if stmt.step:
                    out.append((TokenKind.KEYWORD, "BY"))
                    out.extend((t.kind, t.text) for t in expand(stmt.step))
                out.append((TokenKind.KEYWORD, "DO"))
                walk(stmt.body)
                out.append((TokenKind.KEYWORD, "END_FOR"))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, WhileStatement):
                out.append((TokenKind.KEYWORD, "WHILE"))
                out.extend((t.kind, t.text) for t in expand(stmt.condition))
                out.append((TokenKind.KEYWORD, "DO"))
                walk(stmt.body)
                out.append((TokenKind.KEYWORD, "END_WHILE"))
                out.append((TokenKind.OP, ";"))

    walk(statements)
    return out


def normalize_tokens(stream) -> tuple[NormToken, ...]:
    """Identifiers become ("id"), numbers and strings ("lit"), the rest upper case.

    Idempotent: normalizing a normalized stream changes nothing.
    """
    out: list[NormToken] = []
    for kind, text in stream:
        if kind is TokenKind.IDENT:
            out.append((kind, "id"))
        elif kind in (TokenKind.NUMBER, TokenKind.STRING):
            out.append((kind, "lit"))
        else:
            out.append((kind, text.upper()))
    return tuple(out)


def clone_body_reference(pou: Pou) -> tuple[NormToken, ...]:
    """A POU's body and action bodies as one normalized (kind, text) stream."""
    statements = [stmt for body in _pou_bodies(pou) for stmt in body]
    return normalize_tokens(reference_statement_stream(statements))


def clone_groups_reference(project: Project, min_tokens: int = 20) -> tuple[tuple[str, ...], ...]:
    """POUs with equal normalized streams of at least min_tokens, as sorted groups."""
    by_stream: dict[tuple[NormToken, ...], list[str]] = {}
    for pou in project.pous:
        stream = clone_body_reference(pou)
        if len(stream) >= min_tokens:
            by_stream.setdefault(stream, []).append(pou.name)
    groups = [sorted(names, key=str.lower) for names in by_stream.values() if len(names) > 1]
    return tuple(sorted((tuple(g) for g in groups), key=lambda g: g[0].lower()))


# --- tokenizer --------------------------------------------------------------

# One match per token, after the blanks, newlines and ``//`` comments ahead
# of it; what the pattern leaves at a token start goes to ``_scan_special``.
# This is the one-match-per-token tokenizer that ``stparse.tokenize``'s
# single ``split`` replaced, kept as the reference for it.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+ | //[^\n]*)*
    (?:
        (?P<word>[A-Za-z_]\w*)(?P<typed>\#(?:[\w+\-]|\.(?!\.)|:(?=[0-9]))*)?
      | (?P<op>:=|<=|>=|<>|\.\.|=>|\*\*|\((?!\*)|[-+*/)\[\]<>=.,;:&\#%])
      | (?P<number>[0-9][\w\#]*(?:\.[0-9]\w*)?)
    )?
    """,
    re.VERBOSE | re.ASCII,
)


def reference_tokenize(text: str, path: str = "<string>") -> tuple[TokenStore, list]:
    """Tokens of ``text``, one regex match per token, in a ``TokenStore``."""
    store = TokenStore(_line_starts(text))
    codes, texts = store.codes, store.texts
    store.starts = starts = []  # ``_scan_special`` appends its strings here too
    diags: list = []
    n = len(text)
    pos = 0
    while pos < n:
        for m in _TOKEN_RE.finditer(text, pos):
            group = m.lastgroup
            if group == "word":
                word = m.group(group)
                upper = word.upper()
                codes.append(upper if upper in KEYWORDS else IDENT)
                starts.append(m.start(group))
                texts.append(word)
            elif group == "op":
                codes.append(m.group(group))
                starts.append(m.start(group))
                texts.append(m.group(group))
            elif group == "number" or group == "typed":
                start = m.start("word" if group == "typed" else group)
                codes.append(NUMBER)
                starts.append(start)
                texts.append(text[start : m.end()])
            else:  # end of text, or a token for _scan_special
                pos = m.end()
                break
        if pos >= n:
            break
        pos = _scan_special(text, pos, path, store, diags)
    store.starts = array("I", starts)
    return store, diags


# --- global communication DOT -------------------------------------------------


def _dot_id(name: str) -> str:
    escaped = "".join("\\" + c if c in '\\"' else c for c in name)
    return f'"{escaped}"'


def reference_global_dot_lines(graph: GlobalCommGraph) -> list[str]:
    """The edge lines of the global DOT, by brute force: every writer x
    reader pair of each global whose names differ in lower case, sorted by
    writer, reader and global in lower case, then by the line.  Writers
    equal in lower case keep the order they first appear in."""
    first_seen: dict[str, int] = {}
    for users in graph.globals:
        for writer in users.writers:
            first_seen.setdefault(writer, len(first_seen))
    edges = []
    for users in graph.globals:
        for writer in users.writers:
            for reader in users.readers:
                if reader.lower() != writer.lower():
                    line = f"  {_dot_id(writer)} -> {_dot_id(reader)} [label={_dot_id(users.name)}];"
                    key = (writer.lower(), first_seen[writer], reader.lower(), users.name.lower())
                    edges.append((key, line))
    return [line for _, line in sorted(edges)]
