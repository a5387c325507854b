"""Independent reference implementations used to cross-check the analyzers.

Everything here is written naively on purpose: plain loops over the statement
tree with local name resolution, no sharing of the resolution code under test.
"""

from __future__ import annotations

import math

from swmat.model import (
    Assignment,
    CallStatement,
    CaseStatement,
    ForStatement,
    IfStatement,
    Pou,
    PouKind,
    Project,
    TokenKind,
    WhileStatement,
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
        return [stmt.target, stmt.value]
    if isinstance(stmt, CallStatement):
        return [stmt.args]
    if isinstance(stmt, IfStatement):
        return [b.condition for b in stmt.branches]
    if isinstance(stmt, CaseStatement):
        return [stmt.selector]
    if isinstance(stmt, ForStatement):
        return [stmt.start, stmt.stop, stmt.step]
    if isinstance(stmt, WhileStatement):
        return [stmt.condition]
    return []


def _paths(tokens):
    """(path, followed_by_paren) for every dotted identifier path in a stream."""
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
        results.append((parts, called))
        i = j if j > i else i + 1
    return results


def _pou_bodies(pou: Pou):
    yield pou.statements
    for action in pou.actions:
        yield action.body


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


def brute_force_call_edges(project: Project) -> dict[tuple[str, str], int]:
    """Resolved (caller, callee) multiplicities, recomputed from scratch.

    Matches the type-collapsed call graph: instance calls count against the
    FB type, local action calls are internal, unknown names go to a stub
    named by the callee text.
    """
    pou_by_lower = {p.name.lower(): p for p in project.pous}
    fb_by_lower = {
        p.name.lower(): p.name for p in project.pous if p.kind is PouKind.FUNCTION_BLOCK
    }
    global_types = {g.name.lower(): g.type_name.lower() for g in project.globals}

    counts: dict[tuple[str, str], int] = {}
    for pou in project.pous:
        local_types = {}
        for section in pou.var_sections:
            for decl in section.decls:
                local_types[decl.name.lower()] = decl.type_name.lower()
        action_names = {a.name.lower() for a in pou.actions}

        for callee in reference_call_occurrences(pou):
            base = callee.split(".")[0].lower()
            if base in local_types and local_types[base] in fb_by_lower:
                target = fb_by_lower[local_types[base]]
            elif base in global_types and global_types[base] in fb_by_lower:
                target = fb_by_lower[global_types[base]]
            elif "." not in callee and base in action_names:
                continue
            elif "." not in callee and base not in local_types and base in pou_by_lower:
                target = pou_by_lower[base].name
            else:
                target = callee  # external stub keeps the callee spelling
            key = (pou.name, target)
            counts[key] = counts.get(key, 0) + 1
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

        def add_reads(tokens, skip_first=False):
            for idx, (parts, called) in enumerate(_paths(tokens)):
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
                    if stmt.target and stmt.target[0].kind is TokenKind.IDENT:
                        add_write(stmt.target[0].text)
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
                out.extend((t.kind, t.text) for t in stmt.target)
                out.append((TokenKind.OP, ":="))
                out.extend((t.kind, t.text) for t in stmt.value)
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, CallStatement):
                for k, part in enumerate(stmt.callee.split(".")):
                    if k:
                        out.append((TokenKind.OP, "."))
                    out.append((TokenKind.IDENT, part))
                out.append((TokenKind.OP, "("))
                out.extend((t.kind, t.text) for t in stmt.args)
                out.append((TokenKind.OP, ")"))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, IfStatement):
                for k, branch in enumerate(stmt.branches):
                    out.append((TokenKind.KEYWORD, "IF" if k == 0 else "ELSIF"))
                    out.extend((t.kind, t.text) for t in branch.condition)
                    out.append((TokenKind.KEYWORD, "THEN"))
                    walk(branch.body)
                if stmt.else_body:
                    out.append((TokenKind.KEYWORD, "ELSE"))
                    walk(stmt.else_body)
                out.append((TokenKind.KEYWORD, "END_IF"))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, CaseStatement):
                out.append((TokenKind.KEYWORD, "CASE"))
                out.extend((t.kind, t.text) for t in stmt.selector)
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
                out.extend((t.kind, t.text) for t in stmt.start)
                out.append((TokenKind.KEYWORD, "TO"))
                out.extend((t.kind, t.text) for t in stmt.stop)
                if stmt.step:
                    out.append((TokenKind.KEYWORD, "BY"))
                    out.extend((t.kind, t.text) for t in stmt.step)
                out.append((TokenKind.KEYWORD, "DO"))
                walk(stmt.body)
                out.append((TokenKind.KEYWORD, "END_FOR"))
                out.append((TokenKind.OP, ";"))
            elif isinstance(stmt, WhileStatement):
                out.append((TokenKind.KEYWORD, "WHILE"))
                out.extend((t.kind, t.text) for t in stmt.condition)
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
