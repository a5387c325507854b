"""A Structured Text printer for parsed POUs, used by the round-trip and
differential tests.

``statement_stream`` flattens a statement tree back into (kind, text)
pairs with ``oracles.reference_statement_stream``; ``format_pou`` prints
a POU from them, and ``pou_signature`` is the position-free projection
that compares a POU with its reprint.
"""

from __future__ import annotations

from collections.abc import Sequence

from oracles import reference_statement_stream
from swmat.model import Pou, Statement, TokenKind


def statement_stream(statements: Sequence[Statement]) -> list[tuple[TokenKind, str]]:
    """Flatten a statement tree back into (kind, text) pairs.

    The stream re-lexes to the same token sequence, which makes it usable
    for pretty printing and for structural comparison.
    """
    return reference_statement_stream(statements)


_BREAK_AFTER = {";", "THEN", "ELSE", "DO", "OF"}


def _render_stream(stream: list[tuple[TokenKind, str]]) -> str:
    lines: list[str] = []
    current: list[str] = []
    for _, text in stream:
        current.append(text)
        if text.upper() in _BREAK_AFTER:
            lines.append(" ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines)


def format_pou(pou: Pou) -> str:
    """Emit a POU back as Structured Text, without what the model does not keep.

    Dropped are comments and layout, ``AT`` addresses, RETAIN/PERSISTENT
    qualifiers and array bounds.  ``ARRAY[0..3] OF INT`` prints as
    ``ARRAY OF INT``, which does not parse again.
    """
    head = pou.kind.name
    parts = [f"{head} {pou.name}" + (f" : {pou.return_type}" if pou.return_type else "")]
    for section in pou.var_sections:
        header = section.kind.name
        if section.constant:
            header += " CONSTANT"
        parts.append(header)
        for decl in section.decls:
            init = f" := {decl.init}" if decl.init is not None else ""
            parts.append(f"  {decl.name} : {decl.type_name}{init};")
        parts.append("END_VAR")
    parts.append(_render_stream(statement_stream(pou.statements)))
    for action in pou.actions:
        parts.append(f"ACTION {action.name}")
        parts.append(_render_stream(statement_stream(action.body)))
        parts.append("END_ACTION")
    parts.append("END_" + head)
    return "\n".join(p for p in parts if p) + "\n"


def pou_signature(pou: Pou) -> tuple:
    """Position-free structural projection of a POU, for equality checks.

    It sees what ``format_pou`` prints, so it ignores the same dropped parts.
    """
    return (
        pou.name.lower(),
        pou.kind,
        (pou.return_type or "").lower(),
        tuple(
            (
                s.kind,
                s.constant,
                tuple((d.name.lower(), d.type_name.lower(), d.init) for d in s.decls),
            )
            for s in pou.var_sections
        ),
        tuple(statement_stream(pou.statements)),
        tuple(
            (a.name.lower(), tuple(statement_stream(a.body))) for a in pou.actions
        ),
    )
