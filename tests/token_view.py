"""Tokens as (kind, text, line, col) views, for the tests.

The runtime keeps a file's tokens as the columns of a ``TokenStore`` and
each expression as a ``TokenSeq`` span of it.  The reference tokenizer and
parser in the tests keep their own code over lists of ``Token``; this
adapter expands a store or span into the same views, so the two compare
directly, and builds stores back from views for hand-made statements.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import fields, is_dataclass
from typing import Any, NamedTuple

from swmat.model import TokenKind, TokenSeq, TokenStore


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int = 0
    col: int = 0


def tokens_of(store: TokenStore, start: int = 0, end: int | None = None) -> list[Token]:
    """Tokens ``start`` up to ``end`` of the store, with their positions."""
    end = len(store) if end is None else end
    return [Token(store.kinds[i], store.texts[i], *store.position(i)) for i in range(start, end)]


def expand(seq: TokenSeq | tuple[Token, ...]) -> tuple[Token, ...]:
    """A span's tokens; a tuple of tokens (from a reference parser) as it is."""
    if isinstance(seq, TokenSeq):
        return tuple(tokens_of(seq.store, seq.start, seq.end))
    return tuple(seq)


def expanded(value: Any) -> Any:
    """A parsed value with every span in it replaced by its tokens."""
    if isinstance(value, TokenSeq):
        return expand(value)
    if isinstance(value, (list, tuple)):
        return type(value)(expanded(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return type(value)(**{f.name: expanded(getattr(value, f.name)) for f in fields(value)})
    return value


def store_of(tokens: Iterable[Token]) -> TokenStore:
    """A store holding ``tokens`` at their lines and cols.

    There is no source text: line ``n`` is laid out to start at offset
    ``(n - 1) * width``, wide enough for every token on it.
    """
    tokens = list(tokens)
    width = 1 + max((t.col + len(t.text) for t in tokens), default=0)
    lines = max((t.line for t in tokens), default=1)
    store = TokenStore(array("q", (n * width for n in range(lines))))
    for t in tokens:
        store.add(t.kind, t.text, (t.line - 1) * width + t.col - 1)
    return store


def seq_of(*tokens: Token) -> TokenSeq:
    """One span over a new store of ``tokens``."""
    return TokenSeq(store_of(tokens), 0, len(tokens))
