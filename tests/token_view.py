"""Tokens as (kind, text, line, col) views, for the tests.

The runtime keeps a file's tokens as the columns of a ``TokenStore``, and
the tree parser (``tree_parser``) each expression as a ``TokenSeq`` span
of it.  The reference tokenizer and
parser in the tests keep their own code over lists of ``Token``; this
adapter expands a store or span into the same views, so the two compare
directly.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, NamedTuple

from swmat.model import TokenKind, TokenStore
from tree_parser import TokenSeq


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int = 0
    col: int = 0


def tokens_of(store: TokenStore, start: int = 0, end: int | None = None) -> list[Token]:
    """Tokens ``start`` up to ``end`` of the store, with their positions."""
    end = len(store) if end is None else end
    return [Token(store.kind(i), store.texts[i], *store.position(i)) for i in range(start, end)]


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
