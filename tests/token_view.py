"""Tokens as (kind, text, line, col) views, for the tests.

The runtime keeps a file's tokens as the columns of a ``TokenStore``, and
the tree parser (``tree_parser``) each expression as a ``TokenSeq`` span
of it.  The reference tokenizer and
parser in the tests keep their own code over lists of ``Token``; this
adapter expands a store or span into the same views, so the two compare
directly.

The runtime tells tokens apart by their codes alone.  ``kind`` reads a
token's ``TokenKind`` off its code, and ``add`` appends a token of a given
kind with the code the tokenizer would give it.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum
from sys import intern
from typing import Any, NamedTuple

from swmat.model import IDENT, NUMBER, STRING, TokenStore
from tree_parser import TokenSeq


class TokenKind(Enum):
    """The kind of a token, as ``kind`` reads it off its code."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    OP = "op"


_LITERAL_CODES = {TokenKind.IDENT: IDENT, TokenKind.NUMBER: NUMBER, TokenKind.STRING: STRING}
_LITERAL_KINDS = {code: kind for kind, code in _LITERAL_CODES.items()}


def kind(store: TokenStore, i: int) -> TokenKind:
    """The kind of token ``i`` of the store, read off its code: keyword codes
    are upper-case words, and operators hold no letters."""
    code = store.codes[i]
    return _LITERAL_KINDS.get(code) or (TokenKind.KEYWORD if code[0].isalpha() else TokenKind.OP)


def add(store: TokenStore, kind: TokenKind, text: str, start: int) -> None:
    """Append one token of kind ``kind`` starting at offset ``start``, with
    the code the tokenizer gives it."""
    code = _LITERAL_CODES.get(kind)
    store.codes.append(code or (intern(text.upper()) if kind is TokenKind.KEYWORD else text))
    store.starts.append(start)
    store.texts.append(text)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int = 0
    col: int = 0


def tokens_of(store: TokenStore, start: int = 0, end: int | None = None) -> list[Token]:
    """Tokens ``start`` up to ``end`` of the store, with their positions."""
    end = len(store) if end is None else end
    return [Token(kind(store, i), store.texts[i], *store.position(i)) for i in range(start, end)]


def expand(seq: TokenSeq | tuple[Token, ...]) -> tuple[Token, ...]:
    """A span's tokens; a tuple of tokens (from a reference parser) as it is."""
    if isinstance(seq, TokenSeq):
        return tuple(tokens_of(seq.store, seq.start, seq.end))
    return tuple(seq)


def expanded(value: Any) -> Any:
    """A parsed value with every span in it replaced by its tokens."""
    if isinstance(value, TokenSeq):
        return expand(value)
    if hasattr(value, "_fields") and not isinstance(value, type):  # a record
        return value._replace(**{name: expanded(getattr(value, name)) for name in value._fields})
    if isinstance(value, (list, tuple)):
        return type(value)(expanded(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return type(value)(**{f.name: expanded(getattr(value, f.name)) for f in fields(value)})
    return value
