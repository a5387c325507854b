"""Differential tests: the regex tokenizer against the character-by-character one.

``_reference_tokenize`` is the tokenizer ``stparse.tokenize`` replaced, kept
here as the reference: tokens (kind, text, line, col) and diagnostics must
be identical on every input.  The store ``tokenize`` returns is compared
through ``token_view``, which computes each token's line and col.  The
reference's changes since are the typed-literal colon rule, made in both,
and ASCII character classes: identifiers and numbers are ASCII, so any
other character outside a comment, pragma or string is an ``unexpected
character`` error in both.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from swmat.model import Diagnostic, TokenKind
from swmat import stparse
from swmat.stparse import KEYWORDS, tokenize
from token_view import Token, tokens_of

_TWO_CHAR_OPS = (":=", "<=", ">=", "<>", "..", "=>", "**")
_ONE_CHAR_OPS = "+-*/()[]<>=.,;:&#%"
_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)
_ALNUM = _DIGITS | _LETTERS


def _reference_tokenize(text: str, path: str = "<string>") -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "/" and text[i : i + 2] == "//":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch == "(" and text[i : i + 2] == "(*":
            start_line, start_col = line, col
            depth = 0
            while i < n:
                if text[i : i + 2] == "(*":
                    depth += 1
                    advance(2)
                elif text[i : i + 2] == "*)":
                    depth -= 1
                    advance(2)
                    if depth == 0:
                        break
                else:
                    advance(1)
            else:
                diags.append(
                    Diagnostic("warning", "unterminated comment", path=path,
                               line=start_line, col=start_col)
                )
            continue
        if ch == "{":
            # vendor pragma; skip to closing brace
            start_line, start_col = line, col
            while i < n and text[i] != "}":
                advance(1)
            if i < n:
                advance(1)
            else:
                diags.append(
                    Diagnostic("warning", "unterminated pragma", path=path,
                               line=start_line, col=start_col)
                )
            continue
        if ch in "'\"":
            quote = ch
            start_line, start_col = line, col
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\n":
                    break
                j += 2 if text[j] == "$" else 1
            if j >= n or text[j] != quote:
                diags.append(
                    Diagnostic("error", "unterminated string literal", path=path,
                               line=start_line, col=start_col)
                )
                tokens.append(Token(TokenKind.STRING, text[i:j], start_line, start_col))
                advance(j - i)
                continue
            tokens.append(Token(TokenKind.STRING, text[i : j + 1], start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch in _DIGITS:
            start_line, start_col = line, col
            j = i
            while j < n and (text[j] in _ALNUM or text[j] in "_#"):
                j += 1
            # keep a decimal part, but leave ".." (subrange) alone
            if j < n and text[j] == "." and text[j : j + 2] != ".." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and (text[j] in _ALNUM or text[j] == "_"):
                    j += 1
            tokens.append(Token(TokenKind.NUMBER, text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch in _LETTERS or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (text[j] in _ALNUM or text[j] == "_"):
                j += 1
            word = text[i:j]
            # typed literals such as T#5s, 16#FF written with a type prefix;
            # a ':' belongs to one only before a digit (TOD#12:30, INT#1: ...)
            if j < n and text[j] == "#":
                j += 1
                while j < n and (
                    text[j] in _ALNUM or text[j] in "_.+-"
                    or text[j] == ":" and j + 1 < n and text[j + 1] in "0123456789"
                ):
                    j += 1
                tokens.append(Token(TokenKind.NUMBER, text[i:j], start_line, start_col))
                advance(j - i)
                continue
            kind = TokenKind.KEYWORD if word.upper() in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, start_line, start_col))
            advance(j - i)
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, two, line, col))
            advance(2)
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, line, col))
            advance(1)
            continue
        diags.append(
            Diagnostic("error", f"unexpected character {ch!r}", path=path, line=line, col=col)
        )
        advance(1)
    return tokens, diags


def _assert_same(text: str) -> None:
    store, diags = tokenize(text, "t.st")
    ref_tokens, ref_diags = _reference_tokenize(text, "t.st")
    assert len(store) == len(ref_tokens)
    assert tokens_of(store) == ref_tokens
    assert diags == ref_diags


_PIECES = (
    list("abcxyzABCXYZ0123456789")
    + ["_", "#", "$", ".", "..", ":", ":=", "(", ")", "(*", "*)", "{", "}",
       "'", '"', "//", "\n", "\t", "\r", " ", "²", "é", "Ⅻ"]
    + list("*<>=+-/,;&%[]") + ["<=", ">=", "<>", "=>", "**"]
)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
@example("x := 1.5;\n(* a (* nested *) comment *)\ny := 'it$'s';")
def test_tokenize_matches_reference(text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "(* never closed",
        "(* (* nested *) but not closed",
        "(* one *) (* two\n lines *) x",
        "(*)",
        "(**)",
        "(***) y",
        "a (* 1 (* 2 *) 1 *) b",
        "{ pragma never closed",
        "{ attribute 'x' } y",
        "{ over\ntwo lines } y",
        "'never closed",
        "'closed by a newline\n' x",
        '"double" "open',
        "'$'' 'a$$b' '$n$t'",
        "'ends in a dollar$\n' z",
        "'dollar then newline$\ncontinues' z",
        "'dollar at the end$",
        "x$",
        "1..5",
        "ARRAY[1..5] OF INT",
        "1.5 1.e 1._ 1.2.3",
        "T#5s T#1h2m3s500ms",
        "16#FF 2#1010_1010 8#777",
        "DT#2024-01-01-12:30:00 TIME#-5s",
        "INT#+5 x#",
        "INT#1: INT#1:x é#1: é#1:2 T#: TOD#12:30:00: DT#1:²",
        "²3 3² 1.² é1 Ⅻ aⅫ",
        "a\tb\r\nc\rd",
        "@ ! ? ~ ` \\",
        "// comment only",
        "x // trailing comment\ny",
        "a<=b>=c<>d=>e**f*)g",
        "(a)(*c*)( *)(b*)*(*",
        "x:=-1+2/3,y;z&w%v[1]<>=>=<=**",
        "",
    ],
)
def test_tokenize_matches_reference_on_edge_cases(text):
    _assert_same(text)


def test_parse_file_calls_tokenize_through_the_module(monkeypatch):
    """Tracing replaces ``stparse.tokenize`` in the module namespace and
    counts tokens as ``len`` of the store it returns, so ``parse_file`` must
    look the module-level function up there on every call."""
    assert tokenize.__module__ == "swmat.stparse" and tokenize.__qualname__ == "tokenize"
    counts = []

    def traced(text, path):
        result = tokenize(text, path)
        counts.append(len(result[0]))
        return result

    text = "PROGRAM p\nx := f(1);\nEND_PROGRAM\n"
    monkeypatch.setattr(stparse, "tokenize", traced)
    stparse.parse_file(stparse.SourceFile("t.st", text))
    assert counts == [len(_reference_tokenize(text)[0])] == [10]
