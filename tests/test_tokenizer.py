"""Differential tests: the split tokenizer against two references.

``_reference_tokenize`` is the character-by-character tokenizer, kept here
as the reference: tokens (kind, text, line, col) and diagnostics must be
identical on every input.  The store ``tokenize`` returns is compared
through ``token_view``, which computes each token's line and col.  The
reference's changes since are the typed-literal colon rule, made in both,
and ASCII character classes: identifiers and numbers are ASCII, so any
other character outside a comment, pragma or string is an ``unexpected
character`` error in both.

``oracles.reference_tokenize`` is the one-match-per-token regex tokenizer
that the single ``split`` replaced; its columns (codes, texts, offsets)
and rendered diagnostics must be identical to ``tokenize``'s.
"""

from __future__ import annotations

import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from swmat.model import IDENT, Diagnostic, TokenStore
from swmat import stparse
from swmat.stparse import KEYWORDS, is_identifier, tokenize
from oracles import reference_tokenize
from synth import random_project
import token_view
from token_view import Token, TokenKind, tokens_of

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
            # and a '.' only before no second '.' (REAL#1.5, INT#2..INT#3)
            if j < n and text[j] == "#":
                j += 1
                while j < n and (
                    text[j] in _ALNUM or text[j] in "_+-"
                    or text[j] == "." and text[j + 1 : j + 2] != "."
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
        "INT#2..INT#3: INT#6..7 REAL#1.5 T#1.5s INT#6... x#. y#.a",
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


_CODES_TEXT = "if X then y := 'a' + 1; End_If"


def test_token_codes():
    """Identifiers, numbers and strings have one code each; a keyword's code
    is its upper-cased text and an operator's its text."""
    store, diags = tokenize(_CODES_TEXT)
    assert diags == []
    assert store.codes == ["IF", "i", "THEN", "i", ":=", "s", "+", "n", ";", "END_IF"]


def test_codes_and_kinds_are_in_bijection(plant_dir, tmp_path):
    """``token_view.add`` maps a token's kind and text to its code, and
    ``kind`` maps the code back: adding every token again by its kind gives
    the same codes."""
    dirs = [plant_dir] + [random_project(tmp_path / f"random{seed}", seed) for seed in range(20)]
    texts = [path.read_text(encoding="utf-8") for d in dirs for path in sorted(d.glob("*.st"))]
    kinds = set()
    for text in [*texts, _CODES_TEXT]:  # the projects hold no string literal
        store, _ = tokenize(text)
        again = TokenStore(store.line_starts)
        for i, (token, start) in enumerate(zip(store.texts, store.starts)):
            kind = token_view.kind(store, i)
            kinds.add(kind)
            token_view.add(again, kind, token, start)
        assert again.codes == store.codes, text
    assert kinds == set(TokenKind)


def _assert_same_columns(text: str) -> None:
    store, diags = tokenize(text, "t.st")
    ref, ref_diags = reference_tokenize(text, "t.st")
    assert store.codes == ref.codes
    assert store.texts == ref.texts
    assert store.starts == ref.starts
    assert [d.render() for d in diags] == [d.render() for d in ref_diags]


# whole pieces of ST that a comment, pragma or string may start, end or
# hold, spliced in any order
_SPLICES = [
    "(* a *)", "(* (* nested *) still *)", "(* never closed", "*)", "(*", "(*)",
    "{ pragma }", "{ open", "}", "'it$'s'", "'a $$ b'", "'open", "$'", '"dq"', '"',
    "// line comment", "http://x", "(* see http://x *)", "'// in a string'",
    "{ http://x }", "(* (* a *) http://x *)", "{ '*) }", "'*)'", "'a$\nb'", "(* x { *)",
    "\r\n", "\n", "\t", " ", "é", "²", "Ⅻ", "@",
    "INT#1:", "T#5s", "TOD#12:30:00", "16#FF", "1.5e3", "1..5",
    "x", "End_If", ":=", "(", ")", "*", "/", ";", ":", "#", ".",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SPLICES), max_size=30).map("".join))
@example("x // (* not a comment\n(* // not a line comment *) y")
@example("(* http://a *)(* http://b *) z := 1; // tail")
@example("'a // b' (* c *) { d // e } f")
@example("(* (* *) 'a *) b // c' d\ne")
@example("(* (* *) { *) '(* x *) // y' z }")
def test_tokenize_matches_the_regex_reference(text):
    _assert_same_columns(text)


def test_tokenize_matches_the_regex_reference_on_projects(plant_dir, tmp_path):
    """Every ``.st`` file under ``tests/`` and generated projects."""
    tests = Path(__file__).parent
    dirs = [random_project(tmp_path / f"random{seed}", seed) for seed in range(20)]
    paths = sorted(tests.rglob("*.st")) + [path for d in dirs for path in sorted(d.glob("*.st"))]
    assert plant_dir / "main.st" in paths
    for path in paths:
        _assert_same_columns(path.read_text(encoding="utf-8"))


def test_a_comment_on_every_line_keeps_tokenizing_linear(monkeypatch):
    """A ``(* *)`` comment with ``//`` inside it on each of 20k lines, every
    other one nested, so it ends inside what was split as a ``//`` comment:
    the piece patterns are handed each character at most twice."""
    text = "(* http://x *) a := 1;\n(* (* *) http://x *) a := 1;\n" * 10_000
    handed = 0

    class Counting:
        def __init__(self, pattern):
            self.pattern = pattern

        def split(self, string):
            nonlocal handed
            handed += len(string)
            # fail at once rather than wait out a quadratic tokenizer
            assert handed <= 2 * len(text), "the piece patterns rescan the text"
            return self.pattern.split(string)

    for name in ("_PIECE_RE", "_OPENING_PIECE_RE"):
        monkeypatch.setattr(stparse, name, Counting(getattr(stparse, name)))
    store, diags = tokenize(text)
    assert diags == [] and len(store) == 4 * 20_000
    assert handed > len(text)  # the nested comments' lines were split again


_NAMES = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).map(lambda w: "".join(
        c.lower() if i % 2 else c for i, c in enumerate(w))),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(["", " ", "x ", " x", "a b", "\t", "x\n", "T#5s", "INT#1", "x#",
                     "16#FF", "1abc", "9", "_", "_1", "é", "aé", "Förderband", "x(*",
                     "a.b", "a:=1", "'s'", "x//y", "{p}"]),
    st.text(alphabet=string.ascii_letters + string.digits + "_#:. é²\t", max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(_NAMES)
def test_is_identifier_agrees_with_tokenize(name):
    """A name is an identifier exactly when ``tokenize`` reads it as one
    identifier token with the name's own text and no diagnostic."""
    store, diags = tokenize(name)
    reads_as_one = not diags and store.codes == [IDENT] and store.texts == [name]
    assert is_identifier(name) == reads_as_one
