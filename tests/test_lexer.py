"""Lexer behavior: the token stream and every lexical error, with locations."""

from __future__ import annotations

import random

import pytest

from maa.lexer import LexError, tokenize
from maa.parser import BATCH, parse_component_file

from conftest import MODELS
from genmodels import (random_component_text, random_ed_component_text,
                       random_unchecked_component_text)


def test_token_stream_pinned():
    text = ('package p;\r\n/* a\n  block */ component\tC<T> {\n'
            '  String s = "q\\"\\\\"; // c\n'
            '  «x» a->b -- -1 <= 2 != true && _v9 || false\n}')
    got = [(t.kind, t.text, t.value, t.loc.line, t.loc.column)
           for t in tokenize(text, "f")]
    assert got == [
        ("KEYWORD", "package", "package", 1, 1),
        ("NAME", "p", "p", 1, 9),
        ("SYMBOL", ";", ";", 1, 10),
        ("KEYWORD", "component", "component", 3, 12),
        ("NAME", "C", "C", 3, 22),
        ("SYMBOL", "<", "<", 3, 23),
        ("NAME", "T", "T", 3, 24),
        ("SYMBOL", ">", ">", 3, 25),
        ("SYMBOL", "{", "{", 3, 27),
        ("NAME", "String", "String", 4, 3),
        ("NAME", "s", "s", 4, 10),
        ("SYMBOL", "=", "=", 4, 12),
        # the token text holds the unescaped characters
        ("STRING", '"q"\\"', 'q"\\', 4, 14),
        ("SYMBOL", ";", ";", 4, 21),
        ("SYMBOL", "<<", "<<", 5, 3),
        ("NAME", "x", "x", 5, 4),
        ("SYMBOL", ">>", ">>", 5, 5),
        ("NAME", "a", "a", 5, 7),
        ("SYMBOL", "->", "->", 5, 8),
        ("NAME", "b", "b", 5, 10),
        ("SYMBOL", "--", "--", 5, 12),
        ("SYMBOL", "-", "-", 5, 15),
        ("INT", "1", 1, 5, 16),
        ("SYMBOL", "<=", "<=", 5, 18),
        ("INT", "2", 2, 5, 21),
        ("SYMBOL", "!=", "!=", 5, 23),
        ("KEYWORD", "true", True, 5, 26),
        ("SYMBOL", "&&", "&&", 5, 31),
        ("NAME", "_v9", "_v9", 5, 34),
        ("SYMBOL", "||", "||", 5, 38),
        ("KEYWORD", "false", False, 5, 41),
        ("SYMBOL", "}", "}", 6, 1),
        ("EOF", "", None, 6, 2),
    ]


def test_unicode_names_and_decimal_digits():
    got = [(t.kind, t.value) for t in tokenize("é_x٣ ٣2 a²", "u")]
    assert got == [("NAME", "é_x٣"), ("INT", 32), ("NAME", "a²"), ("EOF", None)]


_GUARDED = "component C { port out Integer o; automaton { state S; initial S; "

LEX_ERRORS = {
    "block comment": ("component C {\n  /* open", "unterminated block comment", 2, 3),
    "block comment closed by its opener": ("component C { /*/ }", "unterminated block comment", 1, 15),
    "string into newline": ('component C {\n  String s = "abc\n"; }',
                            "unterminated string literal", 2, 14),
    "string into end": ('component C { String s = "abc', "unterminated string literal", 1, 26),
    "escape": ('component C {\n\tString s = "a\\nb"; }', "unsupported escape sequence", 2, 15),
    "escape at end": ('component C { String s = "a\\', "unsupported escape sequence", 1, 28),
    "at sign": ("component C {\r\n  @ }", "unexpected character '@'", 2, 3),
    "no-break space": ("component\u00a0C { }", "unexpected character '\\xa0'", 1, 10),
    "single guillemet": ("component C { automaton { state ‹error› T; } }",
                         "unexpected character '‹'", 1, 33),
    "guillemet stereotype": ("component C { automaton { state «error T; } }",
                             "expected '>>', found 'T'", 1, 40),
    "superscript digit": (_GUARDED + "S / o = ²; } }", "unexpected character '²'", 1, 75),
    "integer too long": (_GUARDED + "S / o = " + "9" * 5000 + "; } }", "integer literal too long", 1, 75),
}


@pytest.mark.parametrize("text, message, line, column", LEX_ERRORS.values(), ids=list(LEX_ERRORS))
def test_lexical_error_is_syn_at_its_location(text, message, line, column):
    result = parse_component_file(text, "lex.maa")
    assert isinstance(result, list) and [d.code for d in result] == ["SYN"]
    assert (result[0].message, result[0].loc.line, result[0].loc.column) == (message, line, column)


# ---------------------------------------------------------------------------
# batches: tokenize(text, origin, after, limit) as the parser reads a file
# ---------------------------------------------------------------------------

_SOURCES = sorted(p for p in MODELS.rglob("*") if p.suffix in (".maa", ".types"))


def _fields(tokens):
    return [(t.kind, t.text, type(t.value), t.value, t.loc) for t in tokens]


def _batches(text: str, limit: int) -> list:
    batches = [tokenize(text, "b", None, limit)]
    while batches[-1][-1].kind != "EOF":
        batches.append(tokenize(text, "b", batches[-1][-1], limit))
    return batches


def _assert_batches_join_to_the_list(text: str, limits) -> None:
    whole = tokenize(text, "b")
    for limit in limits:
        batches = _batches(text, limit)
        assert all(0 < len(batch) <= limit for batch in batches), limit
        # only the token a batch resumes after holds its end offset
        assert all(t.end is None for batch in batches for t in batch[:-1]), limit
        assert _fields(t for batch in batches for t in batch) == _fields(whole), limit


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.relative_to(MODELS).as_posix())
def test_batches_join_to_the_token_list_on_the_models(path):
    text = path.read_text(encoding="utf-8")
    n = len(tokenize(text, "b"))
    # n - 1 puts the last boundary just before EOF, which is a batch of its own
    assert [t.kind for t in _batches(text, n - 1)[-1]] == ["EOF"]
    _assert_batches_join_to_the_list(text, (1, 2, 3, 7, BATCH, n - 1, n, n + 1))


@pytest.mark.parametrize("seed", range(30))
def test_batches_join_to_the_token_list_on_generated_models(seed):
    rng = random.Random(seed)
    base = (random_component_text, random_ed_component_text,
            random_unchecked_component_text)[seed % 3]
    text = base(rng)
    _assert_batches_join_to_the_list(text, (1, rng.randrange(2, 40), BATCH))


def test_a_batch_boundary_inside_a_run_of_stereotype_delimiters():
    # every limit from 1 on puts a boundary between each pair of the run's
    # tokens in turn; '<<<' lexes as '<<' '<' and a guillemet is one character
    text = "<<a>>\n«b» <<<<>>>>> <<< «»»« >>\r\n/* c */ <<-- >>"
    whole = tokenize(text, "b")
    assert [t.text for t in whole[6:13]] == ["<<", "<<", ">>", ">>", ">", "<<", "<"]
    _assert_batches_join_to_the_list(text, range(1, len(whole) + 2))


def test_a_lexical_error_is_raised_by_the_batch_that_reaches_it():
    text = "component C { port in Integer i; }\n  @"
    first = tokenize(text, "b", None, 3)
    assert [t.text for t in first] == ["component", "C", "{"]
    with pytest.raises(LexError) as raised:
        tokenize(text, "b", first[-1], 100)
    assert (raised.value.loc.line, raised.value.loc.column) == (2, 3)
