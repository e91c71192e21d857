"""Lexer behavior: the token stream and every lexical error, with locations."""

from __future__ import annotations

import pytest

from maa.lexer import tokenize
from maa.parser import parse_component_file


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
