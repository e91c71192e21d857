"""Lexer behavior: the token stream and every lexical error, with locations."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maa.diagnostics import Locator, SourceLoc
from maa.lexer import LexError, Token, tokenize
from maa.parser import BATCH, parse_component_file

from conftest import MODELS
from genmodels import (random_component_text, random_ed_component_text,
                       random_unchecked_component_text)


def test_token_stream_pinned():
    text = ('package p;\r\n/* a\n  block */ component\tC<T> {\n'
            '  String s = "q\\"\\\\"; // c\n'
            '  «x» a->b -- -1 <= 2 != true && _v9 || false\n}')
    loc = Locator.of(text, "f").loc
    got = [(t.kind, t.text, t.value, loc(t.at).line, loc(t.at).column)
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


def _located(text: str) -> list[tuple[str, SourceLoc]]:
    """Each token's kind and location in the text, named "a"."""
    loc = Locator.of(text, "a").loc
    return [(t.kind, loc(t.at)) for t in tokenize(text, "a")]


def test_trailing_blanks_end_in_eof_after_them():
    # blanks belong to the token after them; at the end of the text there is none
    assert _located("component A { }  ")[-1][1] == SourceLoc("a", 1, 18)
    assert [(kind, loc.column) for kind, loc in _located("a \t\r")] == [("NAME", 1), ("EOF", 5)]
    assert _located("x // end") == [
        ("NAME", SourceLoc("a", 1, 1)), ("EOF", SourceLoc("a", 1, 9))]


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
    return [(t.kind, t.text, type(t.value), t.value, t.at) for t in tokens]


def _batches(text: str, limit: int) -> list:
    batches = [tokenize(text, "b", None, limit)]
    while batches[-1][-1].kind != "EOF":
        batches.append(tokenize(text, "b", batches[-1][-1], limit))
        assert len(batches) <= len(text) + 1  # a batch holds at least one token
    return batches


def _assert_batches_join_to_the_list(text: str, limits) -> None:
    whole = tokenize(text, "b")
    for limit in limits:
        batches = _batches(text, limit)
        assert all(0 < len(batch) <= limit for batch in batches), limit
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


# Pieces whose joins test the resume rule: a batch matches its last token again
# at that token's own offset, so a boundary inside a run of symbols or next to
# a comment, a string or blanks must resume where the whole list goes on.  The
# last four make lexical errors.
_RESUME_PIECES = st.one_of(
    st.from_regex(r"[a-z_][a-z0-9_]{0,3}", fullmatch=True),
    st.sampled_from(["0", "42", "007", "--", "->", "-", ">", "<", "<<<", ">>>>", "«»", "«", "»",
                     '"a\\"b"', '"\\\\"', '""', '"x\\\\\\"y"', "// c\n", "//", "// «\r\n",
                     "/* a */", "/* -> \n */", "/**/", "\r", "\n", "\t", " ", "\r\n",
                     '"', "/*", "@", '"\\n"']),
)


def _joined(text: str, limit: int):
    """The fields of a text's batches of ``limit`` tokens, joined, or the
    offset and message of the LexError that stops them."""
    try:
        batches = _batches(text, limit)
    except LexError as exc:
        return None, (exc.at, exc.message)
    assert all(0 < len(batch) <= limit for batch in batches)
    return _fields(t for batch in batches for t in batch), None


@settings(max_examples=300, deadline=None)
@given(st.lists(_RESUME_PIECES, max_size=30).map("".join))
def test_batches_resume_at_their_last_token_at_every_limit(text):
    try:
        whole = _fields(tokenize(text, "b")), None
    except LexError as exc:  # then no more tokens come before it than characters
        whole = None, (exc.at, exc.message)
    for limit in range(1, len(whole[0] or text) + 2):
        assert _joined(text, limit) == whole, limit


def test_a_lexical_error_is_raised_by_the_batch_that_reaches_it():
    text = "component C { port in Integer i; }\n  @"
    first = tokenize(text, "b", None, 3)
    assert [t.text for t in first] == ["component", "C", "{"]
    with pytest.raises(LexError) as raised:
        tokenize(text, "b", first[-1], 100)
    loc = Locator.of(text, "b").loc(raised.value.at)
    assert (loc.line, loc.column) == (2, 3)


# ---------------------------------------------------------------------------
# oracle: texts built from tokens whose kind, value and place are known
# ---------------------------------------------------------------------------

# The token set, written out again: the oracle shares no code with the lexer.
_KEYWORDS = ("package", "import", "component", "port", "in", "out", "automaton",
             "state", "initial", "connect", "var", "enum", "true", "false")
_SYMBOLS = ("<<", ">>", "->", "--", "==", "!=", "<=", ">=", "&&", "||", "{", "}", "[",
            "]", "(", ")", "<", ">", ",", ";", ".", "=", "|", "/", "!", "+", "-", "*", ":")


def _word(name: str):
    """(source, kind, text, value) of a name or keyword."""
    if name not in _KEYWORDS:
        return name, "NAME", name, name
    return name, "KEYWORD", name, {"true": True, "false": False}.get(name, name)


def _string(pieces: list[str]):
    body = "".join(pieces)
    value = "".join({'\\"': '"', "\\\\": "\\"}.get(piece, piece) for piece in pieces)
    return f'"{body}"', "STRING", f'"{value}"', value


_string_pieces = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters='"\\\n'), max_size=4),
    st.sampled_from(['\\"', "\\\\"]))

_tokens = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).map(_word),
    st.sampled_from(_KEYWORDS + ("é_x٣", "a²", "_")).map(_word),
    st.integers(0, 10**25).map(lambda n: (str(n), "INT", str(n), n)),
    st.sampled_from(["007", "٣2"]).map(lambda d: (d, "INT", d, int(d))),
    st.lists(_string_pieces, max_size=4).map(_string),
    st.sampled_from(_SYMBOLS).map(lambda s: (s, "SYMBOL", s, s)),
    st.sampled_from([("«", "<<"), ("»", ">>")]).map(lambda g: (g[0], "SYMBOL", g[1], g[1])),
)

_comment_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
_separator_pieces = st.one_of(
    st.sampled_from([" ", "\t", "  ", " \r", "\r\n", "\n", "\n\n  "]),
    _comment_text.map(lambda c: "//" + c.replace("\n", "") + "\n"),
    _comment_text.filter(lambda c: "*/" not in c).map(
        lambda c: f"/*{c}*/"),
    st.sampled_from(["/* a\n b */", "/*\r\n*/", "/**/", "/***/"]),
)
# What may end a text: nothing, blanks, a // comment without its newline.
_endings = st.sampled_from(["", " ", "\t  ", "\r", "//", "// end", " // end \t"])


@st.composite
def _oracle_texts(draw):
    """A text and its expected tokens (kind, text, value type, value, location),
    EOF included, the locations counted while the text is built."""
    pieces, expected, line, column = [], [], 1, 1

    def put(piece: str) -> None:
        nonlocal line, column
        for char in piece:
            line, column = (line + 1, 1) if char == "\n" else (line, column + 1)
        pieces.append(piece)

    put("".join(draw(st.lists(_separator_pieces, max_size=2))))
    for k, (source, kind, text, value) in enumerate(draw(st.lists(_tokens, max_size=25))):
        if k:
            separator = "".join(draw(st.lists(_separator_pieces, min_size=1, max_size=3)))
            if pieces[-1] == "/" and separator.startswith("/"):
                separator = " " + separator  # '//' and '/*' would start a comment
            put(separator)
        expected.append((kind, text, type(value), value, ("b", line, column)))
        put(source)
    ending = "".join(draw(st.lists(_separator_pieces, max_size=2))) + draw(_endings)
    put(" " + ending if pieces[-1] == "/" and ending.startswith("/") else ending)
    expected.append(("EOF", "", type(None), None, ("b", line, column)))
    return "".join(pieces), expected


@settings(max_examples=200, deadline=None)
@given(_oracle_texts())
def test_tokens_match_the_oracle_in_batches_of_every_size(case):
    text, expected = case
    whole = tokenize(text, "b")
    loc = Locator.of(text, "b").loc
    assert all(type(t) is Token and type(t.at) is int for t in whole)
    assert [(t.kind, t.text, type(t.value), t.value, tuple(loc(t.at))) for t in whole] == expected
    _assert_batches_join_to_the_list(text, range(1, len(expected) + 1))


# ---------------------------------------------------------------------------
# locator: an offset's line and column, against a count from the start
# ---------------------------------------------------------------------------

_located_pieces = st.one_of(
    st.sampled_from(["\n", "\r\n", "\r", "\t", " ", "\n\n", "  \n \t\n", "é", "٣2", "«", "»",
                     "\U0001d4b3", "a²", "// c é\n", "/* a\n\r\n b */", "component", "x1"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_located_pieces, max_size=30))
def test_the_locator_places_every_offset_as_counted_from_the_start(pieces):
    # Only "\n" ends a line; "\r", tabs and other characters are one column.
    text = "".join(pieces)
    expected, line, column = [], 1, 1
    for char in text:
        expected.append(SourceLoc("t", line, column))
        line, column = (line + 1, 1) if char == "\n" else (line, column + 1)
    expected.append(SourceLoc("t", line, column))  # the end of the text
    locator = Locator.of(text, "t")
    assert [locator.loc(at) for at in range(len(text) + 1)] == expected
