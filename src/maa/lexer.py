"""Tokenizer for model and type-declaration files.

Both formats share one token set: names, integer and string literals, keywords,
punctuation, ``--`` (absence), stereotype delimiters in both ``<<``/``>>`` and
guillemet form, plus ``//`` and ``/* */`` comments.

One compiled master regex with a named group per token kind is matched from
each position to the next (the "Writing a Tokenizer" recipe of the ``re``
documentation); the matches are consumed as they are found.  Every match
starts with the blanks (spaces, tabs, carriage returns) before its token, so
each token takes one match; only a run of whitespace that holds a newline,
and a comment, is a match of its own that yields no token.  Three groups
catch what cannot start a token: an unterminated block comment, an
unterminated string and any other character but a blank, so every position
but trailing blanks matches and each lexical error is raised where the text
goes wrong.  A token and a lexical error carry the code-point offset where
they start; lines and columns are the parser's concern (see
:class:`maa.diagnostics.Locator`).  Names and symbols are interned, so that
equal ones in a parsed tree, such as state names and operators, are one
string.  A call can stop after a given number of tokens and the next one
resume after the last of them, which it matches again at its own offset and
drops, so the parser lexes a file a batch at a time; with no lookbehind in the
regex and blanks before a lexeme, that match is the same token.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple, Optional

KEYWORDS = frozenset({
    "package", "import", "component", "port", "in", "out",
    "automaton", "state", "initial", "connect", "var", "enum",
    "true", "false",
})

# Multi-character symbols, longest first.
_SYMBOLS = [
    "<<", ">>", "->", "--", "==", "!=", "<=", ">=", "&&", "||",
    "{", "}", "[", "]", "(", ")", "<", ">", ",", ";", ".", "=", "|",
    "/", "!", "+", "-", "*", ":",
]

_GUILLEMETS = {"«": "<<", "»": ">>"}

# A string body: no quote, backslash or newline, except the escapes \" and \\.
_STRING_BODY = r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*'

# Blanks within a line belong to the match of the token after them.
_TOKEN = re.compile(r"[ \t\r]*(?:" + "|".join([
    r"(?P<SKIP>\n[ \t\r\n]*|//[^\n]*|/\*(?s:.*?)\*/)",
    r"(?P<OPEN_COMMENT>/\*)",
    rf'(?P<STRING>{_STRING_BODY}")',
    rf"(?P<OPEN_STRING>{_STRING_BODY})",
    # \d is str.isdecimal, exactly the digits int() accepts
    r"(?P<INT>\d+)",
    # \w is str.isalnum or "_"; a name must also start with isalpha or "_"
    r"(?P<NAME>\w+)",
    "(?P<SYMBOL>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    "(?P<GUILLEMET>[«»])",
    # not a blank, or trailing blanks would backtrack into it
    r"(?P<OTHER>[^ \t\r])",
]) + ")")

_ESCAPE = re.compile(r'\\(["\\])')


class LexError(Exception):
    """A lexical error at code-point offset ``at`` of the text."""

    def __init__(self, at: int, message: str):
        super().__init__(f"offset {at}: {message}")
        self.at = at
        self.message = message


class Token(NamedTuple):
    kind: str  # NAME, INT, STRING, KEYWORD, SYMBOL, EOF
    text: str
    value: object
    at: int  # the code-point offset where the lexeme starts


def tokenize(text: str, origin: str, after: Optional[Token] = None,
             limit: Optional[int] = None) -> list[Token]:
    """Split source text into tokens; raises :class:`LexError` on bad input.

    ``limit`` returns at most that many tokens, and ``after``, the last token
    of such a batch, resumes the lexing after its match at its own offset.
    The EOF token ends the last batch, so a text's batches, each resuming
    after the last token of the one before, join to its whole list.
    ``origin``, the file's name, is not read: offsets need no file until a
    locator turns them into locations."""
    tokens: list[Token] = []
    new = tuple.__new__  # the NamedTuples' own __new__ is a Python-level call
    intern = sys.intern
    matches = _TOKEN.finditer(text, 0 if after is None else after.at)
    if after is not None:
        next(matches)
    for m in matches:
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        at = m.start(kind)
        lexeme = m.group(kind)
        if kind == "NAME":
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                raise LexError(at, f"unexpected character {lexeme[0]!r}")
            lexeme = value = intern(lexeme)
            if lexeme in KEYWORDS:
                kind = "KEYWORD"
                if lexeme in ("true", "false"):
                    value = lexeme == "true"
        elif kind == "SYMBOL":
            lexeme = value = intern(lexeme)
        elif kind == "INT":
            try:
                value = int(lexeme)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise LexError(at, "integer literal too long") from None
        elif kind == "STRING":
            value = _ESCAPE.sub(r"\1", lexeme[1:-1]) if "\\" in lexeme else lexeme[1:-1]
            lexeme = f'"{value}"'
        elif kind == "GUILLEMET":
            kind, lexeme = "SYMBOL", _GUILLEMETS[lexeme]
            value = lexeme
        elif kind == "OPEN_STRING":
            end = m.end()
            if text.startswith("\\", end):
                raise LexError(end, "unsupported escape sequence")
            raise LexError(at, "unterminated string literal")
        elif kind == "OPEN_COMMENT":
            raise LexError(at, "unterminated block comment")
        else:
            raise LexError(at, f"unexpected character {lexeme!r}")
        tokens.append(new(Token, (kind, lexeme, value, at)))
        if len(tokens) == limit:
            return tokens
    tokens.append(Token("EOF", "", None, len(text)))
    return tokens
