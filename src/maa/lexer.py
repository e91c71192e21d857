"""Tokenizer for model and type-declaration files.

Both formats share one token set: names, integer and string literals, keywords,
punctuation, ``--`` (absence), stereotype delimiters in both ``<<``/``>>`` and
guillemet form, plus ``//`` and ``/* */`` comments.

One compiled master regex with a named group per token kind is matched from
each position to the next (the "Writing a Tokenizer" recipe of the ``re``
documentation); the matches are consumed as they are found.  Three groups
catch what cannot start a token: an unterminated block comment, an
unterminated string and any other character, so every position matches and
each lexical error is raised where the text goes wrong.  Line and column are
counted from newline offsets; only skipped whitespace and block comments can
contain a newline.  A call can stop after a given number of tokens and the
next call resume after the last of them, so the parser lexes a file a batch
at a time.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .diagnostics import SourceLoc

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

_TOKEN = re.compile("|".join([
    r"(?P<SKIP>[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)",
    r"(?P<OPEN_COMMENT>/\*)",
    rf'(?P<STRING>{_STRING_BODY}")',
    rf"(?P<OPEN_STRING>{_STRING_BODY})",
    # \d is str.isdecimal, exactly the digits int() accepts
    r"(?P<INT>\d+)",
    # \w is str.isalnum or "_"; a name must also start with isalpha or "_"
    r"(?P<NAME>\w+)",
    "(?P<SYMBOL>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    "(?P<GUILLEMET>[«»])",
    r"(?P<OTHER>(?s:.))",
]))

_ESCAPE = re.compile(r'\\(["\\])')


class LexError(Exception):
    def __init__(self, loc: SourceLoc, message: str):
        super().__init__(f"{loc}: {message}")
        self.loc = loc
        self.message = message


class Token(NamedTuple):
    kind: str  # NAME, INT, STRING, KEYWORD, SYMBOL, EOF
    text: str
    value: object
    loc: SourceLoc
    # Where the next batch starts (the offset just after the lexeme), on the
    # last token of a batch that ``limit`` cut short; None on every other
    # token, so that no token list holds an offset per token.
    end: Optional[int] = None


def tokenize(text: str, origin: str, after: Optional[Token] = None,
             limit: Optional[int] = None) -> list[Token]:
    """Split source text into tokens; raises :class:`LexError` on bad input.

    ``limit`` returns at most that many tokens, and ``after``, the last token
    of such a batch, resumes the lexing just after it.  The EOF token ends the
    last batch, so a text's batches, each resuming after the last token of the
    one before, join to its whole list."""
    tokens: list[Token] = []
    last = -1 if limit is None else limit - 1  # tokens before a batch's last one
    if after is None:
        pos, line, line_start = 0, 1, 0  # current offset, line and the offset it starts at
    else:  # no token spans a newline, so its line starts after the one before it
        pos, line = after.end, after.loc.line
        line_start = text.rfind("\n", 0, pos) + 1
    for m in _TOKEN.finditer(text, pos):
        kind, start = m.lastgroup, m.start()
        if kind == "SKIP":
            newlines = text.count("\n", start, m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, m.end()) + 1
            continue
        loc = SourceLoc(origin, line, start - line_start + 1)
        lexeme = m.group()
        if kind == "NAME":
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                raise LexError(loc, f"unexpected character {lexeme[0]!r}")
            if lexeme in KEYWORDS:
                kind = "KEYWORD"
                value = lexeme == "true" if lexeme in ("true", "false") else lexeme
            else:
                value = lexeme
        elif kind == "SYMBOL":
            value = lexeme
        elif kind == "INT":
            try:
                value = int(lexeme)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise LexError(loc, "integer literal too long") from None
        elif kind == "STRING":
            value = _ESCAPE.sub(r"\1", lexeme[1:-1]) if "\\" in lexeme else lexeme[1:-1]
            lexeme = f'"{value}"'
        elif kind == "GUILLEMET":
            kind, lexeme = "SYMBOL", _GUILLEMETS[lexeme]
            value = lexeme
        elif kind == "OPEN_STRING":
            end = m.end()
            if text.startswith("\\", end):
                raise LexError(SourceLoc(origin, line, end - line_start + 1),
                               "unsupported escape sequence")
            raise LexError(loc, "unterminated string literal")
        elif kind == "OPEN_COMMENT":
            raise LexError(loc, "unterminated block comment")
        else:
            raise LexError(loc, f"unexpected character {lexeme!r}")
        if len(tokens) == last:
            tokens.append(Token(kind, lexeme, value, loc, m.end()))
            return tokens
        tokens.append(Token(kind, lexeme, value, loc))
    tokens.append(Token("EOF", "", None, SourceLoc(origin, line, len(text) - line_start + 1)))
    return tokens
