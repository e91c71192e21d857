"""Source locations and coded diagnostics shared by all compiler stages."""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple


class SourceLoc(NamedTuple):
    """1-based position of a token in a model file."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


_NEWLINE = re.compile("\n")


@dataclass(frozen=True, slots=True)
class Locator:
    """Where the lines of one file's text start, to turn a code-point offset
    into its :class:`SourceLoc`.  A line ends at each ``\\n``; a carriage
    return is a blank like a space."""

    file: str
    starts: array  # the offset of each line's first character, line 1 first

    @classmethod
    def of(cls, text: str, file: str) -> "Locator":
        return cls(file, array("l", [0, *(m.end() for m in _NEWLINE.finditer(text))]))

    def loc(self, at: int) -> SourceLoc:
        """The line and column of offset ``at``, which may be the text's end."""
        line = bisect_right(self.starts, at)
        return SourceLoc(self.file, line, at - self.starts[line - 1] + 1)


ERROR = "error"
WARNING = "warning"

# Convention rules are warnings; everything else is an error.
_WARNING_CODES = frozenset({"C1", "C2", "C3", "C4"})


def severity_of(code: str) -> str:
    return WARNING if code in _WARNING_CODES else ERROR


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One checker or parser finding, identified by a rule code."""

    code: str
    severity: str
    loc: SourceLoc
    message: str

    @classmethod
    def at(cls, code: str, loc: SourceLoc, message: str) -> "Diagnostic":
        return cls(code, severity_of(code), loc, message)

    def sort_key(self) -> tuple:
        return (self.loc.file, self.loc.line, self.loc.column, self.code)

    def render(self) -> str:
        return f"{self.loc} {self.severity} {self.code}: {self.message}"

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "file": self.loc.file,
            "line": self.loc.line,
            "column": self.loc.column,
            "message": self.message,
        }


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diags)
