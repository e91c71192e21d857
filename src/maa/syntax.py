"""AST node types for model files, type-declaration files, and guard expressions.

Location fields never take part in equality, so two parses of equivalent text
compare equal structurally.  Nodes are never written after parsing: what a
name denotes and which port or variable an entry targets are answered by
:class:`maa.resolution.ResolvedComponent`, so one parsed unit can be resolved
into any number of models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import SourceLoc


def _loc():
    return field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

@dataclass
class IntLit:
    value: int
    loc: SourceLoc = _loc()


@dataclass
class BoolLit:
    value: bool
    loc: SourceLoc = _loc()


@dataclass
class StringLit:
    value: str
    loc: SourceLoc = _loc()


@dataclass
class NameValue:
    """A bare name in value position: a port/variable reference or an enum literal.

    The parser cannot tell the two apart; a resolved component's ``binding``
    can.
    """

    name: str
    loc: SourceLoc = _loc()


@dataclass
class NoData:
    """The absence symbol ``--``."""

    loc: SourceLoc = _loc()


@dataclass
class SequenceValue:
    elements: list["ValueTerm"]
    loc: SourceLoc = _loc()


ValueTerm = Union[IntLit, BoolLit, StringLit, NameValue, NoData, SequenceValue]


# ---------------------------------------------------------------------------
# Guard expressions
# ---------------------------------------------------------------------------

@dataclass
class ELit:
    value: object  # int | bool | str
    loc: SourceLoc = _loc()


@dataclass
class ERef:
    name: str
    loc: SourceLoc = _loc()


@dataclass
class EUnary:
    op: str  # "!" or "-"
    operand: "Expr"
    loc: SourceLoc = _loc()


@dataclass
class EBinary:
    op: str
    left: "Expr"
    right: "Expr"
    loc: SourceLoc = _loc()


Expr = Union[ELit, ERef, EUnary, EBinary]

# How tightly each binary operator binds, loosest first; all of them are
# left-associative.  Unary ``!`` and ``-`` bind tighter than any of them.
PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
              "+": 4, "-": 4, "*": 5}
UNARY_PRECEDENCE = 6


@dataclass
class Guard:
    kind: Optional[str]  # "ocl", "java", or None when unspecified
    expr: Expr
    loc: SourceLoc = _loc()


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------

@dataclass
class Match:
    """One entry of an input block: ``name = alt | alt`` with optional name."""

    target: Optional[str]
    alternatives: list[ValueTerm]
    loc: SourceLoc = _loc()
    target_loc: Optional[SourceLoc] = field(default=None, compare=False, repr=False)


@dataclass
class Assignment:
    """One entry of an output block; alternatives may include sequences."""

    target: Optional[str]
    alternatives: list[ValueTerm]
    loc: SourceLoc = _loc()
    target_loc: Optional[SourceLoc] = field(default=None, compare=False, repr=False)


@dataclass
class StateDecl:
    name: str
    stereotypes: list[str]
    loc: SourceLoc = _loc()


@dataclass
class InitialDecl:
    state: str
    output: Optional[list[Assignment]]
    loc: SourceLoc = _loc()


@dataclass
class Transition:
    source: str
    target: str  # equals source when omitted in the text
    guard: Optional[Guard]
    input: Optional[list[Match]]
    output: Optional[list[Assignment]]
    loc: SourceLoc = _loc()
    source_loc: SourceLoc = field(default=None, compare=False, repr=False)
    target_loc: SourceLoc = field(default=None, compare=False, repr=False)


@dataclass
class Automaton:
    name: Optional[str]
    stereotypes: list[str]
    states: list[StateDecl]
    initials: list[InitialDecl]
    transitions: list[Transition]
    loc: SourceLoc = _loc()


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

@dataclass
class PortDecl:
    direction: str  # "in" | "out"
    type_name: str
    name: str
    loc: SourceLoc = _loc()


@dataclass
class VariableDecl:
    type_name: str
    name: str
    initial: Optional[ValueTerm]
    loc: SourceLoc = _loc()


@dataclass
class SubcomponentDecl:
    type_name: str  # possibly qualified
    type_args: list[str]
    instance: str
    loc: SourceLoc = _loc()


@dataclass
class PortRef:
    instance: Optional[str]  # None for a port of the enclosing component
    port: str
    loc: SourceLoc = _loc()


@dataclass
class ConnectorDecl:
    source: PortRef
    target: PortRef
    loc: SourceLoc = _loc()


@dataclass
class ComponentType:
    name: str
    generic_params: list[str]
    ports: list[PortDecl]
    variables: list[VariableDecl]
    subcomponents: list[SubcomponentDecl]
    connectors: list[ConnectorDecl]
    automata: list[Automaton]
    loc: SourceLoc = _loc()


@dataclass
class ImportDecl:
    name: str  # qualified name; star imports end in ".*"
    loc: SourceLoc = _loc()


@dataclass
class CompilationUnit:
    package: str  # "" for the default package
    imports: list[ImportDecl]
    component: ComponentType
    origin: str = field(compare=False, repr=False, default="<unknown>")


# ---------------------------------------------------------------------------
# Type-declaration units
# ---------------------------------------------------------------------------

@dataclass
class EnumDecl:
    name: str
    literals: list[str]
    loc: SourceLoc = _loc()


@dataclass
class TypeDeclUnit:
    package: str
    enums: list[EnumDecl]
    origin: str = field(compare=False, repr=False, default="<unknown>")


def expr_refs(expr: Expr):
    """Every name reference inside a guard expression, left to right."""
    if isinstance(expr, ERef):
        yield expr
    elif isinstance(expr, EUnary):
        yield from expr_refs(expr.operand)
    elif isinstance(expr, EBinary):
        yield from expr_refs(expr.left)
        yield from expr_refs(expr.right)


def format_literal(value) -> str:
    """Source text of an Integer, Boolean or String value.

    Strings are quoted with ``\\`` and ``"`` escaped, the only escapes the
    lexer reads.
    """
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(value)
