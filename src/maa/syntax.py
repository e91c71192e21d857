"""AST node types for model files, type-declaration files, and guard expressions.

A literal or a name is one node, :class:`ELit` or :class:`ERef`, and means the
same in a guard as in an input or output block.

Location fields take part in neither equality nor hashing, so two parses of
equivalent text compare equal structurally.  Nodes are never written after
parsing, which is why terms may be hashed: what a name denotes and which port
or variable an entry targets are answered by
:class:`maa.resolution.ResolvedComponent`, so one parsed unit can be resolved
into any number of models, and equal terms can share one compiled form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import SourceLoc


def _loc():
    return field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Terms: the leaves of guard expressions and the values of blocks
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ELit:
    """An Integer, Boolean or String literal; ``1`` and ``true`` differ."""

    value: object  # int | bool | str
    loc: SourceLoc = _loc()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ELit):
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


@dataclass(unsafe_hash=True)
class ERef:
    """A bare name, in a guard or a block: a port/variable reference or an
    enum literal.

    The parser cannot tell the two apart; a resolved component's ``binding``
    can.
    """

    name: str
    loc: SourceLoc = _loc()


@dataclass(unsafe_hash=True)
class NoData:
    """The absence symbol ``--``."""

    loc: SourceLoc = _loc()


@dataclass
class SequenceValue:
    elements: list["ValueTerm"]
    loc: SourceLoc = _loc()

    def __hash__(self) -> int:
        return hash(tuple(self.elements))


ValueTerm = Union[ELit, ERef, NoData, SequenceValue]


# ---------------------------------------------------------------------------
# Guard expressions
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True)
class EUnary:
    op: str  # "!" or "-"
    operand: "Expr"
    loc: SourceLoc = _loc()


@dataclass(unsafe_hash=True)
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
    # of the target's name; None when the text omits the target
    target_loc: Optional[SourceLoc] = field(default=None, compare=False, repr=False)


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

    @property
    def composed(self) -> bool:
        """Whether the component is built from parts: subcomponents, or only
        connectors from its in-ports to its out-ports.  Otherwise it is atomic,
        and its automaton, if any, is its behaviour."""
        return bool(self.subcomponents or self.connectors)


@dataclass
class ImportDecl:
    name: str  # qualified name; star imports end in ".*"
    loc: SourceLoc = _loc()


@dataclass
class CompilationUnit:
    package: str  # "" for the default package
    imports: list[ImportDecl]
    component: ComponentType


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


def expr_refs(term: Union[Expr, ValueTerm]):
    """Every name reference inside a guard expression or a value term, left
    to right."""
    if isinstance(term, ERef):
        yield term
    elif isinstance(term, EUnary):
        yield from expr_refs(term.operand)
    elif isinstance(term, EBinary):
        yield from expr_refs(term.left)
        yield from expr_refs(term.right)
    elif isinstance(term, SequenceValue):
        for element in term.elements:
            yield from expr_refs(element)


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
