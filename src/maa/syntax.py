"""AST node types for model files, type-declaration files, and guard expressions.

A literal or a name is one node, :class:`ELit` or :class:`ERef`, and means the
same in a guard as in an input or output block.

Nodes are slotted, and a node's location is one int, ``at``: the code-point
offset of its first token in the file's text (an entry or transition that
names its target also keeps the offset of that name, ``target_at``).  The
unit a file parses to keeps the file's one :class:`~maa.diagnostics.Locator`,
which turns an offset into a line and column only where a diagnostic is
filed.  Offsets take part in neither equality nor hashing, so two parses of
equivalent text compare equal structurally.  Every sequence in the tree is a
tuple, and nodes are never written after parsing, which is why terms, block
entries and the blocks themselves hash by structure: what a name denotes and
which port or variable an entry targets are answered by
:class:`maa.resolution.ResolvedComponent`, so one parsed unit can be resolved
into any number of models, and equal terms, entries and blocks can share one
compiled form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import Locator


def _at():
    return field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Terms: the leaves of guard expressions and the values of blocks
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class ELit:
    """An Integer, Boolean or String literal; ``1`` and ``true`` differ."""

    value: object  # int | bool | str
    at: int = _at()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ELit):
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


@dataclass(unsafe_hash=True, slots=True)
class ERef:
    """A bare name, in a guard or a block: a port/variable reference or an
    enum literal.

    The parser cannot tell the two apart; a resolved component's ``binding``
    can.
    """

    name: str
    at: int = _at()


@dataclass(unsafe_hash=True, slots=True)
class NoData:
    """The absence symbol ``--``."""

    at: int = _at()


@dataclass(unsafe_hash=True, slots=True)
class SequenceValue:
    elements: tuple["ValueTerm", ...]
    at: int = _at()


ValueTerm = Union[ELit, ERef, NoData, SequenceValue]


# ---------------------------------------------------------------------------
# Guard expressions
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class EUnary:
    op: str  # "!" or "-"
    operand: "Expr"
    at: int = _at()


@dataclass(unsafe_hash=True, slots=True)
class EBinary:
    op: str
    left: "Expr"
    right: "Expr"
    at: int = _at()


Expr = Union[ELit, ERef, EUnary, EBinary]

# How tightly each binary operator binds, loosest first; all of them are
# left-associative.  Unary ``!`` and ``-`` bind tighter than any of them.
PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
              "+": 4, "-": 4, "*": 5}
UNARY_PRECEDENCE = 6


@dataclass(slots=True)
class Guard:
    kind: Optional[str]  # "ocl", "java", or None when unspecified
    expr: Expr
    at: int = _at()


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class Match:
    """One entry of an input block: ``name = alt | alt`` with optional name."""

    target: Optional[str]
    alternatives: tuple[ValueTerm, ...]
    at: int = _at()
    target_at: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass(unsafe_hash=True, slots=True)
class Assignment:
    """One entry of an output block; alternatives may include sequences."""

    target: Optional[str]
    alternatives: tuple[ValueTerm, ...]
    at: int = _at()
    target_at: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class StateDecl:
    name: str
    stereotypes: tuple[str, ...]
    at: int = _at()


@dataclass(slots=True)
class InitialDecl:
    state: str
    output: Optional[tuple[Assignment, ...]]
    at: int = _at()


@dataclass(slots=True)
class Transition:
    source: str
    target: str  # equals source when omitted in the text
    guard: Optional[Guard]
    input: Optional[tuple[Match, ...]]
    output: Optional[tuple[Assignment, ...]]
    at: int = _at()
    # of the target's name; None when the text omits the target
    target_at: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Automaton:
    name: Optional[str]
    stereotypes: tuple[str, ...]
    states: tuple[StateDecl, ...]
    initials: tuple[InitialDecl, ...]
    transitions: tuple[Transition, ...]
    at: int = _at()


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class PortDecl:
    direction: str  # "in" | "out"
    type_name: str
    name: str
    at: int = _at()


@dataclass(slots=True)
class VariableDecl:
    type_name: str
    name: str
    initial: Optional[ValueTerm]
    at: int = _at()


@dataclass(slots=True)
class SubcomponentDecl:
    type_name: str  # possibly qualified
    type_args: tuple[str, ...]
    instance: str
    at: int = _at()


@dataclass(slots=True)
class PortRef:
    instance: Optional[str]  # None for a port of the enclosing component
    port: str
    at: int = _at()


@dataclass(slots=True)
class ConnectorDecl:
    source: PortRef
    target: PortRef
    at: int = _at()


@dataclass(slots=True)
class ComponentType:
    name: str
    generic_params: tuple[str, ...]
    ports: tuple[PortDecl, ...]
    variables: tuple[VariableDecl, ...]
    subcomponents: tuple[SubcomponentDecl, ...]
    connectors: tuple[ConnectorDecl, ...]
    automata: tuple[Automaton, ...]
    at: int = _at()

    @property
    def composed(self) -> bool:
        """Whether the component is built from parts: subcomponents, or only
        connectors from its in-ports to its out-ports.  Otherwise it is atomic,
        and its automaton, if any, is its behaviour."""
        return bool(self.subcomponents or self.connectors)


@dataclass(slots=True)
class ImportDecl:
    name: str  # qualified name; star imports end in ".*"
    at: int = _at()


@dataclass(slots=True)
class CompilationUnit:
    package: str  # "" for the default package
    imports: tuple[ImportDecl, ...]
    component: ComponentType
    locator: Locator = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Type-declaration units
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class EnumDecl:
    name: str
    literals: tuple[str, ...]
    at: int = _at()


@dataclass(slots=True)
class TypeDeclUnit:
    package: str
    enums: tuple[EnumDecl, ...]
    locator: Locator = field(compare=False, repr=False)


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
