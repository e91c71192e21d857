"""Runtime values and the executable form of an automaton.

:func:`lower`, the only place the engine asks resolution what a name denotes,
compiles each guard, input-block entry, output alternative and variable
initialiser of a well-formed automaton into a closure over the in-ports'
messages, a sequence in the order of ``rc.in_ports``, and the variables, each
distinct term once per automaton and each bare name once, into a constant, a
read of an in-port by its position or a read of a variable by its name.  Initial
declarations become transitions out of the pre-start state :data:`PRE_START`.
:meth:`LoweredAutomaton.enabled` is the one query for enabled transitions, in
declaration order, of the candidates that an index built on the first visit to
a state files under the value at one in-port's position; a first-match query
tests them only up to the first enabled one.
:meth:`LoweredAutomaton.apply_outputs` evaluates every output block.

:mod:`maa.engine` runs this form; it imports the runtime values and
:class:`SimulationError` from here.
"""

from __future__ import annotations

import collections
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .resolution import ResolvedComponent, TypeRef
from .syntax import (
    Automaton,
    EBinary,
    ELit,
    ERef,
    EUnary,
    Expr,
    InitialDecl,
    NoData,
    SequenceValue,
    Transition,
    ValueTerm,
    format_literal,
)


class SimulationError(Exception):
    """Runtime failure during a simulation (e.g. forwarding an absent message),
    in the cycle or event it names, counted from 1, where it has one."""

    def __init__(self, message: str, cycle: Optional[int] = None,
                 event: Optional[int] = None):
        where = (f"cycle {cycle}: " if cycle is not None
                 else f"event {event}: " if event is not None else "")
        super().__init__(where + message)
        self.message = message
        self.cycle = cycle
        self.event = event


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

class _Absent:
    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "--"


ABSENT = _Absent()


class EnumValue(NamedTuple):
    """An enum literal as a value.  A tuple, so it hashes and compares in C,
    by enum and literal: it never equals an int, a bool or a str, which are
    the other values, and its ``str`` is the literal."""

    enum: str  # qualified enum name
    literal: str

    def __str__(self) -> str:
        return self.literal


Value = Union[int, bool, str, EnumValue]
Slot = Union[Value, _Absent]


def format_value(value: Slot) -> str:
    """Serialized form: enum literals bare, strings quoted, absence as --."""
    if value is ABSENT:
        return "--"
    if isinstance(value, EnumValue):
        return value.literal
    return format_literal(value)


# ---------------------------------------------------------------------------
# Executable form of an automaton
# ---------------------------------------------------------------------------

# A guard expression or single value term, compiled: (inputs, variables) ->
# value, where inputs holds one message or ABSENT per in-port, by position
Compiled = Callable[[Sequence[Slot], dict[str, Value]], Slot]

_OPERATORS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
              "*": operator.mul}
_UNARY = {"!": operator.not_, "-": operator.neg}


class _Compiler:
    """Compiles one automaton's terms and entries into closures, each distinct
    one once: equal AST nodes, whose equality is type-exact and ignores
    locations, share one closure, and so do equal guards, entries and blocks.
    Its memo, keyed by the nodes, lives for one :func:`lower` call; an
    entry's target is resolved only when the entry is first compiled.  An
    in-port is read at its position in ``rc.in_ports``."""

    def __init__(self, rc: ResolvedComponent):
        self.rc = rc
        self.memo: dict[object, object] = {}
        self.position = {port: k for k, port in enumerate(rc.in_ports)}

    def shared(self, key, build):
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = build()
        return found

    def term(self, term) -> Compiled:
        """A guard expression or single value term.  A bare name is read as
        the name table says, chosen here once: an in-port's message, read by
        position, a variable's value, or an enum literal's constant."""
        return self.shared(term, lambda: self._build(term))

    def constant(self, term) -> Optional[Slot]:
        """The value of a literal, an enum literal or ``--``; else None."""
        kind = type(term)
        if kind is ELit:
            return term.value
        if kind is ERef:
            denoted, info = self.rc.binding(term.name)
            return self.shared(("enum", term.name), lambda: EnumValue(
                info.qname, term.name)) if denoted == "enum" else None
        return ABSENT if kind is NoData else None

    def _build(self, term) -> Compiled:
        value = self.constant(term)
        if value is not None:
            return lambda inputs, variables: value
        kind = type(term)
        if kind is ERef:
            name = term.name
            if self.rc.kind(name) == "in":
                k = self.position[name]
                return lambda inputs, variables: inputs[k]
            return lambda inputs, variables: variables[name]
        if kind is EUnary:
            operand, function = self.term(term.operand), _UNARY[term.op]
            return lambda inputs, variables: function(operand(inputs, variables))
        op, function = term.op, _OPERATORS.get(term.op)
        left, right = self.term(term.left), self.term(term.right)
        if op == "&&":
            return lambda i, v: left(i, v) and right(i, v)
        if op == "||":
            return lambda i, v: left(i, v) or right(i, v)
        return lambda i, v: function(left(i, v), right(i, v))

    def guard(self, expr: Expr, ports: frozenset[str]) -> Compiled:
        """Whether a guard holds: false while an in-port it reads is absent.
        A guard ``port OP constant`` at its top is one closure; any other
        tests each port it reads, then evaluates its term."""
        def build():
            left = expr.left if type(expr) is EBinary else None
            if type(left) is ERef and self.rc.kind(left.name) == "in":
                function, constant = _OPERATORS.get(expr.op), self.constant(expr.right)
                if function and constant is not None:
                    k = self.position[left.name]
                    return lambda inputs, variables: (
                        inputs[k] is not ABSENT and function(inputs[k], constant))
            value, absent_when = self.term(expr), tuple(sorted([self.position[p] for p in ports]))

            def holds(inputs, variables):
                for k in absent_when:
                    if inputs[k] is ABSENT:
                        return False
                return value(inputs, variables)
            return holds
        return self.shared(("guard", expr), build)

    def match(self, entry) -> tuple[Compiled, Optional[int], Optional[frozenset]]:
        """Whether an input-block entry holds, an absent port satisfying only
        ``--``; and for an entry of only constants on an in-port, that port's
        position and those constants, which :meth:`LoweredAutomaton._index`
        reads."""
        def build():
            target = self.rc.target(entry).name
            constants = [self.constant(a) for a in entry.alternatives]
            if None not in constants and self.rc.kind(target) == "in":
                k, admitted = self.position[target], frozenset(constants)  # one form per set
                return self.shared(("in", k, admitted), lambda: (
                    lambda inputs, variables: inputs[k] in admitted, k, admitted))
            current_of = self.term(ERef(target, entry.at))
            values = [self.term(a) for a in entry.alternatives]

            def holds(inputs, variables):
                current = current_of(inputs, variables)
                for value in values:
                    if current == value(inputs, variables):
                        return True
                return False
            return holds, None, None
        return self.shared(entry, build)

    def message(self, term: ValueTerm) -> Compiled:
        """What an output alternative sends: ABSENT for ``--``, a list for a
        sequence, else one value.  Forwarding an absent message is a runtime
        error."""
        kind = type(term)
        if kind is SequenceValue:
            def build():
                # a fresh copy of the constants each time it is sent, with
                # only the other elements evaluated into it, in order
                template = [self.constant(e) for e in term.elements]
                elements = [(k, self.message(e)) for k, e in enumerate(term.elements)
                            if template[k] is None]

                def sent(inputs, variables):
                    sequence = template.copy()
                    for k, element in elements:
                        sequence[k] = element(inputs, variables)
                    return sequence
                return sent
            return self.shared(("send", term), build)
        if kind is not ERef or self.rc.kind(term.name) != "in":
            return self.term(term)
        k = self.position[term.name]
        message = f"forwarding absent message from port '{term.name}'"

        def forwarded(inputs, variables):
            value = inputs[k]
            if value is ABSENT:
                raise SimulationError(message)
            return value
        return self.shared(("forward", k), lambda: forwarded)

    def entry(self, assignment) -> "LoweredEntry":
        def build():
            target = self.rc.target(assignment).name
            return LoweredEntry(target, self.rc.kind(target), [
                self.message(a) for a in assignment.alternatives])
        return self.shared(assignment, build)

    def inputs(self, block) -> tuple[tuple, dict]:
        """An input block's entries, and the constants that the first entry of
        only constants on each in-port, by position, admits (reversed: the
        first one wins)."""
        def build():
            matches = [self.match(entry) for entry in block or ()]
            return tuple([holds for holds, _, _ in matches]), {
                port: admitted for _, port, admitted in reversed(matches) if port is not None}
        return self.shared(("inputs", block), build)

    def outputs(self, block) -> tuple[tuple, tuple]:
        """An output block's entries, and the first alternative of each."""
        def build():
            entries = tuple([self.entry(entry) for entry in block or ()])
            return entries, tuple([e.alternatives[0] for e in entries])
        return self.shared(("outputs", block), build)


class LoweredEntry(NamedTuple):
    """An output-block entry: the out-port or variable it targets, and that
    name's kind, ``"out"`` or ``"var"``."""

    target: str
    kind: str
    alternatives: list[Compiled]


PRE_START = "<start>"  # the state before an instance starts, never a \w+ state name


class LoweredTransition(NamedTuple):
    """A transition with its guard and entries compiled.  The guard is false
    while an in-port it reads is absent.  Under the event-driven profile a
    transition reacts only to the one port it ``reads``.
    An initial declaration is a guardless transition out of :data:`PRE_START`;
    a silent start has no ``transition``."""

    transition: Union[Transition, InitialDecl, None]
    target: Optional[str]
    guard: Optional[Compiled]
    reads: frozenset[str]
    matches: tuple[Compiled, ...]  # whether each input-block entry holds
    keys: dict[int, frozenset]  # in-port position -> the constants its entry admits, if only those
    assigns: tuple[LoweredEntry, ...]
    firsts: tuple[Compiled, ...]  # each entry's first alternative


@dataclass
class LoweredAutomaton:
    """The executable form of an automaton; :func:`lower` builds it."""

    by_state: dict[str, list[LoweredTransition]]
    # variable -> its compiled initial value (None: its type's default) and type
    variables: dict[str, tuple[Optional[Compiled], TypeRef]]
    positions: dict[str, int]  # in-port -> its position in the inputs
    # state, or (state, event port), -> what _index gives, on the first visit
    dispatch: dict[object, tuple] = field(default_factory=dict, repr=False)

    def enabled(self, state: Optional[str], inputs: Sequence[Slot],
                variables: dict[str, Value], event_port: Optional[str] = None,
                first: bool = False) -> list[LoweredTransition]:
        """Enabled transitions out of ``state``, in declaration order;
        ``inputs`` holds every in-port, by position.  With ``event_port``,
        only transitions that read exactly that port qualify (the
        event-driven profile).  The candidates that :meth:`_index` gives are
        tested in order, each in full; with ``first``, only up to the first
        enabled one, which is all that is returned (first-match semantics)."""
        key = state if event_port is None else (state, event_port)
        port, buckets, rest = (self.dispatch.get(key)
                               or self.dispatch.setdefault(key, self._index(state, event_port)))
        result = []
        for t in rest if port is None else buckets.get(inputs[port], rest):
            if t.guard is not None and not t.guard(inputs, variables):
                continue
            for match in t.matches:
                if not match(inputs, variables):
                    break
            else:
                if first:
                    return [t]
                result.append(t)
        return result

    def _index(self, state: Optional[str], event_port: Optional[str]) -> tuple:
        """(position, buckets, rest): the candidates out of ``state`` for each
        value at the in-port ``position`` (None: no index), and for any other
        value, each in declaration order.  They read exactly ``event_port``,
        if given, and are indexed on it; else on the in-port most of them
        match with constants.  A transition without an entry of constants on
        that port is in every list (pattern-match compilation: Maranget,
        2008)."""
        candidates, port = self.by_state.get(state, []), event_port
        if port is not None:
            candidates = [t for t in candidates if len(t.reads) == 1 and port in t.reads]
            port = self.positions[port]
        else:
            counts = collections.Counter([p for t in candidates for p in t.keys])
            port = max(counts, key=counts.__getitem__, default=None)
        rest = [t for t in candidates if port not in t.keys]
        values = dict.fromkeys([v for t in candidates for v in t.keys.get(port, ())])
        buckets = {v: [t for t in candidates if port not in t.keys or v in t.keys[port]]
                   for v in values}
        return port if buckets else None, buckets, rest

    def apply_outputs(self, assigns: tuple, picks: tuple, inputs: Sequence[Slot],
                      variables: dict[str, Value]) -> tuple[list[tuple[str, object]], dict[str, Value]]:
        """Evaluate an output block with one picked alternative per entry: the
        (out-port, value) pairs sent, in order, and the variables after, which
        are ``variables`` itself when none is assigned.  Right-hand sides read
        the pre-state; a value is a message, ABSENT for ``--``, or a list."""
        outputs: list[tuple[str, object]] = []
        new_vars = variables
        for assign, pick in zip(assigns, picks):
            value = pick(inputs, variables)
            if assign.kind == "out":
                outputs.append((assign.target, value))
            else:
                if new_vars is variables:
                    new_vars = dict(variables)
                new_vars[assign.target] = value
        return outputs, new_vars


def lower(rc: ResolvedComponent) -> LoweredAutomaton:
    """The executable form of the one automaton of a well-formed atomic
    component (see :func:`maa.engine.build_plan`); a component without an
    automaton starts in no state and never fires."""
    automaton = rc.ast.automata[0] if rc.ast.automata else Automaton(None, (), (), (), (), None)
    compiler = _Compiler(rc)
    by_state: dict[str, list[LoweredTransition]] = {}
    for t in automaton.transitions:
        guard_ports, reads = rc.ports_read(t)
        guard = compiler.guard(t.guard.expr, guard_ports) if t.guard is not None else None
        by_state.setdefault(t.source, []).append(LoweredTransition(
            t, t.target, guard, reads, *compiler.inputs(t.input), *compiler.outputs(t.output)))
    # without an initial declaration (warning C1), start silently in the first state
    starts = [(i, i.state, i.output) for i in automaton.initials] or [
        (None, automaton.states[0].name if automaton.states else None, None)]
    by_state[PRE_START] = [LoweredTransition(decl, target, None, frozenset(), (), {},
                                             *compiler.outputs(output))
                           for decl, target, output in starts]
    variables = {var.name: (None if var.initial is None else compiler.term(var.initial),
                            rc.binding(var.name)[1]) for var in rc.ast.variables}
    return LoweredAutomaton(by_state, variables, compiler.position)
