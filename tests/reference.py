"""A naive reference semantics of the time-synchronous profile, for tests.

Written from README "Execution semantics", and sharing no code with
``maa.engine``: it walks the parsed automaton, asks resolution only what a
name denotes (``ResolvedComponent.binding``) and which port or variable an
entry targets (``ResolvedComponent.target``), evaluates terms with its own
evaluator, and expands every choice point by plain recursion.  It runs atomic
components only, for at most four cycles: it is meant to be plainly right,
not fast.

Values are Python ints, bools and strings, :class:`EnumLiteral` for an enum
literal, and ``None`` for the absence of a message.  A trace is a tuple with
one ``(outputs, state, variables)`` entry per cycle: the message observed on
each out-port in declaration order, the state after the cycle, and the
variables after it sorted by name, every value in the form :func:`exact`
gives.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from maa.resolution import BOOLEAN, INTEGER, STRING, EnumType
from maa.syntax import EBinary, ELit, ERef, EUnary, NoData, SequenceValue

MAX_CYCLES = 4

_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
              "+": operator.add, "-": operator.sub, "*": operator.mul}


class EnumLiteral(NamedTuple):
    enum: str  # qualified enum name
    literal: str


class ReferenceError(Exception):
    """A run that the semantics makes a runtime error."""


def exact(value):
    """A value in a form whose equality is type-exact (``1`` is not ``true``):
    None for absence, ``("enum", qname, literal)`` or ``(type name, value)``."""
    if value is None:
        return None
    if isinstance(value, EnumLiteral):
        return ("enum", value.enum, value.literal)
    return (type(value).__name__, value)


def same(a, b) -> bool:
    return exact(a) == exact(b)


def reference_traces(model, main: str, stimulus: list[dict], n_cycles: int) -> set[tuple]:
    """Every trace of the atomic component ``main`` under every resolution of
    its choice points.  ``stimulus`` rows map in-ports to values; a missing
    row, port or a None cell is no message."""
    if not 1 <= n_cycles <= MAX_CYCLES:
        raise ValueError(f"the reference runs 1 to {MAX_CYCLES} cycles")
    rc = model.components[main]
    if rc.ast.subcomponents or len(rc.ast.automata) != 1:
        raise ValueError("the reference runs atomic components with one automaton")
    component = _Component(model, rc)
    rows = [stimulus[t] if t < len(stimulus) else {} for t in range(n_cycles)]
    return {trace for state, variables, sent in component.initial()
            for trace in component.runs(rows, 0, state, variables, sent)}


class _Component:
    def __init__(self, model, rc):
        self.model = model
        self.rc = rc
        self.automaton = rc.ast.automata[0]

    # -- names and terms ----------------------------------------------------

    def value(self, term, inputs: dict, variables: dict):
        """The value of a guard expression or of one value term."""
        if isinstance(term, ELit):
            return term.value
        if isinstance(term, NoData):
            return None
        if isinstance(term, ERef):
            kind, what = self.rc.binding(term.name) or (None, None)
            if kind == "in":
                return inputs.get(term.name)
            if kind == "var":
                return variables[term.name]
            if kind == "enum":
                return EnumLiteral(what.qname, term.name)
            raise ReferenceError(f"name '{term.name}' has no value")
        if isinstance(term, EUnary):
            operand = self.value(term.operand, inputs, variables)
            return (not operand) if term.op == "!" else -operand
        if isinstance(term, EBinary):
            left = self.value(term.left, inputs, variables)
            right = self.value(term.right, inputs, variables)
            if term.op == "&&":
                return bool(left) and bool(right)
            if term.op == "||":
                return bool(left) or bool(right)
            if term.op == "==":
                return same(left, right)
            if term.op == "!=":
                return not same(left, right)
            return _OPERATORS[term.op](left, right)
        raise ReferenceError(f"cannot evaluate {term!r}")

    def in_ports_named(self, term) -> set:
        """The in-ports a guard expression names."""
        if isinstance(term, ERef):
            return {term.name} if self.rc.kind(term.name) == "in" else set()
        if isinstance(term, EUnary):
            return self.in_ports_named(term.operand)
        if isinstance(term, EBinary):
            return self.in_ports_named(term.left) | self.in_ports_named(term.right)
        return set()

    def default(self, declared):
        """The type default a variable without an initial value reads."""
        if declared == INTEGER:
            return 0
        if declared == BOOLEAN:
            return False
        if declared == STRING:
            return ""
        if isinstance(declared, EnumType):
            return EnumLiteral(declared.qname, self.model.enums[declared.qname].literals[0])
        raise ReferenceError(f"no default for type {declared}")

    # -- one transition ------------------------------------------------------

    def enabled(self, transition, state, inputs: dict, variables: dict) -> bool:
        """A transition is enabled when it leaves the current state, its guard
        holds (false while a port it names is absent) and every input-block
        entry equals one of its alternatives."""
        if transition.source != state:
            return False
        if transition.guard is not None:
            if any(inputs.get(port) is None
                   for port in self.in_ports_named(transition.guard.expr)):
                return False
            if self.value(transition.guard.expr, inputs, variables) is not True:
                return False
        for match in transition.input or []:
            name = self.rc.target(match).name
            current = inputs.get(name) if self.rc.kind(name) == "in" else variables[name]
            if not any(same(current, self.value(alt, inputs, variables))
                       for alt in match.alternatives if not isinstance(alt, SequenceValue)):
                return False
        return True

    def outcomes(self, block, inputs: dict, variables: dict):
        """Every (variables, sent) an output block can give, one per choice of
        one alternative per entry; every right-hand side reads the pre-state."""
        entries = block or []
        for picks in itertools.product(*(entry.alternatives for entry in entries)):
            new_variables = dict(variables)
            sent = {}
            for entry, pick in zip(entries, picks):
                if isinstance(pick, SequenceValue):
                    raise ReferenceError("a sequence is not one message")
                value = self.value(pick, inputs, variables)
                name = self.rc.target(entry).name
                if self.rc.kind(name) == "out":
                    sent[name] = value
                elif value is None:
                    raise ReferenceError(f"variable '{name}' cannot be absent")
                else:
                    new_variables[name] = value
            yield new_variables, {port: v for port, v in sent.items() if v is not None}

    # -- runs ----------------------------------------------------------------

    def initial(self):
        """Every (state, variables, sent) the component may start with."""
        variables = {}
        for var in self.rc.ast.variables:
            kind, declared = self.rc.binding(var.name)
            if kind == "var" and var.name not in variables:
                variables[var.name] = (self.default(declared) if var.initial is None
                                       else self.value(var.initial, {}, variables))
        if not self.automaton.initials:
            yield self.automaton.states[0].name, variables, {}
        for initial in self.automaton.initials:
            for new_variables, sent in self.outcomes(initial.output, {}, variables):
                yield initial.state, new_variables, sent

    def runs(self, rows: list[dict], t: int, state, variables: dict, sent: dict):
        """Every continuation from cycle ``t`` (0-based) on, after ``sent`` was
        sent in the cycle before: it is what the outside observes in cycle t."""
        if t == len(rows):
            yield ()
            return
        inputs = {port: rows[t].get(port) for port in self.rc.in_ports}
        observed = tuple(exact(sent.get(port)) for port in self.rc.out_ports)
        successors = []
        for transition in self.automaton.transitions:
            if self.enabled(transition, state, inputs, variables):
                for new_variables, new_sent in self.outcomes(transition.output, inputs,
                                                            variables):
                    successors.append((transition.target, new_variables, new_sent))
        if not successors:  # idle completion: unchanged and silent
            successors.append((state, variables, {}))
        for new_state, new_variables, new_sent in successors:
            record = (observed, new_state,
                      tuple(sorted((k, exact(v)) for k, v in new_variables.items())))
            for rest in self.runs(rows, t + 1, new_state, new_variables, new_sent):
                yield (record,) + rest
