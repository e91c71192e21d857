"""A naive reference semantics of both profiles, for tests.

Written from README "Execution semantics", and sharing no code with
``maa.engine`` or ``maa.lowering``: it walks the parsed automaton, asks resolution only what a
name denotes (``ResolvedComponent.binding``) and which port or variable an
entry targets (``ResolvedComponent.target``), evaluates terms with its own
evaluator, works out which in-ports a transition reads itself, and expands
every choice point.  A time-synchronous main may be composed: the reference
flattens it itself, from the parsed connectors and resolution's table of
subcomponents (``ResolvedComponent.subcomponents``), into atomic instances,
and follows connectors through every level, connector-only components
included, to where each in-port reads.  An event-driven main is atomic.  It
runs at most four cycles or events: it is meant to be plainly right, not
fast.

Values are Python ints, bools and strings, :class:`EnumLiteral` for an enum
literal, and ``None`` for the absence of a message; every value in a trace or
a run is in the form :func:`exact` gives, and variables are sorted by name.
A time-synchronous trace is a tuple with one ``(outputs, states)`` entry per
cycle: the message observed on each out-port of the main in declaration
order, and a ``(path, state, variables)`` triple per atomic instance, sorted
by its path (``c1.c0`` for instance ``c0`` of instance ``c1`` of the main,
``""`` for an atomic main), with the state and the variables after the
cycle.  An event-driven run is
``(initial state, initial emissions, steps)`` with one ``(emissions, state,
variables)`` step per event; emissions are a ``(port, messages)`` pair per
output-block entry on an out-port, in block order.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from maa.resolution import BOOLEAN, INTEGER, STRING, EnumType
from maa.syntax import EBinary, ELit, ERef, EUnary, NoData, SequenceValue

MAX_CYCLES = 4
MAX_EVENTS = 4

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
    """Every trace of ``main`` under every resolution of its choice points.
    ``stimulus`` rows map in-ports to values; a missing row, port or a None
    cell is no message.

    In each cycle every atomic instance reads what was sent to its in-ports
    in the cycle before, or the stimulus of this cycle where an in-port is
    connected to one of the main's, and takes one step; the main's out-ports
    observe the same.  Cycle by cycle, the set of distinct (trace so far,
    joint state) is kept, each instance's successors taken as a set."""
    if not 1 <= n_cycles <= MAX_CYCLES:
        raise ValueError(f"the reference runs 1 to {MAX_CYCLES} cycles")
    system = System(model, main)
    rows = [stimulus[t] if t < len(stimulus) else {} for t in range(n_cycles)]
    paths = sorted(system.parts, key=".".join)
    # (trace so far, joint state in exact form) -> (trace, joint state); a
    # joint state is a (state, variables, sent) per instance, in path order
    runs = {}
    for start in itertools.product(*(_outcomes(system.parts[path].initial(sequences=False))
                                     for path in paths)):
        runs.setdefault(((), tuple(key for key, _ in start)), ((), [o for _, o in start]))
    for row in rows:
        after = {}
        for trace, joint in runs.values():
            sent = {path: messages for path, (_, _, messages) in zip(paths, joint)}

            def read(port):
                source = system.source(port)
                if source is None:
                    return None
                path, name = source
                return row.get(name) if path is None else sent[path].get(name)

            observed = tuple(exact(read((port,))) for port in system.main.out_ports)
            options = []
            for path, (state, variables, _) in zip(paths, joint):
                part = system.parts[path]
                inputs = {port: read((*path, port)) for port in part.rc.in_ports}
                options.append(_outcomes(part.successors(state, inputs, variables,
                                                         lambda transition: True,
                                                         sequences=False)))
            for choice in itertools.product(*options):
                keys = tuple(key for key, _ in choice)
                record = (observed, tuple((".".join(path), key[0], key[1])
                                          for path, key in zip(paths, keys)))
                after.setdefault((trace + (record,), keys),
                                 (trace + (record,), [o for _, o in choice]))
        runs = after
    return {trace for trace, _ in runs.values()}


def reference_ed_runs(model, main: str, script: list[tuple]) -> list[tuple]:
    """Every event-driven run of the atomic component ``main`` over ``script``,
    a list of (in-port, value) events, under every resolution of its choice
    points, depth first in declaration order: the first run takes the first
    option at every choice point.  Runs reached along different choices may
    be equal."""
    if len(script) > MAX_EVENTS:
        raise ValueError(f"the reference runs at most {MAX_EVENTS} events")
    component = _Component(model, model.components[main])
    return [(state, _emissions(emitted), steps)
            for state, variables, emitted in component.initial(sequences=True)
            for steps in component.event_runs(script, state, variables)]


def _sent(emitted: list[tuple]) -> dict:
    """The one message per out-port an output block sends in a cycle."""
    sent = {}
    for port, messages in emitted:
        sent[port] = messages[0] if messages else None
    return {port: v for port, v in sent.items() if v is not None}


def _emissions(emitted: list[tuple]) -> tuple:
    return tuple((port, tuple(exact(v) for v in messages)) for port, messages in emitted)


def _variables(variables: dict) -> tuple:
    return tuple(sorted((k, exact(v)) for k, v in variables.items()))


def _outcomes(outcomes) -> list:
    """Each distinct (state, variables, sent) that (state, variables,
    emitted) outcomes of one instance give, once, after its exact form."""
    found = {}
    for state, variables, emitted in outcomes:
        sent = _sent(emitted)
        key = (state, _variables(variables),
               tuple(sorted((port, exact(v)) for port, v in sent.items())))
        found.setdefault(key, (key, (state, variables, sent)))
    return list(found.values())


def _port(path: tuple, end) -> tuple:
    """The port a connector end names in the component at ``path``."""
    return path + (end.instance, end.port) if end.instance else path + (end.port,)


class System:
    """The atomic instances of a main component, and the connectors of every
    level between them.  An instance's path is the tuple of instance names
    from the main down to it, ``()`` for an atomic main; a port is its
    owner's path followed by the port's name.  A connector adds no delay, so
    a loop of connectors, read or not, has no meaning: building the system
    raises ``ReferenceError("connector cycle")``."""

    def __init__(self, model, main: str):
        self.main = model.components[main]
        self.parts = {}  # path -> _Component
        self.feeds = {}  # port a connector targets -> the port it reads
        self._flatten(model, self.main, ())
        for port in self.feeds:
            self.source(port)

    def _flatten(self, model, rc, path: tuple) -> None:
        if not rc.ast.subcomponents and not rc.ast.connectors:
            self.parts[path] = _Component(model, rc)
            return
        for instance, sub in rc.subcomponents.items():
            self._flatten(model, model.components[sub.target_qname], path + (instance,))
        for connector in rc.ast.connectors:
            self.feeds[_port(path, connector.target)] = _port(path, connector.source)

    def source(self, port: tuple):
        """Where ``port`` reads: (path, out-port) of an atomic instance, whose
        message of the cycle before it reads, (None, in-port) of the main,
        whose stimulus of this cycle it reads, or None when no connector
        leads to either."""
        for _ in range(len(self.feeds) + 1):
            path, name = port[:-1], port[-1]
            if path in self.parts and self.parts[path].rc.kind(name) == "out":
                return path, name
            if port not in self.feeds:
                return (None, name) if path == () and self.main.kind(name) == "in" else None
            port = self.feeds[port]
        raise ReferenceError("connector cycle")


class _Component:
    def __init__(self, model, rc):
        if rc.ast.subcomponents or len(rc.ast.automata) != 1:
            raise ValueError("the reference runs atomic components with one automaton")
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

    def reads(self, transition) -> set:
        """The in-ports a transition reads: those its guard names and those
        its input block matches.  Under the event-driven profile a transition
        reacts only to events on the one port it reads, if it reads one."""
        ports = set()
        if transition.guard is not None:
            ports = self.in_ports_named(transition.guard.expr)
        for match in transition.input or []:
            name = self.rc.target(match).name
            if self.rc.kind(name) == "in":
                ports.add(name)
        return ports

    def message(self, term, inputs: dict, variables: dict):
        """The value ``term`` sends; forwarding an absent message is an error."""
        value = self.value(term, inputs, variables)
        if value is None:
            raise ReferenceError("forwarding an absent message")
        return value

    def outcomes(self, block, inputs: dict, variables: dict, sequences: bool):
        """Every (variables, emitted) an output block can give, one per choice
        of one alternative per entry; every right-hand side reads the
        pre-state.  ``emitted`` has a (port, messages) pair per entry on an
        out-port: none for ``--``, one for a value, and the elements of a
        sequence, which only the event-driven profile (``sequences``) allows."""
        entries = block or []
        for picks in itertools.product(*(entry.alternatives for entry in entries)):
            new_variables = dict(variables)
            emitted = []
            for entry, pick in zip(entries, picks):
                name = self.rc.target(entry).name
                if isinstance(pick, SequenceValue):
                    if not sequences:
                        raise ReferenceError("a sequence is not one message")
                    messages = tuple(self.message(e, inputs, variables) for e in pick.elements)
                elif isinstance(pick, NoData):
                    messages = ()
                else:
                    messages = (self.message(pick, inputs, variables),)
                if self.rc.kind(name) == "out":
                    emitted.append((name, messages))
                elif (self.rc.kind(name) == "var" and len(messages) == 1
                      and not isinstance(pick, SequenceValue)):
                    new_variables[name] = messages[0]
                else:
                    raise ReferenceError(f"'{name}' cannot take this value")
            yield new_variables, emitted

    def successors(self, state, inputs: dict, variables: dict, reacts, sequences: bool):
        """Every (state, variables, emitted) after one step: one per enabled
        transition that ``reacts`` admits and per outcome of its output
        block, or, when there is none, the idle step: unchanged and silent."""
        found = []
        for transition in self.automaton.transitions:
            if reacts(transition) and self.enabled(transition, state, inputs, variables):
                for new_variables, emitted in self.outcomes(transition.output, inputs,
                                                            variables, sequences):
                    found.append((transition.target, new_variables, emitted))
        return found or [(state, variables, [])]

    # -- runs ----------------------------------------------------------------

    def initial(self, sequences: bool):
        """Every (state, variables, emitted) the component may start with."""
        variables = {}
        for var in self.rc.ast.variables:
            kind, declared = self.rc.binding(var.name)
            if kind == "var" and var.name not in variables:
                variables[var.name] = (self.default(declared) if var.initial is None
                                       else self.value(var.initial, {}, variables))
        if not self.automaton.initials:
            yield self.automaton.states[0].name, variables, []
        for initial in self.automaton.initials:
            for new_variables, emitted in self.outcomes(initial.output, {}, variables,
                                                        sequences):
                yield initial.state, new_variables, emitted

    def event_runs(self, script: list[tuple], state, variables: dict):
        """Every sequence of steps over ``script``: each event is the only
        message its port carries, every other in-port is absent, and only
        transitions that read exactly that port react to it."""
        if not script:
            yield ()
            return
        (port, value), rest = script[0], script[1:]
        for new_state, new_variables, emitted in self.successors(
                state, {port: value}, variables,
                lambda transition: self.reads(transition) == {port}, sequences=True):
            step = (_emissions(emitted), new_state, _variables(new_variables))
            for steps in self.event_runs(rest, new_state, new_variables):
                yield (step,) + steps
