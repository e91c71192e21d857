"""Execution engines for well-formed models.

Time-synchronous runs proceed in global cycles: every atomic instance fires at
most one enabled transition per cycle (or completes idle), and anything it
emits becomes visible to its communication partners, and externally, exactly
one cycle later.  Initial outputs are what the outside world observes in cycle
one.  Unread messages are lost at the end of their cycle.

Event-driven runs consume one scripted event at a time, run-to-completion: the
matching transition may emit finite sequences of events per output port.

:func:`build_plan`, which every entry point calls, refuses (:class:`SetupError`)
a model with an error from resolution or a rule every profile shares, and
stimulus and event values must have their ports' types.  The runtime errors
left are forwarding an absent message, an initialiser that reads a later
variable, and a sequence sent under the time-synchronous profile (S3TS).

Both engines and the enumerator run one executable form of each automaton,
built once per plan by :func:`lower`, the only place the engine asks
resolution what a name denotes.  ``lower`` compiles each guard, input-block
entry, output alternative and variable initialiser into a closure over the
in-ports' messages and the variables, each distinct term once per automaton
and each bare name once, into a constant or an in-port or variable read.
Initial declarations become transitions out of the pre-start state
:data:`PRE_START`.  :meth:`LoweredAutomaton.enabled` is the one query for
enabled transitions, and :meth:`LoweredAutomaton.apply_outputs` evaluates
every output block.

Nondeterminism (several enabled transitions, ``|`` alternatives, several
initial states) is resolved by a :class:`Policy`; ``enumerate_ts`` instead
expands every choice point and returns the exact reachable trace set, serving
as a brute-force oracle for the policy-driven engines.  Every run starts with
an ordinary step out of :data:`PRE_START`, where :func:`_start` puts each
instance with its variables initialised, and every instance fires through
:func:`_successors`: in the time-synchronous step, :func:`_step`, wired by
index (a policy follows one branch, the enumerator every branch, with equal
successors merged), or in ``run_ed`` once to start and once per event.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .checks import check
from .diagnostics import ERROR, Diagnostic
from .resolution import (
    BOOLEAN,
    EnumType,
    INTEGER,
    ResolvedComponent,
    ResolvedModel,
    STRING,
    TypeRef,
    substitute_type,
)
from .syntax import (
    Automaton,
    EBinary,
    ELit,
    ERef,
    EUnary,
    Expr,
    InitialDecl,
    SequenceValue,
    Transition,
    ValueTerm,
    format_literal,
)


class SimulationError(Exception):
    """Runtime failure during a simulation (e.g. forwarding an absent message)."""

    def __init__(self, message: str, cycle: Optional[int] = None):
        super().__init__(message if cycle is None else f"cycle {cycle}: {message}")
        self.message = message
        self.cycle = cycle


class SetupError(Exception):
    """Bad simulation request: unknown component, port, or malformed stimulus."""


class EnumerationOverflow(Exception):
    """Raised when exhaustive enumeration exceeds its trace bound."""


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


@dataclass(frozen=True)
class EnumValue:
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
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstDeclared:
    """Always take the first option in declaration order."""


@dataclass(frozen=True)
class Seeded:
    """Uniform choice at every decision point, driven by one seeded generator."""

    seed: int


Policy = Union[FirstDeclared, Seeded]


def _policy_branches(policy: Policy):
    """The one branch a policy takes among enabled transitions: a transition
    and one alternative per entry of its output block, the first of each or,
    ``Seeded``, drawn where there are several."""
    if not isinstance(policy, Seeded):
        return lambda options: [(options[0], options[0].firsts)]
    rng = random.Random(policy.seed)

    def pick(options):
        return options[0] if len(options) == 1 else options[rng.randrange(len(options))]

    def branches(options: list) -> list[tuple]:
        chosen = pick(options)
        return [(chosen, [pick(a.alternatives) for a in chosen.assigns])]
    return branches


def _every_branch(options: list) -> list[tuple]:
    """Every option with every selection of one alternative per output entry."""
    return [(option, picks) for option in options
            for picks in itertools.product(*[a.alternatives for a in option.assigns])]


# ---------------------------------------------------------------------------
# States and traces
# ---------------------------------------------------------------------------
#
# Code that runs every cycle builds lists and maps, not generators: a
# generator that a MemoryError leaves suspended needs memory to be closed, so
# the run could not end in one line of ``internal error``.

@dataclass(frozen=True)
class ComponentState:
    """One instance's state; never written once built, so records, successors
    and event traces share it."""

    state: Optional[str]  # None for an automaton-less instance
    variables: dict[str, Value] = field(default_factory=dict)

    def freeze(self) -> tuple:
        return (self.state, tuple(sorted([
            (k, _freeze_value(v)) for k, v in self.variables.items()])))


@dataclass
class CycleRecord:
    index: int
    inputs: dict[str, Slot]
    outputs: dict[str, Slot]
    states: dict[str, ComponentState]  # instance path -> post-cycle state

    def freeze(self) -> tuple:
        return (
            self.index,
            tuple(sorted([(k, _freeze_slot(v)) for k, v in self.inputs.items()])),
            tuple(sorted([(k, _freeze_slot(v)) for k, v in self.outputs.items()])),
            tuple(sorted([(k, s.freeze()) for k, s in self.states.items()])),
        )


def _freeze_value(v: Value) -> tuple:
    """Type-exact, hashable and sortable form of a value: ``1`` and ``true``
    differ, and values of different types order by type name."""
    return (type(v).__name__, (v.enum, v.literal) if isinstance(v, EnumValue) else v)


def _freeze_slot(v: Slot) -> tuple:
    """Sortable form of a slot; absence sorts before every value, and enum
    values of different enums differ."""
    return () if v is ABSENT else (
        type(v).__name__, (v.enum, v.literal) if isinstance(v, EnumValue) else str(v))


@dataclass
class Trace:
    records: list[CycleRecord]


@dataclass(frozen=True)
class Event:
    port: str
    value: Value


@dataclass
class EventStep:
    event: Event
    emissions: list[tuple[str, list[Value]]]
    state: ComponentState


@dataclass
class EventTrace:
    initial_state: Optional[str]
    initial_emissions: list[tuple[str, list[Value]]]
    steps: list[EventStep]


# ---------------------------------------------------------------------------
# Executable form of an automaton
# ---------------------------------------------------------------------------

# A guard expression or single value term, compiled: (inputs, variables) -> value
Compiled = Callable[[dict[str, Slot], dict[str, Value]], Slot]

_OPERATORS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
              "*": operator.mul}
_UNARY = {"!": operator.not_, "-": operator.neg}


class _Compiler:
    """Compiles one automaton's terms and entries into closures, each distinct
    one once: equal AST nodes, whose equality is type-exact and ignores
    locations, share one closure, and so do equal guards, entries, blocks and
    port sets.  Its memo, keyed by the nodes, lives for one :func:`lower` call."""

    def __init__(self, rc: ResolvedComponent):
        self.rc = rc
        self.memo: dict[object, object] = {}

    def shared(self, key, build):
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = build()
        return found

    def term(self, term) -> Compiled:
        """A guard expression or single value term.  A bare name is read as
        the name table says, chosen here once: an in-port's message, a
        variable's value, or an enum literal's constant."""
        return self.shared(term, lambda: self._build(term))

    def _build(self, term) -> Compiled:
        kind = type(term)
        if kind is ERef:
            name = term.name
            denoted, info = self.rc.binding(name)
            if denoted == "in":
                return lambda inputs, variables: inputs[name]
            if denoted == "var":
                return lambda inputs, variables: variables[name]
            value = EnumValue(info.qname, name)
        elif kind is EUnary:
            operand, function = self.term(term.operand), _UNARY[term.op]
            return lambda inputs, variables: function(operand(inputs, variables))
        elif kind is EBinary:
            op, left, right = term.op, self.term(term.left), self.term(term.right)
            if op == "&&":
                return lambda i, v: left(i, v) and right(i, v)
            if op == "||":
                return lambda i, v: left(i, v) or right(i, v)
            function = _OPERATORS[op]
            return lambda i, v: function(left(i, v), right(i, v))
        else:
            value = term.value if kind is ELit else ABSENT  # NoData
        return lambda inputs, variables: value

    def guard(self, expr: Expr, ports: set[str]) -> Compiled:
        """Whether a guard holds: false while an in-port it reads is absent."""
        def build():
            value, absent_when = self.term(expr), tuple(ports)

            def holds(inputs, variables):
                for port in absent_when:
                    if inputs[port] is ABSENT:
                        return False
                return value(inputs, variables)
            return holds
        return self.shared(("guard", expr), build)

    def match(self, entry) -> Compiled:
        """Whether an input-block entry holds; an absent port satisfies only
        ``--``."""
        target = self.rc.target(entry).name

        def build():
            current_of = self.term(ERef(target, entry.loc))
            values = [self.term(a) for a in entry.alternatives]

            def holds(inputs, variables):
                current = current_of(inputs, variables)
                for value in values:
                    if current == value(inputs, variables):
                        return True
                return False
            return holds
        return self.shared(("match", target, *entry.alternatives), build)

    def message(self, term: ValueTerm) -> Compiled:
        """What an output alternative sends: ABSENT for ``--``, a list for a
        sequence, else one value.  Forwarding an absent message is a runtime
        error."""
        kind = type(term)
        if kind is SequenceValue:
            elements = [self.message(e) for e in term.elements]
            return self.shared(("send", term), lambda: (
                lambda inputs, variables: [e(inputs, variables) for e in elements]))
        if kind is not ERef or self.rc.kind(term.name) != "in":
            return self.term(term)
        name = term.name
        message = f"forwarding absent message from port '{name}'"

        def forwarded(inputs, variables):
            value = inputs[name]
            if value is ABSENT:
                raise SimulationError(message)
            return value
        return self.shared(("forward", name), lambda: forwarded)

    def entry(self, assignment) -> "LoweredEntry":
        target, alternatives = self.rc.target(assignment).name, assignment.alternatives
        return self.shared(("entry", target, *alternatives),
                           lambda: LoweredEntry(target, self.rc.kind(target), [
                               self.message(a) for a in alternatives]))

    def inputs(self, block) -> tuple:
        holds = tuple(map(self.match, block or ()))
        return self.shared(("inputs", *map(id, holds)), lambda: holds)

    def outputs(self, block) -> tuple[tuple, tuple]:
        """An output block's entries, and the first alternative of each."""
        entries = tuple(map(self.entry, block or ()))
        return self.shared(("outputs", *map(id, entries)), lambda: (
            entries, tuple(e.alternatives[0] for e in entries)))


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
    assigns: tuple[LoweredEntry, ...]
    firsts: tuple[Compiled, ...]  # each entry's first alternative


@dataclass
class LoweredAutomaton:
    """The executable form of an automaton; :func:`lower` builds it."""

    by_state: dict[str, list[LoweredTransition]]
    # variable -> its compiled initial value (None: its type's default) and type
    variables: dict[str, tuple[Optional[Compiled], TypeRef]]

    def enabled(self, state: Optional[str], inputs: dict[str, Slot],
                variables: dict[str, Value],
                event_port: Optional[str] = None) -> list[LoweredTransition]:
        """Enabled transitions out of ``state``, in declaration order;
        ``inputs`` holds every in-port.  With ``event_port``, only transitions
        that read exactly that port qualify (the event-driven profile)."""
        result = []
        for t in self.by_state.get(state, ()):
            if event_port is not None and (len(t.reads) != 1 or event_port not in t.reads):
                continue
            if t.guard is not None and not t.guard(inputs, variables):
                continue
            for match in t.matches:
                if not match(inputs, variables):
                    break
            else:
                result.append(t)
        return result

    def apply_outputs(self, assigns: tuple, picks: tuple, inputs: dict[str, Slot],
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
    component (see :func:`build_plan`); a component without an automaton
    starts in no state and never fires."""
    automaton = rc.ast.automata[0] if rc.ast.automata else Automaton(None, [], [], [], [], None)
    compiler = _Compiler(rc)
    by_state: dict[str, list[LoweredTransition]] = {}
    for t in automaton.transitions:
        guard_ports, ports = rc.ports_read(t)
        reads = compiler.shared(frozenset(ports), lambda: frozenset(ports))
        guard = compiler.guard(t.guard.expr, guard_ports) if t.guard is not None else None
        by_state.setdefault(t.source, []).append(LoweredTransition(
            t, t.target, guard, reads, compiler.inputs(t.input), *compiler.outputs(t.output)))
    # without an initial declaration (warning C1), start silently in the first state
    starts = [(i, i.state, i.output) for i in automaton.initials] or [
        (None, automaton.states[0].name if automaton.states else None, None)]
    by_state[PRE_START] = [LoweredTransition(decl, target, None, frozenset(), (),
                                             *compiler.outputs(output))
                           for decl, target, output in starts]
    variables = {var.name: (None if var.initial is None else compiler.term(var.initial),
                            rc.binding(var.name)[1]) for var in rc.ast.variables}
    return LoweredAutomaton(by_state, variables)


# ---------------------------------------------------------------------------
# Instantiation (composition flattening)
# ---------------------------------------------------------------------------

# A wire (port, source, source port) says what ``port`` reads each cycle:
# ``source port`` of source 0, the external stimulus row, or of source i + 1,
# what instance i sent in the previous cycle.  Source None is unconnected.
Wire = tuple[str, Optional[int], Optional[str]]


@dataclass
class AtomicInstance:
    path: str  # "" for an atomic main component
    rc: ResolvedComponent
    subst: dict[str, TypeRef]
    behaviour: LoweredAutomaton
    wires: list[Wire] = field(default_factory=list)  # one per in-port


@dataclass
class SystemPlan:
    model: ResolvedModel
    main: ResolvedComponent
    instances: list[AtomicInstance]
    wires: list[Wire]  # one per out-port of the main component


def build_plan(model: ResolvedModel, main: str) -> SystemPlan:
    """Flatten the (possibly hierarchical) main component to atomic instances,
    wired by index.

    A model with an error that resolution or a rule of every profile reports
    is refused: :class:`SetupError` carries the first, rendered as ``maa
    check`` renders it.  Each component's automaton is lowered once, however
    many instances it has.
    """
    if main not in model.components:
        raise SetupError(f"unknown main component '{main}'")
    errors = [d for d in model.diagnostics + check(model) if d.severity == ERROR]
    if errors:
        raise SetupError(min(errors, key=Diagnostic.sort_key).render())
    root = model.components[main]

    instances: list[AtomicInstance] = []
    edges: dict[tuple[str, str], tuple[str, str]] = {}
    lowered: dict[str, LoweredAutomaton] = {}

    def expand(rc: ResolvedComponent, path: str, subst: dict[str, TypeRef]):
        if not rc.ast.subcomponents:
            if len(rc.ast.automata) > 1:
                raise SetupError(
                    f"component '{rc.qname}' has several automata; "
                    "simulation needs at most one")
            if rc.qname not in lowered:
                lowered[rc.qname] = lower(rc)
            instances.append(AtomicInstance(path, rc, subst, lowered[rc.qname]))
            return
        for decl in rc.ast.subcomponents:
            sub = rc.subcomponents[decl.instance]
            child_rc = model.components[sub.target_qname]
            child_path = f"{path}.{decl.instance}" if path else decl.instance
            child_subst = {
                param: substitute_type(arg, subst)
                for param, arg in zip(child_rc.ast.generic_params, sub.arg_types)
            }
            expand(child_rc, child_path, child_subst)
        for conn in rc.ast.connectors:
            src = _node(path, conn.source)
            dst = _node(path, conn.target)
            edges[dst] = src

    def _node(path: str, ref) -> tuple[str, str]:
        if ref.instance is None:
            return (path, ref.port)
        inner = f"{path}.{ref.instance}" if path else ref.instance
        return (inner, ref.port)

    expand(root, "", {})
    source = {inst.path: k for k, inst in enumerate(instances, start=1)}

    def wire(port: str, node: tuple[str, str]) -> Wire:
        """The wire of ``port``, which reads ``node``, followed along
        connectors to an instance's out-port or an external in-port."""
        seen = set()
        while node not in seen:
            seen.add(node)
            path, name = node
            if (path in source and node not in edges
                    and instances[source[path] - 1].rc.kind(name) == "out"):
                return (port, source[path], name)
            if path == "" and root.kind(name) == "in":
                return (port, 0, name)
            if node not in edges:
                return (port, None, None)
            node = edges[node]
        raise SetupError(f"connector cycle through {node[1]!r}")

    for inst in instances:
        inst.wires = [wire(port, (inst.path, port)) for port in inst.rc.in_ports]
    return SystemPlan(model, root, instances,
                      [wire(port, ("", port)) for port in root.out_ports])


def _read(wires: list[Wire], sources: tuple) -> dict[str, Slot]:
    """What each wired port reads this cycle; absence is a missing message."""
    return {port: ABSENT if k is None else sources[k].get(name, ABSENT)
            for port, k, name in wires}


_PYTHON_TYPES = {INTEGER: int, BOOLEAN: bool, STRING: str}


def default_value(ref: Optional[TypeRef], subst: dict[str, TypeRef],
                  model: ResolvedModel) -> Value:
    """Type default for a variable read before any assignment: ``0``,
    ``false``, ``""`` or the enum's first literal."""
    ref = substitute_type(ref, subst)
    if ref in _PYTHON_TYPES:
        return _PYTHON_TYPES[ref]()
    if isinstance(ref, EnumType):
        enum = model.enums[ref.qname]
        if not enum.literals:
            raise SetupError(f"enum '{ref.qname}' has no literals to default to")
        return EnumValue(ref.qname, enum.literals[0])
    raise SetupError(f"cannot default a value of type {ref}")


# ---------------------------------------------------------------------------
# Firing, under either profile
# ---------------------------------------------------------------------------

def _start(inst: AtomicInstance, model: ResolvedModel) -> ComponentState:
    """An instance before its first step: in :data:`PRE_START`, with its
    variables initialised in declaration order."""
    variables: dict[str, Value] = {}
    for name, (initial, declared) in inst.behaviour.variables.items():
        if initial is None:
            variables[name] = default_value(declared, inst.subst, model)
            continue
        try:
            variables[name] = initial({}, variables)
        except KeyError as exc:  # it reads a variable declared after it
            raise SimulationError(f"unresolved name '{exc.args[0]}' at runtime") from None
    return ComponentState(PRE_START, variables)


def _successors(inst: AtomicInstance, cs: ComponentState, inputs: dict[str, Slot], branches,
                event_port: Optional[str] = None) -> list[tuple[ComponentState, list]]:
    """Every (state, outputs) of one instance reading ``inputs`` in ``cs``, one
    per branch of its enabled transitions that ``branches`` admits; with none
    enabled, it completes idle: unchanged and silent.  ``event_port`` selects
    the event-driven profile (see :meth:`LoweredAutomaton.enabled`)."""
    behaviour = inst.behaviour
    options = behaviour.enabled(cs.state, inputs, cs.variables, event_port)
    if not options:
        return [(cs, [])]
    successors = []
    for option, picks in branches(options):
        outputs, variables = behaviour.apply_outputs(option.assigns, picks, inputs, cs.variables)
        successors.append((cs if variables is cs.variables and option.target == cs.state
                           else ComponentState(option.target, variables), outputs))
    return successors


# ---------------------------------------------------------------------------
# Time-synchronous engine
# ---------------------------------------------------------------------------
#
# A joint state is a tuple of (ComponentState, sent) pairs in plan order, where
# ``sent`` maps each out-port the instance sent a message on in the last cycle
# to that message.

def _pre_start(plan: SystemPlan) -> tuple:
    """The joint state a run starts from: each instance in PRE_START, nothing sent."""
    return tuple((_start(inst, plan.model), {}) for inst in plan.instances)


def _sent(outputs: list[tuple[str, object]], state: Optional[str]) -> dict[str, Value]:
    """The messages an instance sends for the next cycle from a step out of
    ``state``, at most one per out-port."""
    sent = {}
    for port, value in outputs:
        if isinstance(value, list):
            what = (f"initial output on port '{port}' is a sequence" if state == PRE_START
                    else f"transition emitted a sequence on port '{port}'")
            raise SimulationError(
                f"{what}; the time-synchronous profile allows one message per port")
        sent[port] = value
    if ABSENT not in sent.values():
        return sent
    return {port: value for port, value in sent.items() if value is not ABSENT}


def _distinct(successors: list[tuple]) -> list[tuple]:
    """One instance's (state, sent) successors with equal ones merged, the
    first of each kept.  Equal siblings have equal subtrees, so merging them
    before the joint product loses no trace."""
    merged: dict[tuple, tuple] = {}
    for cs, sent in successors:
        key = (cs.freeze(), frozenset([(port, _freeze_value(v)) for port, v in sent.items()]))
        merged.setdefault(key, (cs, sent))
    return list(merged.values())


def _step(plan: SystemPlan, state: tuple, external: dict[str, Slot], branches,
          cycle: Optional[int]) -> tuple[dict[str, Slot], itertools.product]:
    """One global cycle: the outputs observed outside, and every distinct
    successor joint state that ``branches`` admits.  A run starts with a step
    out of :func:`_pre_start`, in cycle None, whose observed outputs are unused.

    Each instance reads what was sent in the previous cycle and fires one
    enabled transition, or completes idle: unchanged and silent.  An
    instance's equal successors are merged before the joint product, so the
    product grows with distinct successors, not with branches; a single
    branch, the policy's, computes no merge key.
    """
    sources = (external, *(sent for _, sent in state))
    per_instance = []
    try:
        for inst, (cs, _) in zip(plan.instances, state):
            successors = _successors(inst, cs, _read(inst.wires, sources), branches)
            if len(successors) == 1:
                [(successor, outputs)] = successors
                per_instance.append([(successor, _sent(outputs, cs.state) if outputs else {})])
            else:
                per_instance.append(_distinct(
                    [(successor, _sent(outputs, cs.state)) for successor, outputs in successors]))
    except SimulationError as exc:
        raise SimulationError(exc.message, cycle) from None
    return _read(plan.wires, sources), itertools.product(*per_instance)


def _record(plan: SystemPlan, index: int, external: dict[str, Slot],
            observed: dict[str, Slot], state: tuple) -> CycleRecord:
    return CycleRecord(index, external, observed,
                       {inst.path: cs for inst, (cs, _) in zip(plan.instances, state)})


def _accepts(model: ResolvedModel, rc: ResolvedComponent) -> dict[str, Callable]:
    """Per in-port of ``rc``, whether a value is a message of the port's type:
    an ``int`` that is no ``bool`` for Integer, a literal of the port's own
    enum, and nothing for a type parameter."""
    tests = {}
    for port in rc.in_ports:
        declared = rc.binding(port)[1]
        if isinstance(declared, EnumType):
            enum = model.enums[declared.qname]
            literals = {EnumValue(enum.qname, literal) for literal in enum.literals}
            tests[port] = lambda value, literals=literals: (
                type(value) is EnumValue and value in literals)
        else:
            python_type = _PYTHON_TYPES.get(declared)
            tests[port] = lambda value, python_type=python_type: type(value) is python_type
    return tests


def _mistyped(what: str, rc: ResolvedComponent, port: str, value) -> SetupError:
    return SetupError(f"{what} value {value!r} on in-port '{port}' of '{rc.qname}' "
                      f"is no {rc.binding(port)[1]}")


def _rows(plan: SystemPlan, stimulus: Iterable[dict[str, Slot]],
          n_cycles: int) -> Iterator[dict[str, Slot]]:
    """The external input of each of ``n_cycles`` cycles, read from
    ``stimulus`` one row at a time: every in-port of the main component, absent
    where the row has no message or the stimulus has ended.  Each message must
    have its port's type.  A map, not a generator (see "States and traces")."""
    main = plan.main
    accepts = _accepts(plan.model, main)

    def row_of(row: dict[str, Slot]) -> dict[str, Slot]:
        for port, value in row.items():
            if port not in accepts:
                raise SetupError(f"stimulus column '{port}' is not an in-port of "
                                 f"'{main.qname}'")
            if value is not ABSENT and not accepts[port](value):
                raise _mistyped("stimulus", main, port, value)
        return {port: row.get(port, ABSENT) for port in main.in_ports}
    padded = itertools.chain(stimulus, itertools.repeat({}))
    return map(row_of, itertools.islice(padded, n_cycles))


def iter_ts(model: ResolvedModel, main: str, stimulus: Iterable[dict[str, Slot]],
            n_cycles: int, policy: Policy = FirstDeclared()) -> Iterator[CycleRecord]:
    """Run the time-synchronous engine for a fixed number of cycles, yielding
    each cycle's record as it completes.  Stimulus rows are read, checked and
    padded one per cycle, so memory does not grow with the run; a failing cycle
    raises :class:`SimulationError` after the records of the cycles before it."""
    if n_cycles < 1:
        raise SetupError("a run needs at least one cycle")
    plan = build_plan(model, main)
    branches = _policy_branches(policy)
    _, (state,) = _step(plan, _pre_start(plan), {}, branches, None)
    for index, external in enumerate(_rows(plan, stimulus, n_cycles), start=1):
        observed, (state,) = _step(plan, state, external, branches, index)
        yield _record(plan, index, external, observed, state)


def run_ts(model: ResolvedModel, main: str, stimulus: Iterable[dict[str, Slot]],
           n_cycles: int, policy: Policy = FirstDeclared()) -> Trace:
    """The whole trace of :func:`iter_ts`."""
    return Trace(list(iter_ts(model, main, stimulus, n_cycles, policy)))


# ---------------------------------------------------------------------------
# Exhaustive enumeration (oracle)
# ---------------------------------------------------------------------------

def enumerate_ts(model: ResolvedModel, main: str, stimulus: Iterable[dict[str, Slot]],
                 n_cycles: int, bound: int = 1024) -> list[Trace]:
    """Every trace reachable by some resolution of all choice points.

    Deduplicated; raises :class:`EnumerationOverflow` when more than ``bound``
    distinct traces would be produced.  The search is depth-first over an
    explicit stack, so its depth is not limited by the run's length.  Equal
    successors of an instance are merged before they are combined, so the
    work grows with distinct successors, not with branches.  Stimulus row k is
    read and checked when the search first reaches cycle k, so a run that
    fails early reads no further.
    """
    if n_cycles < 1:
        raise SetupError("a run needs at least one cycle")
    if bound < 1:
        raise SetupError("the enumeration bound must be at least 1")
    plan = build_plan(model, main)
    source = _rows(plan, stimulus, n_cycles)
    rows: list[dict[str, Slot]] = []

    # A node is (joint state, cycle, prefix); a prefix is None or (record, its
    # frozen form, parent prefix), so traces with a common prefix share its
    # records, and each record is frozen once however many traces it starts.
    _, starts = _step(plan, _pre_start(plan), {}, _every_branch, None)
    stack = [(state, 1, None) for state in starts]
    stack.reverse()
    results: dict[tuple, Trace] = {}
    while stack:
        state, index, prefix = stack.pop()
        if index > n_cycles:
            records: list[CycleRecord] = []
            frozen: list[tuple] = []
            while prefix is not None:
                record, record_key, prefix = prefix
                records.append(record)
                frozen.append(record_key)
            frozen.reverse()
            key = tuple(frozen)  # the frozen records, in order
            if key not in results:
                if len(results) >= bound:
                    raise EnumerationOverflow(
                        f"more than {bound} distinct traces; raise the bound")
                records.reverse()
                results[key] = Trace(records)
            continue
        if index > len(rows):
            rows.append(next(source))
        external = rows[index - 1]
        observed, successors = _step(plan, state, external, _every_branch, index)
        children = []
        for successor in successors:
            record = _record(plan, index, external, observed, successor)
            children.append((successor, index + 1, (record, record.freeze(), prefix)))
        stack.extend(reversed(children))
    return [results[key] for key in sorted(results)]


# ---------------------------------------------------------------------------
# Event-driven engine
# ---------------------------------------------------------------------------

def _emissions(outputs: list[tuple[str, object]]) -> list[tuple[str, list[Value]]]:
    """Outputs as event sequences: ``--`` sends none, a single value one."""
    return [(port, value if isinstance(value, list) else [] if value is ABSENT else [value])
            for port, value in outputs]


def run_ed(model: ResolvedModel, main: str, script: list[Event],
           policy: Policy = FirstDeclared()) -> EventTrace:
    """Consume the scripted events in order, run-to-completion per event: the
    main component's one instance reads the event's port, every other in-port
    absent, and only transitions that read exactly that port react to it.  An
    event's value must have its port's type."""
    rc = model.components.get(main)
    if rc is not None and rc.ast.subcomponents:
        raise SetupError("event-driven simulation requires an atomic main component")
    [inst] = build_plan(model, main).instances
    branches = _policy_branches(policy)
    silent = dict.fromkeys(rc.in_ports, ABSENT)
    [(cs, outputs)] = _successors(inst, _start(inst, model), silent, branches)
    trace = EventTrace(cs.state, _emissions(outputs), [])
    accepts = _accepts(model, rc)
    for event in script:
        if event.port not in silent:
            raise SetupError(f"'{event.port}' is not an in-port of '{rc.qname}'")
        if event.value is not ABSENT and not accepts[event.port](event.value):
            raise _mistyped("event", rc, event.port, event.value)
        inputs = {**silent, event.port: event.value}
        [(cs, outputs)] = _successors(inst, cs, inputs, branches, event.port)
        trace.steps.append(EventStep(event, _emissions(outputs), cs))
    return trace
