"""Execution engines for checked models.

Time-synchronous runs proceed in global cycles: every atomic instance fires at
most one enabled transition per cycle (or completes idle), and anything it
emits becomes visible to its communication partners, and externally, exactly
one cycle later.  Initial outputs are what the outside world observes in cycle
one.  Unread messages are lost at the end of their cycle.

Event-driven runs consume one scripted event at a time, run-to-completion: the
matching transition may emit finite sequences of events per output port.

Both engines and the enumerator run one executable form of each automaton,
built once per plan or machine by :func:`lower`, the only place the engine
asks resolution what a name denotes: its transitions grouped by source state
in declaration order, each with the in-ports its guard reads, the in-ports it
reads overall, and the port or variable each entry targets; and the bare names
that denote enum literals.  :meth:`LoweredAutomaton.enabled` is the one query
for enabled transitions, and :meth:`LoweredAutomaton.apply_outputs` evaluates
every output block, initial or not, under either profile.

Nondeterminism (several enabled transitions, ``|`` alternatives, several
initial states) is resolved by a :class:`Policy`; ``enumerate_ts`` instead
expands every choice point and returns the exact reachable trace set, serving
as a brute-force oracle for the policy-driven engines.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .diagnostics import SourceLoc
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
    BoolLit,
    EBinary,
    ELit,
    ERef,
    EUnary,
    Expr,
    IntLit,
    NameValue,
    NoData,
    SequenceValue,
    StringLit,
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


def values_equal(a: Slot, b: Slot) -> bool:
    """Exact equality; bool and int never compare equal across types."""
    if a is ABSENT or b is ABSENT:
        return a is b
    if type(a) is not type(b):
        return False
    return a == b


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


class _Chooser:
    def __init__(self, policy: Policy):
        self._rng = random.Random(policy.seed) if isinstance(policy, Seeded) else None

    def pick(self, options: list):
        if not options:
            raise IndexError("no options to choose from")
        if self._rng is None or len(options) == 1:
            return options[0]
        return options[self._rng.randrange(len(options))]


# ---------------------------------------------------------------------------
# States and traces
# ---------------------------------------------------------------------------

@dataclass
class ComponentState:
    state: Optional[str]  # None for an automaton-less instance
    variables: dict[str, Value] = field(default_factory=dict)

    def copy(self) -> "ComponentState":
        return ComponentState(self.state, dict(self.variables))

    def freeze(self) -> tuple:
        return (self.state, tuple(sorted(
            (k, (v.enum, v.literal) if isinstance(v, EnumValue) else v)
            for k, v in self.variables.items())))


@dataclass
class CycleRecord:
    index: int
    inputs: dict[str, Slot]
    outputs: dict[str, Slot]
    states: dict[str, ComponentState]  # instance path -> post-cycle state

    def freeze(self) -> tuple:
        return (
            self.index,
            tuple(sorted((k, _freeze_slot(v)) for k, v in self.inputs.items())),
            tuple(sorted((k, _freeze_slot(v)) for k, v in self.outputs.items())),
            tuple(sorted((k, s.freeze()) for k, s in self.states.items())),
        )


def _freeze_slot(v: Slot) -> tuple:
    """Sortable form of a slot; absence sorts before every value."""
    return () if v is ABSENT else (type(v).__name__, str(v))


@dataclass
class Trace:
    records: list[CycleRecord]

    def key(self) -> tuple:
        return tuple(r.freeze() for r in self.records)

    def out_column(self, port: str) -> list[Slot]:
        return [r.outputs[port] for r in self.records]


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
# Term evaluation
# ---------------------------------------------------------------------------

def _term_value(term: ValueTerm, inputs: dict[str, Slot], variables: dict[str, Value],
                enums: dict[str, EnumValue]) -> Slot:
    """Value denoted by a single (non-sequence) term in the current context.

    ``enums`` maps the bare names that denote enum literals to their values.
    """
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, BoolLit):
        return term.value
    if isinstance(term, StringLit):
        return term.value
    if isinstance(term, NoData):
        return ABSENT
    if isinstance(term, NameValue):
        if term.name in enums:
            return enums[term.name]
        if term.name in inputs:
            return inputs[term.name]
        if term.name in variables:
            return variables[term.name]
        raise SimulationError(f"unresolved name '{term.name}' at runtime")
    raise SimulationError(f"cannot evaluate {term!r} as a single value")


def _eval_expr(expr: Expr, inputs, variables, enums):
    if isinstance(expr, ELit):
        return expr.value
    if isinstance(expr, ERef):
        if expr.name in enums:
            return enums[expr.name]
        if expr.name in inputs:
            return inputs[expr.name]
        if expr.name in variables:
            return variables[expr.name]
        raise SimulationError(f"unresolved name '{expr.name}' in guard")
    if isinstance(expr, EUnary):
        v = _eval_expr(expr.operand, inputs, variables, enums)
        return (not v) if expr.op == "!" else -v
    if isinstance(expr, EBinary):
        left = _eval_expr(expr.left, inputs, variables, enums)
        if expr.op == "&&":
            return bool(left) and bool(_eval_expr(expr.right, inputs, variables, enums))
        if expr.op == "||":
            return bool(left) or bool(_eval_expr(expr.right, inputs, variables, enums))
        right = _eval_expr(expr.right, inputs, variables, enums)
        if expr.op == "==":
            return values_equal(left, right)
        if expr.op == "!=":
            return not values_equal(left, right)
        if expr.op == "<":
            return left < right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">":
            return left > right
        if expr.op == ">=":
            return left >= right
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
    raise SimulationError(f"cannot evaluate expression {expr!r}")


# ---------------------------------------------------------------------------
# Executable form of an automaton
# ---------------------------------------------------------------------------

class LoweredEntry:
    """An input- or output-block entry with the port or variable it targets,
    None when it has none (``check`` reports that)."""

    __slots__ = ("target", "alternatives", "loc")

    def __init__(self, target: Optional[str], alternatives: list[ValueTerm], loc: SourceLoc):
        self.target = target
        self.alternatives = alternatives
        self.loc = loc


class LoweredInitial(NamedTuple):
    """An initial declaration with its output block lowered."""

    state: str
    assigns: list[LoweredEntry]


class LoweredTransition:
    """A transition with the in-ports it reads and its entries' targets
    computed once.

    ``guard_ports`` are the in-ports its guard reads: the guard is false while
    any of them is absent.  ``reads`` adds the in-ports its input block
    matches; under the event-driven profile a transition reacts only to events
    on the one port it reads.
    """

    __slots__ = ("transition", "target", "guard", "guard_ports", "reads",
                 "matches", "assigns")

    def __init__(self, transition: Transition, guard_ports: frozenset[str],
                 reads: frozenset[str], matches: list[LoweredEntry],
                 assigns: list[LoweredEntry]):
        self.transition = transition
        self.target = transition.target
        self.guard = transition.guard.expr if transition.guard is not None else None
        self.guard_ports = guard_ports
        self.reads = reads
        self.matches = matches
        self.assigns = assigns


@dataclass
class LoweredAutomaton:
    """The executable form of an automaton; :func:`lower` builds it."""

    start: Optional[str]  # first declared state, entered when no initial is declared
    initials: list[LoweredInitial]
    by_state: dict[str, list[LoweredTransition]]
    enums: dict[str, EnumValue]  # bare name -> the enum literal it denotes
    port_dir: dict[str, str]

    def enabled(self, state: Optional[str], inputs: dict[str, Slot],
                variables: dict[str, Value], event_port: Optional[str] = None,
                cycle: Optional[int] = None) -> list[LoweredTransition]:
        """Enabled transitions out of ``state``, in declaration order.

        ``inputs`` holds every in-port.  With ``event_port``, only transitions
        that read exactly that port qualify (the event-driven profile).  A
        guard or input block that cannot be evaluated raises
        :class:`SimulationError`, naming ``cycle`` when given.
        """
        result = []
        try:
            for t in self.by_state.get(state, ()):
                if event_port is not None and (len(t.reads) != 1 or event_port not in t.reads):
                    continue
                if t.guard is not None:
                    if any(inputs[port] is ABSENT for port in t.guard_ports):
                        continue
                    try:
                        holds = _eval_expr(t.guard, inputs, variables, self.enums)
                    except TypeError as exc:
                        raise SimulationError(f"guard cannot be evaluated: {exc}") from None
                    if not isinstance(holds, bool):
                        raise SimulationError("guard did not evaluate to a Boolean")
                    if not holds:
                        continue
                if all(_match_satisfied(m, inputs, variables, self.enums) for m in t.matches):
                    result.append(t)
        except SimulationError as exc:
            raise SimulationError(exc.message, cycle) from None
        return result

    def apply_outputs(self, assigns: list[LoweredEntry], picks: list[ValueTerm],
                      inputs: dict[str, Slot],
                      variables: dict[str, Value]) -> tuple[list[tuple[str, object]], dict[str, Value]]:
        """Evaluate an output block with one picked alternative per assignment.

        Returns the (out-port, value) pairs sent, in assignment order, and the
        variables afterwards.  A value is a message, ABSENT for ``--``, or a
        list for a sequence.  Every right-hand side reads the pre-state;
        variables not assigned keep their values.  Forwarding an absent
        message, giving a variable ``--`` or a sequence, and assigning to
        anything but an out-port or a variable are runtime errors.
        """
        outputs: list[tuple[str, object]] = []
        new_vars = dict(variables)
        for assign, pick in zip(assigns, picks):
            target = assign.target
            if target is None:
                raise SimulationError(f"output target could not be resolved at {assign.loc}")
            if isinstance(pick, SequenceValue):
                value: object = [_forwarded(e, inputs, variables, self.enums)
                                 for e in pick.elements]
            elif isinstance(pick, NoData):
                value = ABSENT
            else:
                value = _forwarded(pick, inputs, variables, self.enums)
            if self.port_dir.get(target) == "out":
                outputs.append((target, value))
            elif target in variables:
                if value is ABSENT or isinstance(value, list):
                    raise SimulationError(
                        f"variable '{target}' cannot take an absent value or sequence")
                new_vars[target] = value
            else:
                raise SimulationError(f"'{target}' is neither an out-port nor a variable")
        return outputs, new_vars


def lower(rc: ResolvedComponent) -> LoweredAutomaton:
    """The executable form of the one automaton of an atomic component.

    A component without an automaton has no states and never fires.
    Transitions that read equal port sets share one set object.
    """
    automaton = rc.ast.automata[0] if rc.ast.automata else Automaton(None, [], [], [], [])
    shared: dict[frozenset[str], frozenset[str]] = {}

    def share(ports: set[str]) -> frozenset[str]:
        frozen = frozenset(ports)
        return shared.setdefault(frozen, frozen)

    def entries(block) -> list[LoweredEntry]:
        return [LoweredEntry(rc.target(e).name, e.alternatives, e.loc) for e in block or []]

    by_state: dict[str, list[LoweredTransition]] = {}
    for t in automaton.transitions:
        guard_ports, reads = rc.ports_read(t)
        by_state.setdefault(t.source, []).append(LoweredTransition(
            t, share(guard_ports), share(reads), entries(t.input), entries(t.output)))
    initials = [LoweredInitial(i.state, entries(i.output)) for i in automaton.initials]
    enums = {name: EnumValue(infos[0].qname, name) for name, infos in rc.literal_index.items()
             if rc.binding(name)[0] == "enum"}
    start = automaton.states[0].name if automaton.states else None
    return LoweredAutomaton(start, initials, by_state, enums, rc.port_dir)


def _match_satisfied(match: LoweredEntry, inputs, variables, enums) -> bool:
    """Whether one input-block entry holds; an absent port satisfies only ``--``."""
    target = match.target
    if target is None:
        raise SimulationError(f"input target could not be resolved at {match.loc}")
    if target in inputs:
        current = inputs[target]
    elif target in variables:
        current = variables[target]
    else:
        raise SimulationError(f"no runtime value for '{target}'")
    for alt in match.alternatives:
        if isinstance(alt, SequenceValue):
            continue  # a sequence never matches a single message
        if values_equal(current, _term_value(alt, inputs, variables, enums)):
            return True
    return False


def _forwarded(term: ValueTerm, inputs, variables, enums) -> Value:
    value = _term_value(term, inputs, variables, enums)
    if value is ABSENT:
        name = term.name if isinstance(term, NameValue) else "--"
        raise SimulationError(f"forwarding absent message from port '{name}'")
    return value


# ---------------------------------------------------------------------------
# Instantiation (composition flattening)
# ---------------------------------------------------------------------------

@dataclass
class AtomicInstance:
    path: str  # "" for an atomic main component
    rc: ResolvedComponent
    subst: dict[str, TypeRef]
    behaviour: LoweredAutomaton
    in_sources: dict[str, tuple] = field(default_factory=dict)


@dataclass
class SystemPlan:
    model: ResolvedModel
    main: ResolvedComponent
    instances: list[AtomicInstance]
    out_sources: dict[str, tuple]


def build_plan(model: ResolvedModel, main: str) -> SystemPlan:
    """Flatten the (possibly hierarchical) main component to atomic instances.

    Each component's automaton is lowered once, however many instances it has.
    """
    if main not in model.components:
        raise SetupError(f"unknown main component '{main}'")
    root = model.components[main]

    instances: list[AtomicInstance] = []
    edges: dict[tuple[str, str], tuple[str, str]] = {}
    atomic_paths: set[str] = set()
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
            atomic_paths.add(path)
            return
        if rc.ast.automata:
            raise SetupError(
                f"component '{rc.qname}' mixes subcomponents and automaton behavior")
        for decl in rc.ast.subcomponents:
            sub = rc.subcomponents.get(decl.instance)
            if sub is None:
                raise SetupError(
                    f"subcomponent '{decl.instance}' of '{rc.qname}' did not resolve")
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

    def follow(node: tuple[str, str], seen: set) -> tuple:
        if node in seen:
            raise SetupError(f"connector cycle through {node[1]!r}")
        seen = seen | {node}
        path, port = node
        if path in atomic_paths and node not in edges:
            inst = next(i for i in instances if i.path == path)
            if inst.rc.port_dir.get(port) == "out":
                return ("inst", path, port)
        if path == "" and root.port_dir.get(port) == "in" and root.ast.subcomponents:
            return ("ext", port)
        if node in edges:
            return follow(edges[node], seen)
        return ("absent",)

    is_composed = bool(root.ast.subcomponents)
    for inst in instances:
        for port in inst.rc.in_ports:
            if not is_composed:
                inst.in_sources[port] = ("ext", port)
            else:
                inst.in_sources[port] = follow((inst.path, port), set())

    out_sources: dict[str, tuple] = {}
    for port in root.out_ports:
        if not is_composed:
            out_sources[port] = ("inst", "", port)
        else:
            out_sources[port] = follow(("", port), set())

    return SystemPlan(model, root, instances, out_sources)


def default_value(ref: Optional[TypeRef], subst: dict[str, TypeRef],
                  model: ResolvedModel) -> Value:
    """Type default for a variable read before any assignment."""
    ref = substitute_type(ref, subst)
    if ref == INTEGER:
        return 0
    if ref == BOOLEAN:
        return False
    if ref == STRING:
        return ""
    if isinstance(ref, EnumType):
        enum = model.enums.get(ref.qname)
        if enum is None or not enum.literals:
            raise SetupError(f"enum '{ref.qname}' has no literals to default to")
        return EnumValue(ref.qname, enum.literals[0])
    raise SetupError(f"cannot default a value of type {ref}")


# ---------------------------------------------------------------------------
# Initial states, under either profile
# ---------------------------------------------------------------------------

def _pick_initial(inst: AtomicInstance, chooser: _Chooser) -> tuple:
    """One initial declaration and one alternative per assignment of its output."""
    if not inst.behaviour.initials:
        return None, []
    initial = chooser.pick(inst.behaviour.initials)
    return initial, [chooser.pick(a.alternatives) for a in initial.assigns]


def _start(inst: AtomicInstance, model: ResolvedModel, initial: Optional[LoweredInitial],
           picks) -> tuple[ComponentState, list[tuple[str, object]]]:
    """State and initial outputs after one chosen initial declaration."""
    variables: dict[str, Value] = {}
    for var in inst.rc.ast.variables:
        if var.initial is not None:
            value = _term_value(var.initial, {}, variables, inst.behaviour.enums)
            if value is ABSENT:
                raise SimulationError(f"variable '{var.name}' initialized to an absent value")
            variables[var.name] = value
        else:
            variables[var.name] = default_value(
                inst.rc.var_type.get(var.name), inst.subst, model)
    if initial is None:
        # no initial declaration (a convention warning): start at the first
        # declared state with no initial output
        return ComponentState(inst.behaviour.start, variables), []
    inputs = {port: ABSENT for port in inst.rc.in_ports}
    outputs, variables = inst.behaviour.apply_outputs(initial.assigns, picks, inputs,
                                                      variables)
    return ComponentState(initial.state, variables), outputs


# ---------------------------------------------------------------------------
# Time-synchronous engine
# ---------------------------------------------------------------------------

@dataclass
class TSState:
    components: dict[str, ComponentState]
    pending: dict[str, dict[str, Slot]]


def _pending(inst: AtomicInstance, outputs: list[tuple[str, object]],
             cycle: Optional[int]) -> dict[str, Slot]:
    """What an instance sends for the next cycle: one message or ABSENT per out-port."""
    pending = {port: ABSENT for port in inst.rc.out_ports}
    for port, value in outputs:
        if isinstance(value, list):
            what = (f"initial output on port '{port}' is a sequence" if cycle is None
                    else f"transition emitted a sequence on port '{port}'")
            raise SimulationError(
                f"{what}; the time-synchronous profile allows one message per port", cycle)
        pending[port] = value
    return pending


def _start_ts(inst: AtomicInstance, model: ResolvedModel, initial: Optional[LoweredInitial],
              picks) -> tuple[ComponentState, dict[str, Slot]]:
    cs, outputs = _start(inst, model, initial, picks)
    return cs, _pending(inst, outputs, None)


def _init_ts(plan: SystemPlan, chooser: _Chooser) -> TSState:
    components: dict[str, ComponentState] = {}
    pending: dict[str, dict[str, Slot]] = {}
    for inst in plan.instances:
        components[inst.path], pending[inst.path] = _start_ts(
            inst, plan.model, *_pick_initial(inst, chooser))
    return TSState(components, pending)


def _instance_inputs(plan: SystemPlan, state: TSState, inst: AtomicInstance,
                     external: dict[str, Slot]) -> dict[str, Slot]:
    inputs: dict[str, Slot] = {}
    for port in inst.rc.in_ports:
        source = inst.in_sources[port]
        if source[0] == "ext":
            inputs[port] = external.get(source[1], ABSENT)
        elif source[0] == "inst":
            inputs[port] = state.pending[source[1]].get(source[2], ABSENT)
        else:
            inputs[port] = ABSENT
    return inputs


def _observe(plan: SystemPlan, state: TSState, external: dict[str, Slot]) -> dict[str, Slot]:
    observed: dict[str, Slot] = {}
    for port, source in plan.out_sources.items():
        if source[0] == "inst":
            observed[port] = state.pending[source[1]].get(source[2], ABSENT)
        elif source[0] == "ext":
            observed[port] = external.get(source[1], ABSENT)
        else:
            observed[port] = ABSENT
    return observed


def _fire_ts(inst: AtomicInstance, cs: ComponentState, inputs: dict[str, Slot],
             chosen: LoweredTransition, picks, cycle: Optional[int]):
    """Successor state and pending outputs of one instance firing ``chosen``."""
    try:
        outputs, variables = inst.behaviour.apply_outputs(chosen.assigns, picks, inputs,
                                                          cs.variables)
    except SimulationError as exc:
        raise SimulationError(exc.message, cycle) from None
    return ComponentState(chosen.target, variables), _pending(inst, outputs, cycle)


def _idle(inst: AtomicInstance, cs: ComponentState):
    """Idle completion: state and variables unchanged, nothing emitted."""
    return cs.copy(), {port: ABSENT for port in inst.rc.out_ports}


def step_ts(plan: SystemPlan, state: TSState, external: dict[str, Slot],
            chooser: _Chooser, cycle: Optional[int] = None) -> tuple[TSState, dict[str, Slot]]:
    """One global cycle; returns the successor state and the observed outputs."""
    observed = _observe(plan, state, external)
    new_components: dict[str, ComponentState] = {}
    new_pending: dict[str, dict[str, Slot]] = {}
    for inst in plan.instances:
        cs = state.components[inst.path]
        inputs = _instance_inputs(plan, state, inst, external)
        options = inst.behaviour.enabled(cs.state, inputs, cs.variables, cycle=cycle)
        if options:
            chosen = chooser.pick(options)
            picks = [chooser.pick(a.alternatives) for a in chosen.assigns]
            successor = _fire_ts(inst, cs, inputs, chosen, picks, cycle)
        else:
            successor = _idle(inst, cs)
        new_components[inst.path], new_pending[inst.path] = successor
    return TSState(new_components, new_pending), observed


def _normalize_stimulus(plan: SystemPlan, stimulus: list[dict[str, Slot]],
                        n_cycles: int) -> list[dict[str, Slot]]:
    in_ports = plan.main.in_ports
    rows: list[dict[str, Slot]] = []
    for row in stimulus:
        for port in row:
            if port not in in_ports:
                raise SetupError(f"stimulus column '{port}' is not an in-port of "
                                 f"'{plan.main.qname}'")
        rows.append({port: row.get(port, ABSENT) for port in in_ports})
    while len(rows) < n_cycles:
        rows.append({port: ABSENT for port in in_ports})
    return rows[:n_cycles]


def run_ts(model: ResolvedModel, main: str, stimulus: list[dict[str, Slot]],
           n_cycles: int, policy: Policy = FirstDeclared()) -> Trace:
    """Run the time-synchronous engine for a fixed number of cycles."""
    if n_cycles < 1:
        raise SetupError("a run needs at least one cycle")
    plan = build_plan(model, main)
    rows = _normalize_stimulus(plan, stimulus, n_cycles)
    chooser = _Chooser(policy)
    state = _init_ts(plan, chooser)
    records: list[CycleRecord] = []
    for index in range(1, n_cycles + 1):
        external = rows[index - 1]
        state, observed = step_ts(plan, state, external, chooser, cycle=index)
        records.append(CycleRecord(
            index, dict(external), observed,
            {inst.path: state.components[inst.path].copy() for inst in plan.instances},
        ))
    return Trace(records)


# ---------------------------------------------------------------------------
# Exhaustive enumeration (oracle)
# ---------------------------------------------------------------------------

def _all_picks(assigns: list[LoweredEntry]):
    """Every selection of one alternative per assignment."""
    return itertools.product(*(a.alternatives for a in assigns))


def enumerate_ts(model: ResolvedModel, main: str, stimulus: list[dict[str, Slot]],
                 n_cycles: int, bound: int = 1024) -> list[Trace]:
    """Every trace reachable by some resolution of all choice points.

    Deduplicated; raises :class:`EnumerationOverflow` when more than ``bound``
    distinct traces would be produced.  The search is depth-first over an
    explicit stack, so its depth is not limited by the run's length.
    """
    if n_cycles < 1:
        raise SetupError("a run needs at least one cycle")
    if bound < 1:
        raise SetupError("the enumeration bound must be at least 1")
    plan = build_plan(model, main)
    rows = _normalize_stimulus(plan, stimulus, n_cycles)
    instances = plan.instances

    def successors(inst: AtomicInstance, cs: ComponentState,
                   inputs: dict[str, Slot], cycle: int) -> list:
        options = inst.behaviour.enabled(cs.state, inputs, cs.variables, cycle=cycle)
        if not options:
            return [_idle(inst, cs)]
        return [_fire_ts(inst, cs, inputs, chosen, picks, cycle)
                for chosen in options for picks in _all_picks(chosen.assigns)]

    per_instance = []
    for inst in instances:
        if inst.behaviour.initials:
            per_instance.append([_start_ts(inst, plan.model, initial, picks)
                                 for initial in inst.behaviour.initials
                                 for picks in _all_picks(initial.assigns)])
        else:
            per_instance.append([_start_ts(inst, plan.model, None, ())])

    # A node is (state, cycle, prefix); a prefix is None or (record, parent prefix).
    stack = [(TSState({inst.path: cs for inst, (cs, _) in zip(instances, combo)},
                      {inst.path: pend for inst, (_, pend) in zip(instances, combo)}), 1, None)
             for combo in itertools.product(*per_instance)]
    stack.reverse()
    results: dict[tuple, Trace] = {}
    while stack:
        state, index, prefix = stack.pop()
        if index > n_cycles:
            records: list[CycleRecord] = []
            while prefix is not None:
                record, prefix = prefix
                records.append(record)
            records.reverse()
            key = Trace(records).key()
            if key not in results:
                if len(results) >= bound:
                    raise EnumerationOverflow(
                        f"more than {bound} distinct traces; raise the bound")
                results[key] = Trace([CycleRecord(r.index, dict(r.inputs), dict(r.outputs),
                                                  {k: v.copy() for k, v in r.states.items()})
                                      for r in records])
            continue
        external = rows[index - 1]
        observed = _observe(plan, state, external)
        per_instance = [successors(inst, state.components[inst.path],
                                   _instance_inputs(plan, state, inst, external), index)
                        for inst in instances]
        children = []
        for combo in itertools.product(*per_instance):
            record = CycleRecord(
                index, dict(external), dict(observed),
                {inst.path: cs.copy() for inst, (cs, _) in zip(instances, combo)},
            )
            next_state = TSState(
                {inst.path: cs for inst, (cs, _) in zip(instances, combo)},
                {inst.path: pend for inst, (_, pend) in zip(instances, combo)},
            )
            children.append((next_state, index + 1, (record, prefix)))
        stack.extend(reversed(children))

    return sorted(results.values(), key=Trace.key)


# ---------------------------------------------------------------------------
# Event-driven engine
# ---------------------------------------------------------------------------

def _emissions(outputs: list[tuple[str, object]]) -> list[tuple[str, list[Value]]]:
    """Outputs as event sequences: ``--`` sends none, a single value one."""
    return [(port, value if isinstance(value, list) else [] if value is ABSENT else [value])
            for port, value in outputs]


class EventMachine:
    """Event-driven interpreter for one atomic component."""

    def __init__(self, model: ResolvedModel, main: str, policy: Policy = FirstDeclared()):
        if main not in model.components:
            raise SetupError(f"unknown main component '{main}'")
        rc = model.components[main]
        if rc.ast.subcomponents:
            raise SetupError("event-driven simulation requires an atomic main component")
        if len(rc.ast.automata) > 1:
            raise SetupError(f"component '{rc.qname}' has several automata")
        self.model = model
        self.rc = rc
        self.instance = AtomicInstance("", rc, {}, lower(rc))
        self.chooser = _Chooser(policy)
        self._silent = {port: ABSENT for port in rc.in_ports}

    def initial(self) -> tuple[ComponentState, list[tuple[str, list[Value]]]]:
        cs, outputs = _start(self.instance, self.model,
                             *_pick_initial(self.instance, self.chooser))
        return cs, _emissions(outputs)

    def step(self, cs: ComponentState, event: Event) -> tuple[ComponentState, list]:
        """Consume one event; unmatched events are dropped without effect."""
        if event.port not in self._silent:
            raise SetupError(f"'{event.port}' is not an in-port of '{self.rc.qname}'")
        inputs = dict(self._silent)
        inputs[event.port] = event.value
        behaviour = self.instance.behaviour
        options = behaviour.enabled(cs.state, inputs, cs.variables, event.port)
        if not options:
            return cs.copy(), []
        chosen = self.chooser.pick(options)
        picks = [self.chooser.pick(a.alternatives) for a in chosen.assigns]
        outputs, variables = behaviour.apply_outputs(chosen.assigns, picks, inputs, cs.variables)
        return ComponentState(chosen.target, variables), _emissions(outputs)


def run_ed(model: ResolvedModel, main: str, script: list[Event],
           policy: Policy = FirstDeclared()) -> EventTrace:
    """Consume the scripted events in order, run-to-completion per event."""
    machine = EventMachine(model, main, policy)
    cs, initial_emissions = machine.initial()
    trace = EventTrace(cs.state, initial_emissions, [])
    for event in script:
        cs, emissions = machine.step(cs, event)
        trace.steps.append(EventStep(event, emissions, cs.copy()))
    return trace
