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
:func:`_external` alone types and pads stimulus rows and events.  The runtime errors
left are forwarding an absent message, an initialiser that reads a later
variable, and a sequence sent under the time-synchronous profile (S3TS).

Both engines and the enumerator run one executable form of each automaton,
built once per plan by :func:`maa.lowering.lower`, whose
``LoweredAutomaton.enabled`` is the one query for enabled transitions.  The
runtime values (:data:`ABSENT`, :class:`EnumValue`, ``Value``, ``Slot``) and
:class:`SimulationError` are defined in :mod:`maa.lowering` too, and this
module imports them, so they are also ``maa.engine`` names.

Nondeterminism (several enabled transitions, ``|`` alternatives, several
initial states) is resolved by a :class:`Policy`; ``enumerate_ts`` instead
expands every choice point and returns the exact reachable trace set, serving
as a brute-force oracle for the policy-driven engines.  Every run starts with
an ordinary step out of :data:`PRE_START`, where :func:`_start` puts each
instance with its variables initialised, and every instance fires through
:func:`_successors`: in the time-synchronous step, :func:`_step`, wired by
index (a policy follows one branch, the enumerator every branch, with equal
successors merged), or in :func:`iter_ed` once to start and once per event.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Union

from .checks import check
from .diagnostics import ERROR, Diagnostic
from .lowering import (
    ABSENT,
    PRE_START,
    EnumValue,
    LoweredAutomaton,
    SimulationError,
    Slot,
    Value,
    format_value,
    lower,
)
from .resolution import (
    EnumType,
    PYTHON_TYPES,
    ResolvedComponent,
    ResolvedModel,
    TypeRef,
    substitute_type,
)


class SetupError(Exception):
    """Bad simulation request: unknown component, port, or malformed stimulus."""


class EnumerationOverflow(Exception):
    """Raised when exhaustive enumeration exceeds its trace bound."""


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
# the run could not end in one line of ``internal error``.  The only yields per
# cycle or per event are those of :func:`iter_ts` and :func:`iter_ed`, whose
# callers stream a run's records.

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


@dataclass(frozen=True, slots=True)
class Event:
    port: str
    value: Value


@dataclass
class EventStep:
    event: Optional[Event]  # None for the start of an :func:`iter_ed` run
    emissions: list[tuple[str, list[Value]]]
    state: ComponentState


@dataclass
class EventTrace:
    initial_state: Optional[str]
    initial_emissions: list[tuple[str, list[Value]]]
    steps: list[EventStep]


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

    def _node(path: str, ref) -> tuple[str, str]:
        if ref.instance is None:
            return (path, ref.port)
        inner = f"{path}.{ref.instance}" if path else ref.instance
        return (inner, ref.port)

    # Depth first over an explicit stack, each component's children pushed in
    # reverse, so instances are in declaration order at any depth.
    stack: list[tuple[ResolvedComponent, str, dict[str, TypeRef]]] = [(root, "", {})]
    while stack:
        rc, path, subst = stack.pop()
        if not rc.ast.composed:
            if len(rc.ast.automata) > 1:
                raise SetupError(
                    f"component '{rc.qname}' has several automata; "
                    "simulation needs at most one")
            if rc.qname not in lowered:
                lowered[rc.qname] = lower(rc)
            instances.append(AtomicInstance(path, rc, subst, lowered[rc.qname]))
            continue
        children = []
        for decl in rc.ast.subcomponents:
            sub = rc.subcomponents[decl.instance]
            child_rc = model.components[sub.target_qname]
            child_path = f"{path}.{decl.instance}" if path else decl.instance
            child_subst = {
                param: substitute_type(arg, subst)
                for param, arg in zip(child_rc.ast.generic_params, sub.arg_types)
            }
            children.append((child_rc, child_path, child_subst))
        stack.extend(reversed(children))
        for conn in rc.ast.connectors:
            src = _node(path, conn.source)
            dst = _node(path, conn.target)
            edges[dst] = src

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


def default_value(ref: Optional[TypeRef], subst: dict[str, TypeRef],
                  model: ResolvedModel) -> Value:
    """Type default for a variable read before any assignment: ``0``,
    ``false``, ``""`` or the enum's first literal."""
    ref = substitute_type(ref, subst)
    if ref in PYTHON_TYPES:
        return PYTHON_TYPES[ref]()
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


def _external(model: ResolvedModel, rc: ResolvedComponent, what: str,
              column: str) -> Callable[[dict[str, Slot]], dict[str, Slot]]:
    """The one gate for values from outside a run: a function that checks a
    partial row of ``rc``'s in-ports, a stimulus row or one event's ``{port:
    value}``, and returns every in-port's input, absent where the row has none.
    A value must be a message of its port's type: an ``int`` that is no
    ``bool`` for Integer, a literal of the port's own enum, and nothing for a
    type parameter.  ``what`` and ``column`` name the row in refusals."""
    tests = {}
    for port in rc.in_ports:
        declared = rc.binding(port)[1]
        if isinstance(declared, EnumType):
            enum = model.enums[declared.qname]
            literals = {EnumValue(enum.qname, literal) for literal in enum.literals}
            tests[port] = lambda value, literals=literals: (
                type(value) is EnumValue and value in literals)
        else:
            python_type = PYTHON_TYPES.get(declared)
            tests[port] = lambda value, python_type=python_type: type(value) is python_type
    silent = dict.fromkeys(rc.in_ports, ABSENT)

    def inputs(row: dict[str, Slot]) -> dict[str, Slot]:
        for port, value in row.items():
            if port not in tests:
                raise SetupError(f"{column}'{port}' is not an in-port of '{rc.qname}'")
            if value is not ABSENT and not tests[port](value):
                raise SetupError(f"{what} value {value!r} on in-port '{port}' of "
                                 f"'{rc.qname}' is no {rc.binding(port)[1]}")
        return {**silent, **row}
    return inputs


def _rows(plan: SystemPlan, stimulus: Iterable[dict[str, Slot]],
          n_cycles: int) -> Iterator[dict[str, Slot]]:
    """The external input of each of ``n_cycles`` cycles, read from
    ``stimulus`` one row at a time and passed through :func:`_external`; a
    row past the stimulus's end is empty.  A map, not a generator (see
    "States and traces")."""
    padded = itertools.chain(stimulus, itertools.repeat({}))
    return map(_external(plan.model, plan.main, "stimulus", "stimulus column "),
               itertools.islice(padded, n_cycles))


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


def iter_ed(model: ResolvedModel, main: str, script: Iterable[Event],
            policy: Policy = FirstDeclared()) -> Iterator[EventStep]:
    """Consume the scripted events in order, run-to-completion per event,
    yielding the start first, as a step with no event (the initial state and
    initial emissions), then one step per event as that event completes.  The
    main component's one instance reads the event's port, every other in-port
    absent, and only transitions that read exactly that port react to it.  An
    event's value must have its port's type.  A failing event raises
    :class:`SimulationError`, naming the event, after the steps before it."""
    rc = model.components.get(main)
    if rc is not None and rc.ast.composed:
        raise SetupError("event-driven simulation requires an atomic main component")
    [inst] = build_plan(model, main).instances
    branches = _policy_branches(policy)
    inputs = _external(model, rc, "event", "")
    [(cs, outputs)] = _successors(inst, _start(inst, model), inputs({}), branches)
    yield EventStep(None, _emissions(outputs), cs)
    for index, event in enumerate(script, start=1):
        try:
            [(cs, outputs)] = _successors(inst, cs, inputs({event.port: event.value}), branches,
                                          event.port)
        except SimulationError as exc:
            raise SimulationError(exc.message, event=index) from None
        yield EventStep(event, _emissions(outputs), cs)


def run_ed(model: ResolvedModel, main: str, script: Iterable[Event],
           policy: Policy = FirstDeclared()) -> EventTrace:
    """The whole trace of :func:`iter_ed`."""
    steps = iter_ed(model, main, script, policy)
    start = next(steps)
    return EventTrace(start.state.state, start.emissions, list(steps))
