"""Execution engines for well-formed models.

Time-synchronous runs proceed in global cycles: every atomic instance fires at
most one enabled transition per cycle (or completes idle), and anything it
emits becomes visible to its communication partners, and externally, exactly
one cycle later.  Initial outputs are what the outside world observes in cycle
one.  Unread messages are lost at the end of their cycle.  The wiring is fixed
once a model is flattened, so a cycle reads one flat frame of messages, each
port at one index of it (see ``Wire``), and compiled guards and entries read an
instance's in-ports by position.  An out-port that no connector reads has no
slot in the frame: what it sends is dropped where it is sent.

Event-driven runs consume one scripted event at a time, run-to-completion: the
matching transition may emit finite sequences of events per output port.

:func:`build_plan`, which every entry point calls, refuses (:class:`SetupError`)
a model with an error from resolution or a rule every profile shares, and
otherwise only flattens it: resolution has already refused any cycle of
connectors.  :func:`_external` alone types and pads stimulus rows and events.
The runtime errors left are forwarding an absent message, an initialiser that
reads a later variable, and a sequence sent under the time-synchronous profile
(S3TS).

Both engines and the enumerator run one executable form of each automaton,
built once per plan by :func:`maa.lowering.lower`, whose
``LoweredAutomaton.enabled`` is the one query for enabled transitions.  The
runtime values (:data:`ABSENT`, :class:`EnumValue`, ``Value``, ``Slot``) and
:class:`SimulationError` are defined in :mod:`maa.lowering` too, and this
module imports them, so they are also ``maa.engine`` names.

Nondeterminism (several enabled transitions, ``|`` alternatives, several
initial states) is resolved by a :class:`Policy`.  Under ``FirstDeclared``,
first-match semantics, a step tests an instance's candidates only up to the
first enabled one; ``Seeded`` sees every enabled transition, to draw among
them.  :func:`iter_enumerate_ts` and ``enumerate_ts`` instead expand every
choice point and give the exact reachable trace set, serving as an oracle
for the policy-driven engines.
They build the trace graph a cycle at a time, stepping each distinct joint
state of a cycle once and freezing each state once, count its paths as they
go, keep only the edges of the last cycle, and then walk it to stream the
traces in sorted order.  Every run starts with an ordinary step out of
:data:`PRE_START`, where :func:`_start` puts each instance with its variables
initialised (:func:`_begin` takes it, and numbers the cycles from 1, for both
time-synchronous runs), and every instance fires through :func:`_successors`:
in the time-synchronous step, :func:`_step`, which reads the frame (a policy
follows one branch, the enumerator every branch, with equal successors
merged), or in :func:`iter_ed` once to start and once per event.
"""

from __future__ import annotations

import itertools
import operator
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property
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
from .syntax import InitialDecl


class SetupError(Exception):
    """A refused request: an unknown component or port, a value that is no
    message of its port, a malformed stimulus, script or argument, or a model
    with errors.  The CLI reports it as ``error: ...`` with exit code 2."""


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


def _policy_branches(policy: Policy) -> Callable:
    """The one branch a policy takes among enabled transitions: a transition
    and one alternative per entry of its output block, the first of each
    (:func:`_first_branch`) or, ``Seeded``, drawn where there are several.  A
    seed is an ``int`` that is no ``bool``, so that a seeded run is
    reproducible."""
    if isinstance(policy, FirstDeclared):
        return _first_branch
    if not isinstance(policy, Seeded):
        raise SetupError(f"a policy is FirstDeclared() or Seeded(seed), not {policy!r}")
    if type(policy.seed) is not int:
        raise SetupError(f"a seed is an int, not {policy.seed!r}")
    rng = random.Random(policy.seed)

    def pick(options):
        return options[0] if len(options) == 1 else options[rng.randrange(len(options))]

    def branches(options: list) -> list[tuple]:
        chosen = pick(options)
        return [(chosen, [pick(a.alternatives) for a in chosen.assigns])]
    return branches


def _first_branch(options: list) -> list[tuple]:
    """The first option with the first alternative of each output entry: a
    step that takes it tests candidates only up to the first enabled one."""
    return [(options[0], options[0].firsts)]


def _every_branch(options: list) -> list[tuple]:
    """Every option with every selection of one alternative per output entry."""
    return [(option, picks) for option in options
            for picks in itertools.product(*[a.alternatives for a in option.assigns])]


# ---------------------------------------------------------------------------
# States and traces
# ---------------------------------------------------------------------------
#
# Code that runs every cycle builds lists, maps and zips, not generators: a
# generator that a MemoryError leaves suspended needs memory to be closed, so
# the run could not end in one line of ``internal error``.  The only yields
# are those of :func:`iter_ts` and :func:`iter_ed`, one per cycle or event,
# and of :func:`iter_enumerate_ts`, one per trace once its graph is built,
# whose callers stream a run's records.  A state computes its frozen form,
# which every key and record reads, once; a policy run computes none.

@dataclass(frozen=True)
class ComponentState:
    """One instance's state; never written once built, so records, successors
    and event traces share it."""

    state: Optional[str]  # None for an automaton-less instance
    variables: dict[str, Value] = field(default_factory=dict)

    @cached_property
    def frozen(self) -> tuple:
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
            tuple(sorted([(k, s.frozen) for k, s in self.states.items()])),
        )


def _freeze_value(v: Value) -> tuple:
    """Type-exact, hashable and sortable form of a value: ``1`` and ``true``
    differ, values of different types order by type name, and enum values by
    enum, then literal, as the tuples they are."""
    return (type(v).__name__, v)


def _freeze_slot(v: Slot) -> tuple:
    """Sortable form of a slot; absence sorts before every value, and enum
    values of different enums differ."""
    return () if v is ABSENT else (type(v).__name__, v if isinstance(v, EnumValue) else str(v))


@dataclass
class Trace:
    records: list[CycleRecord]


@dataclass(frozen=True, slots=True)
class Event:
    port: str
    value: Value


@dataclass(slots=True)
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

# A wire is the index, in the flat frame of one cycle's messages, of what a
# port reads.  A connector adds no delay, so a port reads the node at the end
# of its chain of connectors: an atomic instance's out-port, an in-port of the
# main component, or a port that nothing feeds.  The frame holds the main
# component's in-ports, from index 0, in declaration order, then one slot that
# is always absent, which every port that nothing feeds reads, then each
# instance's slots in plan order: one per out-port at the end of some wire's
# chain, holding what the instance sent on it in the previous cycle.  An
# out-port that no wire reads has no slot.
Wire = int


@dataclass
class AtomicInstance:
    path: str  # "" for an atomic main component
    rc: ResolvedComponent
    subst: dict[str, TypeRef]
    behaviour: LoweredAutomaton
    slots: dict[str, int] = field(default_factory=dict)  # out-port -> its place in ``sent``
    silent: tuple = ()  # ``sent`` when the instance sends nothing: ABSENT in every slot
    wires: list[Wire] = field(default_factory=list)  # one per in-port


@dataclass
class SystemPlan:
    model: ResolvedModel
    main: ResolvedComponent
    instances: list[AtomicInstance]
    wires: list[Wire]  # one per out-port of the main component


def build_plan(model: ResolvedModel, main: str) -> SystemPlan:
    """Flatten the (possibly hierarchical) main component to atomic instances,
    wired by frame index.

    A model with an error that resolution or a rule of every profile reports
    is refused: :class:`SetupError` carries the first, rendered as ``maa
    check`` renders it.  So is a tree that a library caller built with a
    list where the parser builds a tuple, once hashing a node of it fails
    (see :func:`_refuse_lists`).  Each component's automaton is lowered
    once, however many instances it has.
    """
    if type(main) is not str:
        raise SetupError(f"a main component name is a str, not {main!r}")
    if main not in model.components:
        raise SetupError(f"unknown main component '{main}'")
    try:
        errors = [d for d in model.diagnostics + check(model) if d.severity == ERROR]
        if errors:
            raise SetupError(min(errors, key=Diagnostic.sort_key).render())
        return _flatten(model, model.components[main])
    except TypeError:
        _refuse_lists(model)
        raise


def _flatten(model: ResolvedModel, root: ResolvedComponent) -> SystemPlan:
    """The plan of a well-formed ``root``: its atomic instances, wired by
    frame index (see ``Wire``).  A walk along connectors ends, since
    resolution refuses every cycle of them, and only at a node that a wire
    reads, since it refuses a connector into an atomic out-port or a main
    in-port.  For an atomic main, ``("", port)`` is both the main's in-port
    and its instance's."""
    instances: list[AtomicInstance] = []
    edges: dict[tuple[str, str], tuple[str, str]] = {}
    lowered: dict[str, LoweredAutomaton] = {}

    # Depth first over an explicit stack, each component's subcomponents
    # pushed in reverse, so instances are in declaration order at any depth.
    # A connector end is a node (instance path, port); the path of a composed
    # component's own ports is its own.
    stack: list[tuple[ResolvedComponent, str, dict[str, TypeRef]]] = [(root, "", {})]
    while stack:
        rc, path, subst = stack.pop()
        if not rc.ast.composed:
            if len(rc.ast.automata) > 1:
                raise SetupError(f"component '{rc.qname}' has several automata; "
                                 "simulation needs at most one")
            behaviour = lowered.get(rc.qname) or lowered.setdefault(rc.qname, lower(rc))
            instances.append(AtomicInstance(path, rc, subst, behaviour))
            continue
        prefix = f"{path}." if path else ""
        for instance, sub in reversed(rc.subcomponents.items()):
            child = model.components[sub.target_qname]
            stack.append((child, prefix + instance, {
                param: substitute_type(arg, subst)
                for param, arg in zip(child.ast.generic_params, sub.arg_types)}))
        for conn in rc.ast.connectors:
            dst, src = [(prefix + ref.instance if ref.instance else path, ref.port)
                        for ref in (conn.target, conn.source)]
            edges[dst] = src

    def source(node: tuple[str, str]) -> tuple[str, str]:
        """The node at the end of ``node``'s chain of connectors."""
        while node in edges:
            node = edges[node]
        return node

    ends = [[source((inst.path, port)) for port in inst.rc.in_ports] for inst in instances]
    ends.append([source(("", port)) for port in root.out_ports])
    read = {node for nodes in ends for node in nodes}
    frame: dict[tuple[str, str], Wire] = {("", port): k for k, port in enumerate(root.in_ports)}
    absent = len(frame)
    for inst in instances:
        for port in inst.rc.out_ports:
            if (inst.path, port) in read:
                inst.slots[port] = len(inst.slots)
                frame[inst.path, port] = len(frame) + 1
        inst.silent = (ABSENT,) * len(inst.slots)
    for inst, nodes in zip(instances, ends):
        inst.wires = [frame.get(node, absent) for node in nodes]
    return SystemPlan(model, root, instances, [frame.get(node, absent) for node in ends[-1]])


def _refuse_lists(model: ResolvedModel) -> None:
    """Refuses a transition or initial declaration whose blocks, entries or
    sequence values hold a list: the checks and lowering memoize on these
    nodes, which hash by structure only when their sequences are tuples."""
    for rc in model.components.values():
        for automaton in rc.ast.automata:
            for node in (*automaton.initials, *automaton.transitions):
                initial = isinstance(node, InitialDecl)
                try:
                    hash(node.output if initial else (node.input, node.output))
                except TypeError:
                    what = (f"initial declaration of '{node.state}'" if initial
                            else f"transition '{node.source} -> {node.target}'")
                    raise SetupError(f"{rc.unit.locator.loc(node.at)}: the {what} holds a "
                                     "list; the sequences of a parsed tree are tuples") from None


def _default_value(ref: Optional[TypeRef], subst: dict[str, TypeRef],
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
            variables[name] = _default_value(declared, inst.subst, model)
            continue
        try:
            variables[name] = initial((), variables)
        except KeyError as exc:  # it reads a variable declared after it
            raise SimulationError(f"unresolved name '{exc.args[0]}' at runtime") from None
    return ComponentState(PRE_START, variables)


def _successors(inst: AtomicInstance, cs: ComponentState, inputs: list[Slot], branches,
                event_port: Optional[str] = None) -> list[tuple[ComponentState, list]]:
    """Every (state, outputs) of one instance reading ``inputs``, by position,
    in ``cs``, one per branch of its enabled transitions that ``branches``
    admits; with none enabled, it completes idle: unchanged and silent.
    Under :func:`_first_branch`, only the first enabled transition is found.
    ``event_port`` selects the event-driven profile (see
    :meth:`LoweredAutomaton.enabled`)."""
    behaviour = inst.behaviour
    options = behaviour.enabled(cs.state, inputs, cs.variables, event_port,
                                branches is _first_branch)
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
# ``sent`` is a tuple over the instance's slots (see ``Wire``): the message it
# sent in the last cycle on each out-port that some wire reads, or ABSENT.  The
# frame a cycle reads is the external row, the absent slot and every ``sent``
# laid end to end.

def _sent(inst: AtomicInstance, cs: ComponentState, outputs: list[tuple[str, object]]) -> tuple:
    """The slots ``inst`` fills for the next cycle from a step out of ``cs``:
    the last value its block gives each slotted port, ``--`` included.  A
    sequence on any port is an S3TS error."""
    sent = list(inst.silent)
    for port, value in outputs:
        if isinstance(value, list):
            what = (f"initial output on port '{port}' is a sequence" if cs.state == PRE_START
                    else f"transition emitted a sequence on port '{port}'")
            raise SimulationError(
                f"{what}; the time-synchronous profile allows one message per port")
        slot = inst.slots.get(port)
        if slot is not None:
            sent[slot] = value
    return tuple(sent)


def _key(cs: ComponentState, sent: tuple) -> tuple:
    """The hashable form of one instance's (state, sent): its state, its
    variables and its slots, compared type-exactly; an absent slot is ``()``."""
    return (cs.frozen, tuple([() if v is ABSENT else _freeze_value(v) for v in sent]))


def _distinct(successors: list[tuple]) -> list[tuple]:
    """One instance's (state, sent) successors with equal ones merged, the
    first of each kept.  Equal siblings have equal subtrees, so merging them
    before the joint product loses no trace."""
    merged: dict[tuple, tuple] = {}
    for cs, sent in successors:
        merged.setdefault(_key(cs, sent), (cs, sent))
    return list(merged.values())


_SENT = operator.itemgetter(1)  # of a (state, sent) pair


def _step(plan: SystemPlan, state: tuple, external: dict[str, Slot], branches,
          cycle: Optional[int]) -> tuple[dict[str, Slot], itertools.product]:
    """One global cycle: the outputs observed outside, and every distinct
    successor joint state that ``branches`` admits (see
    :func:`_successors`).  :func:`_begin` starts a run with a step out of
    :data:`PRE_START`, in cycle None, whose observed outputs are unused.

    Each instance reads what was sent in the previous cycle, from the frame
    its wires index, and fires one enabled transition, or completes idle:
    unchanged and silent.  An instance's equal successors are merged before
    the joint product, so the product grows with distinct successors, not
    with branches; a single branch, the policy's, computes no merge key.
    """
    frame = [*external.values(), ABSENT, *itertools.chain.from_iterable(map(_SENT, state))]
    read = frame.__getitem__
    per_instance = []
    try:
        for inst, (cs, _) in zip(plan.instances, state):
            successors = _successors(inst, cs, list(map(read, inst.wires)), branches)
            if len(successors) == 1:
                [(successor, outputs)] = successors
                per_instance.append(((successor, _sent(inst, cs, outputs) if outputs
                                      else inst.silent),))
            else:
                per_instance.append(_distinct(
                    [(successor, _sent(inst, cs, outputs)) for successor, outputs in successors]))
    except SimulationError as exc:
        raise SimulationError(exc.message, cycle) from None
    return dict(zip(plan.main.out_ports, map(read, plan.wires))), itertools.product(*per_instance)


def _record(plan: SystemPlan, index: int, external: dict[str, Slot],
            observed: dict[str, Slot], state: tuple) -> CycleRecord:
    return CycleRecord(index, external, observed,
                       {inst.path: cs for inst, (cs, _) in zip(plan.instances, state)})


def _external(model: ResolvedModel, rc: ResolvedComponent, what: str,
              column: str) -> Callable[[dict[str, Slot]], dict[str, Slot]]:
    """The one gate for values from outside a run: a function that checks a
    partial row of ``rc``'s in-ports, a stimulus row or one event's ``{port:
    value}``, and returns every in-port's input, in declaration order, absent
    where the row has none.  A row must be a ``dict``, and a value a message
    of its port's type: an ``int`` that is no ``bool`` for Integer, with no
    more digits than ``sys.get_int_max_str_digits()`` lets it print (0: no
    limit), a literal of the port's own enum, and nothing for a type
    parameter.  ``what`` and ``column`` name the row in refusals."""
    accepted = {}  # in-port -> its Python type, or the values of its enum
    for port in rc.in_ports:
        declared = rc.binding(port)[1]
        accepted[port] = frozenset([
            EnumValue(declared.qname, literal) for literal in model.enums[declared.qname].literals
        ]) if isinstance(declared, EnumType) else PYTHON_TYPES.get(declared)
    silent = dict.fromkeys(rc.in_ports, ABSENT)
    digits = getattr(sys, "get_int_max_str_digits", int)()  # Python < 3.10.7 has no limit: 0
    # an int of at most ``bits`` bits has at most ``digits`` digits: log2(10) > 3.32
    bits = 3.32 * digits if digits else float("inf")

    def inputs(row: dict[str, Slot]) -> dict[str, Slot]:
        if not isinstance(row, dict):
            raise SetupError(f"a {what} row is a dict of in-port values, not {row!r}")
        for port, value in row.items():
            if port not in accepted:
                raise SetupError(f"{column}'{port}' is not an in-port of '{rc.qname}'")
            expected = accepted[port]
            # an EnumValue is hashed only once its enum and literal, [0] and [1], are str
            if value is not ABSENT and type(value) is not expected and not (
                    type(value) is EnumValue and type(expected) is frozenset
                    and type(value[0]) is type(value[1]) is str and value in expected):
                raise SetupError(f"{what} value {value!r} on in-port '{port}' of "
                                 f"'{rc.qname}' is no {rc.binding(port)[1]}")
            if type(value) is int and value.bit_length() > bits and abs(value) >= 10 ** digits:
                # not repr'd: printing it would raise
                raise SetupError(f"{what} value on in-port '{port}' of '{rc.qname}' "
                                 f"has more than {digits} digits")
        return {**silent, **row}
    return inputs


def _items(items: Iterable, what: str) -> Iterator:
    """An iterator over a stimulus or a script, which must be iterable."""
    try:
        return iter(items)
    except TypeError:
        raise SetupError(f"a {what} is an iterable, not {items!r}") from None


def _begin(plan: SystemPlan, stimulus: Iterable[dict[str, Slot]], n_cycles: int, branches):
    """Every joint state that ``branches`` admits out of :data:`PRE_START`,
    where each instance has sent nothing, and the (cycle, external input) of
    cycles 1 to ``n_cycles``, any positive ``int``: row k of ``stimulus`` is
    read, and passed through :func:`_external`, when cycle k is reached, and a
    row past its end is empty.  A zip, not a generator."""
    if type(n_cycles) is not int:
        raise SetupError(f"the number of cycles must be an int, not {n_cycles!r}")
    if n_cycles < 1:
        raise SetupError("a run needs at least one cycle")
    rows = _items(stimulus, "stimulus")
    gate = _external(plan.model, plan.main, "stimulus", "stimulus column ")
    pre_start = tuple((_start(inst, plan.model), inst.silent) for inst in plan.instances)
    _, starts = _step(plan, pre_start, gate({}), branches, None)
    return starts, zip(range(1, n_cycles + 1),
                       map(gate, itertools.chain(rows, itertools.repeat({}))))


def iter_ts(model: ResolvedModel, main: str, stimulus: Iterable[dict[str, Slot]],
            n_cycles: int, policy: Policy = FirstDeclared()) -> Iterator[CycleRecord]:
    """Run the time-synchronous engine for a fixed number of cycles, yielding
    each cycle's record as it completes.  Stimulus rows are read, checked and
    padded one per cycle, so memory does not grow with the run; a failing cycle
    raises :class:`SimulationError` after the records of the cycles before it."""
    plan = build_plan(model, main)
    branches = _policy_branches(policy)
    (state,), cycles = _begin(plan, stimulus, n_cycles, branches)
    for index, external in cycles:
        observed, (state,) = _step(plan, state, external, branches, index)
        yield _record(plan, index, external, observed, state)


def run_ts(model: ResolvedModel, main: str, stimulus: Iterable[dict[str, Slot]],
           n_cycles: int, policy: Policy = FirstDeclared()) -> Trace:
    """The whole trace of :func:`iter_ts`."""
    return Trace(list(iter_ts(model, main, stimulus, n_cycles, policy)))


# ---------------------------------------------------------------------------
# Exhaustive enumeration (oracle)
# ---------------------------------------------------------------------------
#
# The trace graph: a node of level k is the set of joint states that one
# prefix of k records reaches, held as a map from joint key to joint state,
# and its edges go to the nodes its successors reach, one per distinct next
# record (the subset construction over records).  Equal nodes of one level
# are one node, so every distinct trace is exactly one path from the root.

def _joint_key(state: tuple) -> tuple:
    """The hashable form of a joint state: equal keys have equal futures."""
    return tuple([_key(cs, sent) for cs, sent in state])


def _trace_graph(plan: SystemPlan, stimulus: Iterable[dict[str, Slot]], n_cycles: int,
                 bound: int) -> list[list[list[tuple[CycleRecord, Optional[int]]]]]:
    """The edges of the trace graph, per level and per node: (record, index
    of the child node in the next level, None in the last), sorted by frozen
    record.  Only edges are kept: a level's joint states are dropped once the
    next level is built.  See :func:`iter_enumerate_ts`."""
    starts, cycles = _begin(plan, stimulus, n_cycles, _every_branch)
    # the root's joint states are drawn and stepped one at a time
    nodes: list = [map(lambda state: (_joint_key(state), state), starts)]
    counts = [1]  # the record prefixes that reach each node
    graph = []
    for index, external in cycles:
        last = index == n_cycles
        fired: dict[tuple, list] = {}  # joint key -> (frozen record, record, child) each
        children: dict[frozenset, int] = {}
        level, child_nodes, child_counts, total = [], [], [], 0
        for node, count in zip(nodes, counts):
            groups: dict[tuple, tuple[CycleRecord, dict]] = {}
            for key, state in node:
                items = successors = fired.get(key)
                fresh = successors is None
                if fresh:
                    successors = fired[key] = []
                    observed, items = _step(plan, state, external, _every_branch, index)
                for item in items:
                    if fresh:  # a joint successor; the last level, which none reads, has no child
                        record = _record(plan, index, external, observed, item)
                        item = record.freeze(), record, None if last else (_joint_key(item), item)
                        successors.append(item)
                    frozen, record, child = item
                    group = groups.get(frozen)
                    if group is None:
                        total += count
                        if total > bound:
                            raise EnumerationOverflow(
                                f"more than {bound} distinct traces; raise the bound")
                        group = groups[frozen] = (record, {})
                    if child:
                        group[1].setdefault(*child)
            edges = []
            for frozen in sorted(groups):
                record, child = groups[frozen]
                if child:
                    k = children.setdefault(frozenset(child), len(children))
                    if k == len(child_nodes):
                        child_nodes.append(child.items())
                        child_counts.append(0)
                    child_counts[k] += count
                edges.append((record, k if child else None))
            level.append(edges)
        graph.append(level)
        nodes, counts = child_nodes, child_counts
    return graph


def iter_enumerate_ts(model: ResolvedModel, main: str, stimulus: Iterable[dict[str, Slot]],
                      n_cycles: int, bound: int = 1024) -> Iterator[Trace]:
    """Every trace reachable by some resolution of all choice points, each
    once, yielded one at a time in the order of their frozen records.

    The trace graph is built level by level, one cycle each, before the first
    trace is yielded, reading stimulus row k at level k.  Each distinct joint
    state of a level is stepped, and its successors recorded, once, however
    many nodes hold it, each state's frozen form is computed once, and the last
    level keeps only edges.  An instance's equal successors, which keep no
    message that no connector reads, are merged before the joint product, whose
    members are drawn one at a time.  Every joint state has a successor, so the
    number of distinct record prefixes, counted while the graph is built, never
    falls from one level to the next, and :class:`EnumerationOverflow` is
    raised as soon as it passes ``bound``, before any trace is built.  What is
    reported is the first error or overflow met, level by level: a runtime
    error of the earliest failing cycle, or a refused stimulus row, unless the
    traces overflow in an earlier cycle.  A depth-first walk over the edges, in
    order, then yields the traces, so the memory of a run grows with the graph,
    not with the number of traces.
    """
    if type(bound) is not int:
        raise SetupError(f"the enumeration bound must be an int, not {bound!r}")
    if bound < 1:
        raise SetupError("the enumeration bound must be at least 1")
    graph = _trace_graph(build_plan(model, main), stimulus, n_cycles, bound)
    path: list[CycleRecord] = []
    stack = [iter(graph[0][0])]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            continue
        depth = len(stack)
        del path[depth - 1:]
        path.append(edge[0])
        if depth == n_cycles:
            yield Trace(list(path))
        else:
            stack.append(iter(graph[depth][edge[1]]))


def enumerate_ts(model: ResolvedModel, main: str, stimulus: Iterable[dict[str, Slot]],
                 n_cycles: int, bound: int = 1024) -> list[Trace]:
    """The traces of :func:`iter_enumerate_ts`, in their order."""
    return list(iter_enumerate_ts(model, main, stimulus, n_cycles, bound))


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
    event must be an :class:`Event` whose port is a ``str``, and its value a
    message of its port's type, never :data:`ABSENT`, or :class:`SetupError`
    refuses it; a failing event raises :class:`SimulationError`, naming the
    event.  Either comes after the steps before the event."""
    rc = model.components.get(main) if type(main) is str else None
    if rc is not None and rc.ast.composed:
        raise SetupError("event-driven simulation requires an atomic main component")
    [inst] = build_plan(model, main).instances
    branches = _policy_branches(policy)
    events = _items(script, "script")
    inputs = _external(model, rc, "event", "")
    [(cs, outputs)] = _successors(inst, _start(inst, model), [*inputs({}).values()], branches)
    yield EventStep(None, _emissions(outputs), cs)
    for index, event in enumerate(events, start=1):
        if not isinstance(event, Event):
            raise SetupError(f"a script item is an Event, not {event!r}")
        if type(event.port) is not str:
            raise SetupError(f"an event port is a str, not {event.port!r}")
        row = inputs({event.port: event.value})
        if event.value is ABSENT:
            raise SetupError(f"an event on in-port '{event.port}' of '{rc.qname}' "
                             "cannot carry '--'")
        try:
            [(cs, outputs)] = _successors(inst, cs, [*row.values()], branches, event.port)
        except SimulationError as exc:
            raise SimulationError(exc.message, event=index) from None
        yield EventStep(event, _emissions(outputs), cs)


def run_ed(model: ResolvedModel, main: str, script: Iterable[Event],
           policy: Policy = FirstDeclared()) -> EventTrace:
    """The whole trace of :func:`iter_ed`."""
    steps = iter_ed(model, main, script, policy)
    start = next(steps)
    return EventTrace(start.state.state, start.emissions, list(steps))
