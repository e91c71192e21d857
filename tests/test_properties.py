"""Property-based checks: round-trips, inference consistency, engine invariants,
and the enumerator against the reference semantics of ``tests/reference.py``."""

from __future__ import annotations

import ast
import copy
import dataclasses
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maa.checks import check
from maa.engine import (
    ABSENT,
    EnumerationOverflow,
    EnumValue,
    Event,
    FirstDeclared,
    Seeded,
    SetupError,
    SimulationError,
    build_plan,
    enumerate_ts,
    iter_ts,
    lower,
    run_ed,
    run_ts,
)
from maa.parser import parse_component_file, parse_types_file
from maa.printer import format_expr, format_value, pretty_print
from maa.resolution import BOOLEAN, INTEGER, STRING, infer_block_target, resolve, type_of
from maa.syntax import (
    CompilationUnit,
    EBinary,
    ELit,
    ERef,
    EUnary,
    NoData,
    SequenceValue,
)

from conftest import CORPUS, parse_model, positional
from genmodels import (
    TYPES,
    random_component_text,
    random_composition,
    random_composition_text,
    random_ed_model,
    random_model,
    random_script,
    random_stimulus,
    random_unchecked_component_text,
    random_unchecked_ed_component_text,
    resolve_text,
)
import reference
from reference import (
    MAX_CYCLES,
    MAX_EVENTS,
    EnumLiteral,
    exact,
    reference_ed_runs,
    reference_traces,
)

# ---------------------------------------------------------------------------
# value and expression round trips
# ---------------------------------------------------------------------------

# The leaves of both value terms and guard expressions.  ``0``/``false`` and
# ``1``/``true`` are equal in Python but are different literals.
_leaves = st.one_of(
    st.sampled_from([0, 1, True, False]).map(lambda v: ELit(v, None)),
    st.integers(min_value=-10**6, max_value=10**6).map(lambda n: ELit(n, None)),
    st.text(alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
            max_size=12).map(lambda s: ELit(s, None)),
    st.sampled_from("abcv").map(lambda n: ERef(n, None)),
)
_values = st.one_of(
    _leaves,
    st.just(NoData(None)),
    st.lists(_leaves, max_size=4).map(lambda xs: SequenceValue(tuple(xs), None)),
)


@given(_values)
def test_value_print_parse_round_trip(term):
    text = (
        "component C { port in Integer p, out Integer q; automaton {"
        f" state S; initial S; S p = 1 / q = {format_value(term)}; }} }}"
    )
    unit = parse_component_file(text, "v")
    assert isinstance(unit, CompilationUnit), unit
    parsed = unit.component.automata[0].transitions[0].output[0].alternatives[0]
    assert parsed == term
    assert hash(parsed) == hash(term)


_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["!", "-"]), inner).map(
            lambda t: EUnary(t[0], t[1], None)),
        st.tuples(st.sampled_from(["&&", "||", "==", "!=", "<", "<=", ">", ">=",
                                   "+", "-", "*"]), inner, inner).map(
            lambda t: EBinary(t[0], t[1], t[2], None)),
    ),
    max_leaves=12,
)


@given(_exprs)
def test_expr_print_parse_round_trip(expr):
    text = (
        "component C { port in Integer p, out Integer q; automaton {"
        f" state S; initial S; S [{format_expr(expr)}] / q = 1; }} }}"
    )
    unit = parse_component_file(text, "e")
    assert isinstance(unit, CompilationUnit), (unit, format_expr(expr))
    parsed = unit.component.automata[0].transitions[0].guard.expr
    assert parsed == expr
    assert hash(parsed) == hash(expr)


def test_corpus_double_round_trip_fixed_point():
    for _name, (paths, _profile, _types) in CORPUS.items():
        for path in paths:
            unit = parse_model(path)
            once = pretty_print(unit)
            reparsed = parse_component_file(once, "rt")
            assert isinstance(reparsed, CompilationUnit)
            assert pretty_print(reparsed) == once


# ---------------------------------------------------------------------------
# inference consistency
# ---------------------------------------------------------------------------

_TYPE_POOL = (INTEGER, BOOLEAN, STRING)


@given(
    term=_leaves,
    types=st.lists(st.sampled_from(_TYPE_POOL), min_size=1, max_size=5),
)
def test_infer_target_consistent_with_type_of(term, types):
    candidates = {f"p{i}": ("in", t) for i, t in enumerate(types)}
    env_unit = parse_component_file("component E { }", "env")
    model, _ = resolve([env_unit], [])
    env = model.components["E"]
    result = infer_block_target([term], candidates, env)
    term_type = type_of(term, env)
    admitting = [name for name, (_, t) in candidates.items() if t == term_type]
    if result.status == "ok":
        assert [result.name] == admitting
    elif result.status == "ambiguous":
        assert len(admitting) >= 2
    else:
        assert admitting == []


# ---------------------------------------------------------------------------
# the parsed tree is never written
# ---------------------------------------------------------------------------

def _fields(node):
    """Every field of every node reachable from ``node``, offsets and the
    unit's locator included, as nested tuples."""
    if isinstance(node, list):
        return tuple(_fields(n) for n in node)
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,
                tuple((f.name, _fields(getattr(node, f.name))) for f in dataclasses.fields(node)))
    return node


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pipeline_leaves_the_parsed_tree_unchanged(seed):
    # the generator random_model parses, before anything reads the tree; a
    # seeded generator rather than a Hypothesis random keeps examples cheap
    rng = random.Random(seed)
    unit = parse_component_file(random_component_text(rng), "gen.maa")
    assert isinstance(unit, CompilationUnit), unit
    pristine = copy.deepcopy(unit)
    model, diags = resolve([unit], [parse_types_file(TYPES, "gen.types")])
    assert [d for d in diags + check(model, "ts") if d.severity == "error"] == []
    lower(model.components["Gen"])
    run_ts(model, "Gen", random_stimulus(rng, 6), 6, Seeded(1))
    assert _fields(unit) == _fields(pristine)


# ---------------------------------------------------------------------------
# location fidelity under token deletion
# ---------------------------------------------------------------------------

def _delete_token(text: str, line_no: int, token: str) -> str:
    lines = text.splitlines(keepends=True)
    line = lines[line_no - 1]
    assert token in line, (line_no, token, line)
    lines[line_no - 1] = line.replace(token, "", 1)
    return "".join(lines)

# (corpus key, line, token to delete); chosen so the parse error surfaces on
# the corrupted line itself
_CORRUPTIONS = [
    ("bump_control", 8, "Integer"),
    ("follow_the_leader", 14, "{inLane"),
    ("toast_arm", 12, "GotToast"),
    ("reference_Arbiter", 11, "in1"),
    ("reference_ZeroBuffer", 14, "input"),
]


def test_syn_line_matches_corrupted_line():
    for key, line_no, token in _CORRUPTIONS:
        path = CORPUS[key][0][0]
        corrupted = _delete_token(path.read_text(encoding="utf-8"), line_no, token)
        result = parse_component_file(corrupted, str(path))
        assert isinstance(result, list), f"{key}: still parses after deleting {token!r}"
        assert result[0].code == "SYN"
        assert result[0].loc.line == line_no, (key, token, result[0].render())


# ---------------------------------------------------------------------------
# engine invariants on random models
# ---------------------------------------------------------------------------

def test_generated_models_are_ts_clean():
    rng = random.Random(2024)
    for _ in range(25):
        random_model(rng)  # asserts internally


def test_idle_completion_and_variable_preservation_random():
    rng = random.Random(99)
    cycles_checked = 0
    for _ in range(12):
        model, main = random_model(rng)
        rc = model.components[main]
        behaviour = lower(rc)
        stim = random_stimulus(rng, 10)
        trace = run_ts(model, main, stim, 10, FirstDeclared())
        for t in range(2, 10):
            pre = trace.records[t - 2].states[""]
            post = trace.records[t - 1].states[""]
            inputs = trace.records[t - 1].inputs
            options = behaviour.enabled(pre.state, positional(rc, inputs), pre.variables)
            if not options:
                assert post.state == pre.state
                assert post.variables == pre.variables
                nxt = trace.records[t].outputs
                assert all(v is ABSENT for v in nxt.values())
            else:
                fired = options[0]
                assigned = {a.target for a in fired.assigns}
                for name, value in pre.variables.items():
                    if name not in assigned:
                        assert post.variables[name] == value
            cycles_checked += 1
    assert cycles_checked >= 90


def test_at_most_one_message_per_port_random():
    rng = random.Random(7)
    for _ in range(10):
        model, main = random_model(rng)
        trace = run_ts(model, main, random_stimulus(rng, 8), 8, FirstDeclared())
        for record in trace.records:
            for value in record.outputs.values():
                assert not isinstance(value, list)


# ---------------------------------------------------------------------------
# the engine against the independent reference semantics
# ---------------------------------------------------------------------------

def test_the_reference_imports_nothing_of_the_engine():
    # the oracle checks the engine and the lowering, so it must share no code
    # with them: not even an import, which would let a helper creep in
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported and not {name for name in imported
                             if name.split(".")[:2] in (["maa", "engine"], ["maa", "lowering"])}


def _reference_value(value):
    if value is ABSENT:
        return None
    if isinstance(value, EnumValue):
        return EnumLiteral(value.enum, value.literal)
    return value


def _reference_form(trace, out_ports: list[str]) -> tuple:
    """An engine trace in the reference's form."""
    return tuple(
        (tuple(exact(_reference_value(r.outputs[port])) for port in out_ports),
         tuple((path, cs.state, tuple(sorted((k, exact(_reference_value(v)))
                                            for k, v in cs.variables.items())))
               for path, cs in sorted(r.states.items())))
        for r in trace.records)


COMPOSED_CYCLES = 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, MAX_CYCLES))
def test_enumeration_equals_the_reference_semantics(seed, n_cycles):
    # generated models declare transitions twice and offer equal
    # alternatives, so equal sibling successors occur and are merged; a
    # seeded generator rather than a Hypothesis random keeps examples cheap.
    # Each example checks an atomic model and then a composition, whose
    # wiring the reference flattens itself.  A composition's instances branch
    # jointly, so its distinct traces can number 10^5 at three cycles and
    # more at four: it runs at most COMPOSED_CYCLES.  Every generated
    # component holds an enum variable too, so states differ in enum values.
    rng = random.Random(seed)
    _check_enumeration(rng, random_model(rng, mode_variable=True), n_cycles)
    _check_enumeration(rng, random_composition(rng, mode_variable=True),
                       min(n_cycles, COMPOSED_CYCLES))


def _check_enumeration(rng: random.Random, generated, n_cycles: int) -> None:
    model, main = generated
    stimulus = random_stimulus(rng, n_cycles)
    expected = reference_traces(
        model, main, [{port: _reference_value(v) for port, v in row.items()}
                      for row in stimulus], n_cycles)
    out_ports = model.components[main].out_ports
    traces = enumerate_ts(model, main, stimulus, n_cycles, bound=len(expected))
    got = [_reference_form(t, out_ports) for t in traces]
    assert len(set(got)) == len(got)
    assert set(got) == expected
    for policy in (FirstDeclared(), Seeded(rng.randrange(100))):
        assert _reference_form(run_ts(model, main, stimulus, n_cycles, policy),
                               out_ports) in expected


def _contained(model, qname: str) -> set[str]:
    """``qname`` and every component it contains, at any depth."""
    found, todo = set(), [qname]
    while todo:
        qname = todo.pop()
        if qname not in found:
            found.add(qname)
            todo += [sub.target_qname for sub in model.components[qname].subcomponents.values()]
    return found


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_connector_cycles_are_reported_where_the_reference_finds_them(seed):
    # relays and Mid instances are fed from one another's out-ports at
    # random; whether that closes a loop depends on what each part passes
    # on, through a second relay or a Mid's own connectors.  The reference
    # flattens each component as a main, so it sees a loop at any depth: a
    # component has one exactly when resolution reports a connector on a
    # cycle in it or in a component it contains.
    texts = random_composition_text(random.Random(seed), loops=True)
    model, diags = resolve_text(texts)
    assert all(d.message.endswith("is on a cycle that passes no atomic instance")
               for d in diags), [d.render() for d in diags]
    file_of = {rc.unit.locator.file: qname for qname, rc in model.components.items()}
    cyclic = {file_of[d.loc.file] for d in diags}
    for qname in model.components:
        try:
            reference.System(model, qname)
        except reference.ReferenceError as exc:
            assert str(exc) == "connector cycle"
            looped = True
        else:
            looped = False
        assert looped == bool(_contained(model, qname) & cyclic), (qname, texts)


def _reference_emissions(emissions) -> tuple:
    return tuple((port, tuple(exact(_reference_value(v)) for v in values))
                 for port, values in emissions)


def _reference_ed_form(trace) -> tuple:
    """An event-driven run in the reference's form."""
    return (trace.initial_state, _reference_emissions(trace.initial_emissions),
            tuple((_reference_emissions(step.emissions), step.state.state,
                   tuple(sorted((k, exact(v)) for k, v in step.state.variables.items())))
                  for step in trace.steps))


def _check_event_driven_runs(generate, seed: int, n_events: int) -> None:
    rng = random.Random(seed)
    model, main = generate(rng)
    script = random_script(rng, n_events)
    expected = reference_ed_runs(model, main, [(port, _reference_value(v)) for port, v in script])
    events = [Event(port, value) for port, value in script]
    assert _reference_ed_form(run_ed(model, main, events)) == expected[0]
    seeded = run_ed(model, main, events, Seeded(rng.randrange(100)))
    assert _reference_ed_form(seeded) in expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, MAX_EVENTS))
def test_event_driven_runs_equal_the_reference_semantics(seed, n_events):
    # generated transitions read a, b, both or neither, so some react to an
    # event on a port and some to none
    _check_event_driven_runs(random_model, seed, n_events)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, MAX_EVENTS))
def test_event_driven_runs_of_ed_shaped_models_equal_the_reference_semantics(seed, n_events):
    # each transition reads exactly one port, so it can react to an event on
    # it; it may forward what it reads or emit a sequence
    _check_event_driven_runs(random_ed_model, seed, n_events)


# ---------------------------------------------------------------------------
# checker soundness: a model that passes check cannot go wrong
# ---------------------------------------------------------------------------

# The runtime errors README documents for well-formed models, as SimulationError
# messages (an event-driven sequence is no error, and generated
# time-synchronous models send none).
_DOCUMENTED = re.compile(r"forwarding absent message from port '\w+'"
                         r"|unresolved name '\w+' at runtime")


def _unchecked(text: str, profile: str):
    """The model of ``text``, and the rendered first error that resolution
    or a rule of every profile reports, or None when ``profile`` has none."""
    model, diags = resolve_text(text)
    if not any(d.severity == "error" for d in diags + check(model, profile)):
        return model, None
    shared = [d for d in diags + check(model) if d.severity == "error"]
    return model, min(shared, key=lambda d: d.sort_key()).render()


def _refused_or_sound(runs: dict, refusal) -> None:
    """Each run raises SetupError with ``refusal`` where there is one, and
    else ends, or raises a documented SimulationError."""
    for name, run in runs.items():
        if refusal is not None:
            with pytest.raises(SetupError) as raised:
                run()
            assert str(raised.value) == refusal, name
            continue
        try:
            run()
        except SimulationError as exc:
            assert _DOCUMENTED.fullmatch(exc.message), (name, exc.message)


@settings(max_examples=750, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_time_synchronous_runs_of_checked_models_cannot_go_wrong(seed, n_cycles):
    # generated models mix in ill-typed guards, initialisers and outputs; a
    # seeded generator rather than a Hypothesis random keeps examples cheap.
    # The engine evaluates only the guards of the candidates its dispatch
    # index gives, so an ill-typed guard is reached in fewer examples than
    # when every guard of a state was evaluated: hence 750 examples.
    rng = random.Random(seed)
    text = random_unchecked_component_text(rng)
    model, refusal = _unchecked(text, "ts")
    stimulus = random_stimulus(rng, n_cycles)
    runs = {
        "run_ts": lambda: run_ts(model, "Gen", stimulus, n_cycles),
        "run_ts seeded": lambda: run_ts(model, "Gen", stimulus, n_cycles, Seeded(seed)),
        "enumerate_ts": lambda: enumerate_ts(model, "Gen", stimulus, n_cycles, bound=4096),
    }
    if refusal is not None:
        runs |= {"build_plan": lambda: build_plan(model, "Gen"),
                 "iter_ts": lambda: next(iter_ts(model, "Gen", stimulus, n_cycles)),
                 "run_ed": lambda: run_ed(model, "Gen", [])}
    _refused_or_sound(runs, refusal)


def _enumerated_unless_overflowing(model, main: str, stimulus: list, n_cycles: int) -> None:
    """``enumerate_ts`` with bound 4096, where an overflow is a documented end."""
    try:
        enumerate_ts(model, main, stimulus, n_cycles, bound=4096)
    except EnumerationOverflow:
        pass


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_time_synchronous_runs_of_checked_compositions_cannot_go_wrong(seed, n_cycles):
    # P0 mixes in ill-typed guards, initialisers and outputs, and the other
    # parts are clean, so about a third of the compositions pass check.  Up to
    # four nondeterministic instances may reach more traces than the bound:
    # about one composition in a thousand does at 1 to 4 cycles.
    rng = random.Random(seed)
    model, refusal = _unchecked(random_composition_text(rng, unchecked=True), "ts")
    stimulus = random_stimulus(rng, n_cycles)
    _refused_or_sound({
        "run_ts": lambda: run_ts(model, "Top", stimulus, n_cycles),
        "run_ts seeded": lambda: run_ts(model, "Top", stimulus, n_cycles, Seeded(seed)),
        "enumerate_ts": lambda: _enumerated_unless_overflowing(model, "Top", stimulus, n_cycles),
    }, refusal)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, MAX_EVENTS))
def test_event_driven_runs_of_checked_models_cannot_go_wrong(seed, n_events):
    # 400 examples, for the same reason as the time-synchronous property and
    # because events and transitions are spread over three in-ports
    rng = random.Random(seed)
    text = random_unchecked_ed_component_text(rng)
    model, refusal = _unchecked(text, "ed")
    events = [Event(port, value) for port, value in random_script(rng, n_events)]
    _refused_or_sound({"run_ed": lambda: run_ed(model, "Gen", events),
                       "run_ed seeded": lambda: run_ed(model, "Gen", events, Seeded(seed))},
                      refusal)
