"""Event-driven engine: matching, emissions, run-to-completion."""

from __future__ import annotations

import itertools
import random

import pytest

from maa.engine import (
    ABSENT,
    EnumValue,
    Event,
    EventTrace,
    FirstDeclared,
    Seeded,
    SetupError,
    SimulationError,
    iter_ed,
    run_ed,
)
from maa.parser import parse_component_file
from maa.resolution import BOOLEAN, INTEGER, STRING, EnumType, resolve
from maa.syntax import CompilationUnit

from conftest import (
    CORPUS,
    load_model,
    positional,
    python_calls,
    workload_model,
    workload_value,
    workloads,
)

ARM = "robot.ArmControlCommand"
LIGHT = "robot.LightCommand"
REQ = "robot.Request"

PICK = EnumValue(REQ, "PICK_UP_TOAST")
DROP = EnumValue(REQ, "DROP_TOAST")


def literals(values):
    return [v.literal for v in values]


def small_model(text):
    unit = parse_component_file(text, "m.maa")
    assert isinstance(unit, CompilationUnit), unit
    model, diags = resolve([unit], [])
    assert diags == [], [d.render() for d in diags]
    return model


def test_pick_up_toast_step(toast_model):
    trace = run_ed(toast_model, "robot.ToastArmController", [Event("req", PICK)])
    assert trace.initial_state == "Idle" and trace.initial_emissions == []
    step = trace.steps[0]
    assert step.state.state == "GotToast"
    assert [p for p, _ in step.emissions] == ["armCmd", "lightCmd"]
    assert literals(step.emissions[0][1]) == ["MOVE_UP", "TURN_RIGHT", "OPEN",
                                              "MOVE_DOWN", "CLOSE"]
    assert literals(step.emissions[1][1]) == ["FLASH"]


def test_drop_toast_step(toast_model):
    trace = run_ed(toast_model, "robot.ToastArmController",
                   [Event("req", PICK), Event("req", DROP)])
    assert trace.steps[0].state.state == "GotToast"
    step = trace.steps[1]
    assert step.state.state == "Idle"
    assert literals(step.emissions[0][1]) == ["TURN_LEFT", "MOVE_DOWN", "OPEN"]
    assert literals(step.emissions[1][1]) == ["OFF"]


def test_unmatched_event_consumed_without_effect(toast_model):
    trace = run_ed(toast_model, "robot.ToastArmController", [Event("reset", True)])
    assert trace.initial_state == "Idle"
    assert trace.steps[0].state.state == "Idle" and trace.steps[0].emissions == []


def test_run_ed_full_script(toast_model):
    trace = run_ed(toast_model, "robot.ToastArmController",
                   [Event("req", PICK), Event("req", DROP)])
    assert trace.initial_state == "Idle"
    assert trace.initial_emissions == []
    assert len(trace.steps) == 2
    assert trace.steps[0].state.state == "GotToast"
    assert trace.steps[1].state.state == "Idle"


def test_event_conservation(toast_model):
    script = [Event("req", PICK), Event("reset", True), Event("req", DROP),
              Event("req", DROP)]
    trace = run_ed(toast_model, "robot.ToastArmController", script)
    assert len(trace.steps) == len(script)
    assert [s.event for s in trace.steps] == script


def test_empty_script(toast_model):
    trace = run_ed(toast_model, "robot.ToastArmController", [])
    assert trace.steps == []
    assert trace.initial_emissions == []


def test_unmatched_drop_from_idle(toast_model):
    trace = run_ed(toast_model, "robot.ToastArmController", [Event("req", DROP)])
    assert trace.steps[0].emissions == []
    assert trace.steps[0].state.state == "Idle"


def test_guard_triggered_event():
    model = small_model(
        "component C { port in Integer temp, out Integer alarm; automaton {"
        " state S; initial S; S [temp > 30] / alarm = 1; } }")
    trace = run_ed(model, "C", [Event("temp", 35), Event("temp", 20)])
    assert trace.steps[0].emissions == [("alarm", [1])]
    assert trace.steps[1].emissions == []


def test_event_forwarding():
    model = small_model(
        "component C { port in Integer x, out Integer y; automaton {"
        " state S; initial S; S x = 1 | 2 / y = x; } }")
    trace = run_ed(model, "C", [Event("x", 2), Event("x", 3)])
    assert trace.steps[0].emissions == [("y", [2])]
    assert trace.steps[1].emissions == []  # 3 matches no alternative


def test_variable_update_across_events():
    model = small_model(
        "component C { port in Integer x, out Integer y; Integer seen = 0;"
        " automaton { state S; initial S; S [x > 0] / {y = seen, seen = x}; } }")
    trace = run_ed(model, "C", [Event("x", 5), Event("x", 7)])
    assert trace.steps[0].emissions == [("y", [0])]
    assert trace.steps[1].emissions == [("y", [5])]
    assert trace.steps[1].state.variables["seen"] == 7


def test_initial_output_emitted_before_events():
    model = small_model(
        "component C { port in Integer x, out Integer y; automaton {"
        " state S; initial S / y = [9, 8]; S x = 1 / y = 0; } }")
    trace = run_ed(model, "C", [Event("x", 1)])
    assert trace.initial_emissions == [("y", [9, 8])]
    assert trace.steps[0].emissions == [("y", [0])]


def test_composed_main_rejected(pipeline_model):
    with pytest.raises(SetupError, match="atomic"):
        run_ed(pipeline_model, "pipeline.Pipeline", [])


def test_unknown_event_port_rejected(toast_model):
    with pytest.raises(SetupError, match="'armCmd' is not an in-port of "
                                         "'robot.ToastArmController'"):
        run_ed(toast_model, "robot.ToastArmController",
               [Event("armCmd", EnumValue(ARM, "OPEN"))])


# Transitions out of S that react to an event on op: indexed on it (o = 1,
# 4), guard-only (o = 2) and matching op against a variable (o = 5), with one
# that reads n too (o = 3) and so reacts to no event, interleaved.
INTERLEAVED = (
    "package p; component C { port in Op op, in Integer n, out Integer o; Op last = B;"
    " automaton { state S; initial S; S op = A | B / o = 1; S [op != C] / o = 2;"
    " S [n > 0] op = A / o = 3; S op = B / o = 4; S {op = last} / o = 5;"
    " S [n > 0] / o = 6; } }")
OPS = "package p; enum Op { A, B, C, D }"


def op(literal):
    return EnumValue("p.Op", literal)


def interleaved():
    from maa.parser import parse_types_file
    unit = parse_component_file(INTERLEAVED, "m.maa")
    model, diags = resolve([unit], [parse_types_file(OPS, "t.types")])
    assert diags == [], [d.render() for d in diags]
    return model


def sent_by(transitions):
    return [t.assigns[0].alternatives[0]({}, {}) for t in transitions]


def test_index_keeps_declaration_order_among_the_transitions_that_react():
    from maa.engine import lower
    rc = interleaved().components["p.C"]
    behaviour = lower(rc)
    enabled = behaviour.enabled("S", positional(rc, {"op": op("B")}), {"last": op("B")}, "op")
    assert sent_by(enabled) == [1, 2, 4, 5]
    port, buckets, rest = behaviour.dispatch["S", "op"]
    assert port == rc.in_ports.index("op") and set(buckets) == {op("A"), op("B")}
    assert sent_by(buckets[op("A")]) == [1, 2, 5] and sent_by(rest) == [2, 5]
    assert sent_by(behaviour.enabled("S", positional(rc, {"n": 1}), {"last": op("B")}, "n")) == [6]
    assert behaviour.dispatch["S", "n"][:2] == (None, {})  # no entry of constants on n


def test_an_event_value_that_no_bucket_names_is_tested_against_the_rest():
    model = interleaved()
    trace = run_ed(model, "p.C", [Event("op", op("D")), Event("op", op("C")),
                                  Event("n", 1), Event("op", op("A"))])
    assert [step.emissions for step in trace.steps] == [
        [("o", [2])], [], [("o", [6])], [("o", [1])]]


def test_seeded_runs_see_every_transition_that_reacts():
    model = interleaved()
    seen = {run_ed(model, "p.C", [Event("op", op("B"))], Seeded(seed)).steps[0].emissions[0][1][0]
            for seed in range(40)}
    assert seen == {1, 2, 4, 5}


def _script_for(rc, model, rng, n):
    """``n`` events on the in-ports of ``rc`` with concrete types, drawn from a
    few values of each type."""
    values = {}
    for port in rc.in_ports:
        declared = rc.binding(port)[1]
        if declared == INTEGER:
            values[port] = [0, 1, 2, 7]
        elif declared == BOOLEAN:
            values[port] = [False, True]
        elif declared == STRING:
            values[port] = ["", "a"]
        elif isinstance(declared, EnumType):
            values[port] = [EnumValue(declared.qname, literal)
                            for literal in model.enums[declared.qname].literals]
    ports = sorted(port for port in values if values[port])
    return [Event(port, rng.choice(values[port])) for port in rng.choices(ports, k=n)] \
        if ports else []


def _outcome(run):
    try:
        return run()
    except (SetupError, SimulationError) as exc:
        return type(exc).__name__, str(exc)


def _collected(steps):
    start = next(steps)
    assert start.event is None
    return EventTrace(start.state.state, start.emissions, list(steps))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_run_ed_is_the_collected_iter_ed_on_the_corpus(name):
    paths, _, type_paths = CORPUS[name]
    model = load_model(paths, type_paths)
    rng = random.Random(name)
    for qname, rc in sorted(model.components.items()):
        if rc.ast.composed:
            continue
        script = _script_for(rc, model, rng, 30)
        for policy in (FirstDeclared(), Seeded(3)):
            assert _outcome(lambda: run_ed(model, qname, script, policy)) == _outcome(
                lambda: _collected(iter_ed(model, qname, script, policy))), (qname, policy)


def test_a_failing_event_raises_after_the_start_and_the_steps_before_it():
    model = small_model(
        "component F { port in Integer p, in Integer q, out Integer o; automaton {"
        " state S; initial S / o = 5; S [p > 1] / o = q; S p = 1 / o = p; } }")
    steps = iter_ed(model, "F", [Event("p", 1), Event("p", 0), Event("p", 2), Event("p", 1)])
    start = next(steps)
    assert (start.event, start.emissions, start.state.state) == (None, [("o", [5])], "S")
    assert [(step.event.value, step.emissions) for step in itertools.islice(steps, 2)] == [
        (1, [("o", [1])]), (0, [])]
    with pytest.raises(SimulationError) as raised:
        next(steps)
    assert (raised.value.event, str(raised.value)) == (
        3, "event 3: forwarding absent message from port 'q'")
    assert next(steps, None) is None


def test_an_absent_event_is_refused_after_the_steps_before_it():
    # Matching -- is S3ED, a rule of the event-driven profile alone, so the
    # model runs; without the refusal, {x = --} would fire on the absent event.
    model = small_model(
        "component A { port in Integer x, out Integer o; automaton {"
        " state S; initial S; S {x = --} / o = 1; S x = 2 / o = 2; } }")
    refusal = "an event on in-port 'x' of 'A' cannot carry '--'"
    steps = iter_ed(model, "A", [Event("x", 2), Event("x", ABSENT), Event("x", 2)])
    assert [(step.event, step.emissions) for step in itertools.islice(steps, 2)] == [
        (None, []), (Event("x", 2), [("o", [2])])]
    with pytest.raises(SetupError) as raised:
        next(steps)
    assert str(raised.value) == refusal
    with pytest.raises(SetupError) as raised:
        run_ed(model, "A", [Event("x", ABSENT)])
    assert str(raised.value) == refusal


def test_a_policy_run_makes_few_python_calls_per_event():
    # A FirstDeclared step tests candidates only up to the first enabled one,
    # enum values hash and compare in C, and a sequence send copies its
    # constants: 17.34 Python-level calls per event before, 12.54 now
    w = workloads.generate("ed_script", 1, "smoke")
    model = workload_model(w)
    script = [Event(port, workload_value(w, port, v)) for port, v in w.script]
    run_ed(model, w.main, script)  # check's findings stay on the model
    half = len(script) // 2
    calls = [python_calls(lambda: run_ed(model, w.main, events))
             for events in (script[:half], script)]
    assert (calls[1] - calls[0]) / (len(script) - half) <= 14.0


def test_a_sequence_send_evaluates_its_elements_in_order_around_its_constants():
    # a fresh copy of the constants, with the other elements evaluated into it
    # in order: of two absent ports, the error names the first
    model = small_model(
        "component C { port in Integer p, in Integer q, in Integer r, out Integer o;"
        " automaton { state S; initial S; S [p > 1] / {o = [p, 7, p, 8]};"
        " S [p == 1] / {o = [1, q, 2, r]}; } }")
    trace = run_ed(model, "C", [Event("p", 5), Event("p", 6)])
    assert [step.emissions for step in trace.steps] == [[("o", [5, 7, 5, 8])],
                                                        [("o", [6, 7, 6, 8])]]
    with pytest.raises(SimulationError, match="^event 1: forwarding absent message from port 'q'$"):
        run_ed(model, "C", [Event("p", 1)])
