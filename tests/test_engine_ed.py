"""Event-driven engine: matching, emissions, run-to-completion."""

from __future__ import annotations

import pytest

from maa.engine import EnumValue, Event, SetupError, run_ed
from maa.parser import parse_component_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit

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
