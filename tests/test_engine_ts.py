"""Time-synchronous engine: guards, matching, output blocks, runs, enumeration."""

from __future__ import annotations

import random

import pytest

from maa import engine
from maa.engine import (
    ABSENT,
    EnumerationOverflow,
    EnumValue,
    Event,
    FirstDeclared,
    Seeded,
    SetupError,
    SimulationError,
    enumerate_ts,
    iter_ts,
    lower,
    run_ed,
    run_ts,
)
from maa.parser import parse_component_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit

from conftest import out_column, trace_key

MOTOR = "bumperbot.types.MotorCmd"
TIMER = "bumperbot.types.TimerCmd"
RMOTOR = "robot.MotorCmd"
DIST = "robot.Distance"


def motor(lit):
    return EnumValue(MOTOR, lit)


def rmotor(lit):
    return EnumValue(RMOTOR, lit)


def dist(lit):
    return EnumValue(DIST, lit)


def small_model(text, types=()):
    unit = parse_component_file(text, "m.maa")
    assert isinstance(unit, CompilationUnit), unit
    from maa.parser import parse_types_file
    tunits = []
    for t in types:
        tu = parse_types_file(t, "t.types")
        tunits.append(tu)
    model, diags = resolve([unit], tunits)
    assert diags == [], [d.render() for d in diags]
    return model


@pytest.fixture
def bump(bump_model):
    return bump_model.components["bumperbot.BumpControl"]


@pytest.fixture
def follow(follow_model):
    return follow_model.components["robot.FollowTheLeaderOnline"]


def enabled_in(rc, state, inputs):
    """Transitions of rc's automaton enabled in ``state``, as AST nodes, by the
    executable form's query; ports missing from ``inputs`` are absent."""
    inputs = {port: ABSENT for port in rc.in_ports} | inputs
    return [t.transition for t in lower(rc).enabled(state, inputs, {})]


def is_enabled(rc, index, inputs):
    """Whether transition ``index`` is enabled from its own source state."""
    trans = rc.ast.automata[0].transitions[index]
    return any(t is trans for t in enabled_in(rc, trans.source, inputs))


def fire_first(rc, trans, inputs, variables):
    """apply_outputs of the lowered transition on each assignment's first
    alternative, as the first-declared policy picks; out-ports not sent read
    absent."""
    behaviour = lower(rc)
    (lowered,) = [t for t in behaviour.by_state[trans.source] if t.transition is trans]
    assigns = lowered.assigns
    sent, new_vars = behaviour.apply_outputs(assigns, [a.alternatives[0] for a in assigns],
                                             inputs, variables)
    return {port: ABSENT for port in rc.out_ports} | dict(sent), new_vars


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_guard_comparison_true(bump):
    assert is_enabled(bump, 0, {"distance": 3, "signal": ABSENT}) is True
    assert is_enabled(bump, 0, {"distance": 7, "signal": ABSENT}) is False


def test_guard_absent_port_is_false(bump):
    assert is_enabled(bump, 0, {"distance": ABSENT, "signal": True}) is False


def test_guard_string_conjunction():
    model = small_model(
        'component C { port in String cmd, out Integer o; automaton {'
        ' state S; initial S; S [cmd != "SAVE" && cmd != "SEND"] / o = 0; } }')
    rc = model.components["C"]
    assert is_enabled(rc, 0, {"cmd": "SAVE"}) is False
    assert is_enabled(rc, 0, {"cmd": "OTHER"}) is True


def test_guard_negation_of_absent_is_still_false():
    model = small_model(
        "component C { port in Integer a, out Integer o; automaton {"
        " state S; initial S; S [!(a < 5)] / o = 0; } }")
    rc = model.components["C"]
    assert is_enabled(rc, 0, {"a": ABSENT}) is False
    assert is_enabled(rc, 0, {"a": 9}) is True


def test_lowering_shares_equal_port_sets():
    model = small_model(
        "component C { port in Integer a, in Integer b, out Integer o; automaton {"
        " state S, T; initial S; S [a > 0] b = 1 / o = 1; T [a < 0] b = 2 / o = 2;"
        " S [b > 0] / o = 3; } }")
    rc = model.components["C"]
    lowered = lower(rc)
    first, _ = lowered.by_state["S"]
    (second,) = lowered.by_state["T"]
    assert first.reads == {"a", "b"}
    assert first.reads is second.reads


def test_lowering_compiles_each_distinct_guard_and_entry_once():
    # 3 distinct guards and 5 distinct output entries over 60 transitions
    guards = ["[x == 1]", "[b == true]", "[x > 1 && !(x == 2)]"]
    transitions = " ".join(f"S {guards[k % 3]} / o = {k % 5};" for k in range(60))
    model = small_model("component C { port in Integer x, in Boolean b, out Integer o;"
                        f" automaton {{ state S; initial S; {transitions} }} }}")
    lowered = lower(model.components["C"]).by_state["S"]
    assert len({id(t.guard) for t in lowered}) == 3
    assert all(t.guard is lowered[k % 3].guard for k, t in enumerate(lowered))
    assert len({id(entry) for t in lowered for entry in t.assigns}) == 5
    enabled = lower(model.components["C"]).enabled("S", {"x": 1, "b": ABSENT}, {})
    assert [t.transition for t in enabled] == [t.transition for t in lowered[::3]]


def test_lowering_keeps_equal_literals_of_different_types_apart():
    # 1 and true are equal in Python but different literals: each is compiled
    # on its own
    model = small_model(
        "component C { port in Integer p, out Integer o, out Boolean q; automaton {"
        " state S; initial S; S / {o = 1, q = true}; } }")
    rc = model.components["C"]
    outputs, _ = fire_first(rc, rc.ast.automata[0].transitions[0], {"p": ABSENT}, {})
    assert [(v, type(v)) for v in outputs.values()] == [(1, int), (True, bool)]


# ---------------------------------------------------------------------------
# input blocks and the enabled query
# ---------------------------------------------------------------------------

def test_match_both_ports(follow):
    # transition 0: inLane = true, dist = TOO_FAR
    assert is_enabled(follow, 0, {"inLane": True, "dist": dist("TOO_FAR")}) is True
    assert is_enabled(follow, 0, {"inLane": True, "dist": ABSENT}) is False
    assert is_enabled(follow, 0, {"inLane": False, "dist": dist("TOO_FAR")}) is False


def test_empty_input_block_matches_everything(bump):
    assert bump.ast.automata[0].transitions[0].input is None  # guard only
    # an absent signal constrains nothing when no input block reads it
    assert is_enabled(bump, 0, {"distance": 3, "signal": ABSENT}) is True


def test_absent_satisfies_only_nodata():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S p = -- / o = 0; S p = 1 / o = 1; } }")
    rc = model.components["C"]
    nodata_t, one_t = 0, 1
    assert is_enabled(rc, nodata_t, {"p": ABSENT}) is True
    assert is_enabled(rc, nodata_t, {"p": 1}) is False
    assert is_enabled(rc, one_t, {"p": ABSENT}) is False
    assert is_enabled(rc, one_t, {"p": 1}) is True


def test_nameref_alternative_compares_current_values():
    model = small_model(
        "component C { port in Integer a, in Integer b, out Integer o; automaton {"
        " state S; initial S; S a = b / o = 0; } }")
    rc = model.components["C"]
    assert is_enabled(rc, 0, {"a": 4, "b": 4}) is True
    assert is_enabled(rc, 0, {"a": 4, "b": 5}) is False


def test_enabled_declaration_order(follow):
    auto = follow.ast.automata[0]
    hits = enabled_in(follow, "Following", {"inLane": True, "dist": dist("TOO_FAR")})
    assert hits == [auto.transitions[0]]
    none = enabled_in(follow, "Following", {"inLane": True, "dist": ABSENT})
    assert none == []


def test_enabled_keeps_order_for_dual_loops():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S / o = 1; S / o = 2; } }")
    rc = model.components["C"]
    auto = rc.ast.automata[0]
    hits = enabled_in(rc, "S", {"p": ABSENT})
    assert hits == auto.transitions


# ---------------------------------------------------------------------------
# the dispatch index of enabled()
# ---------------------------------------------------------------------------

# Transitions out of S indexed on p (o = 1, 4, 5), guard-only (o = 2),
# matching a variable (o = 3) or p against a read (o = 6), interleaved.
INTERLEAVED = (
    "component C { port in Integer p, in Integer q, out Integer o; Integer v = 1;"
    " automaton { state S; initial S; S p = 1 | 2 / o = 1; S [q > 0] / o = 2;"
    " S {v = 1} / o = 3; S p = 2 / o = 4; S p = -- / o = 5; S {p = q} / o = 6; } }")


def sent_by(transitions):
    return [t.assigns[0].alternatives[0]({}, {}) for t in transitions]


def test_index_keeps_declaration_order_among_indexed_and_other_transitions():
    behaviour = lower(small_model(INTERLEAVED).components["C"])
    assert sent_by(behaviour.enabled("S", {"p": 2, "q": 2}, {"v": 1})) == [1, 2, 3, 4, 6]
    assert sent_by(behaviour.enabled("S", {"p": 1, "q": 0}, {"v": 0})) == [1]
    assert sent_by(behaviour.enabled("S", {"p": ABSENT, "q": ABSENT}, {"v": 1})) == [3, 5, 6]
    port, buckets, rest = behaviour.dispatch["S"]
    assert port == "p" and set(buckets) == {1, 2, ABSENT}
    assert sent_by(buckets[2]) == [1, 2, 3, 4, 6] and sent_by(rest) == [2, 3, 6]


def test_a_value_that_no_bucket_names_is_tested_against_the_rest():
    behaviour = lower(small_model(INTERLEAVED).components["C"])
    assert sent_by(behaviour.enabled("S", {"p": 7, "q": 7}, {"v": 1})) == [2, 3, 6]
    assert sent_by(behaviour.enabled("S", {"p": 7, "q": ABSENT}, {"v": 0})) == []


def test_policies_and_enumeration_see_every_enabled_transition_of_a_bucket():
    model = small_model(INTERLEAVED)
    stimulus = [{"p": 2, "q": 2}]
    first = run_ts(model, "C", stimulus, 2, FirstDeclared())
    assert out_column(first, "o") == [ABSENT, 1]
    seen = {out_column(run_ts(model, "C", stimulus, 2, Seeded(seed)), "o")[1]
            for seed in range(40)}
    assert seen == {1, 2, 3, 4, 6}
    traces = enumerate_ts(model, "C", stimulus, 2)
    assert sorted(t.records[1].outputs["o"] for t in traces) == [1, 2, 3, 4, 6]


def test_one_cycle_evaluates_only_the_guards_of_the_indexed_bucket(monkeypatch):
    # 100 transitions whose entries each admit 1 to 3 of 10 literals
    rng = random.Random(17)
    literals = [f"C{i}" for i in range(10)]
    admitted = [rng.sample(literals, rng.randint(1, 3)) for _ in range(100)]
    transitions = " ".join(f"S [x > {k % 10}] {{c = {' | '.join(cs)}}} / o = {k};"
                           for k, cs in enumerate(admitted))
    model = small_model(
        "package w; component C { port in Integer x, in Cmd c, out Integer o;"
        f" automaton {{ state S; initial S; {transitions} }} }}",
        [f"package w; enum Cmd {{ {', '.join(literals)} }}"])
    evaluated = []

    def counting(guard):
        def counted(inputs, variables):
            evaluated.append(inputs["c"])
            return guard(inputs, variables)
        return counted

    def lower_counting(rc):
        behaviour = lower(rc)
        behaviour.by_state["S"] = [t._replace(guard=counting(t.guard))
                                   for t in behaviour.by_state["S"]]
        return behaviour

    monkeypatch.setattr(engine, "lower", lower_counting)
    value = EnumValue("w.Cmd", "C3")
    trace = run_ts(model, "w.C", [{"x": 5, "c": value}, {"x": 5, "c": ABSENT}], 3)
    bucket = [k for k, cs in enumerate(admitted) if "C3" in cs]
    assert len(evaluated) == len(bucket) < 100  # the absent cycle evaluates none
    fired = next(k for k in bucket if 5 > k % 10)
    assert out_column(trace, "o") == [ABSENT, fired, ABSENT]


# ---------------------------------------------------------------------------
# output blocks
# ---------------------------------------------------------------------------

def test_fire_bump_control_line_25(bump):
    trans = bump.ast.automata[0].transitions[2]  # Backing -> Rotating
    outputs, new_vars = fire_first(bump, trans, {"distance": ABSENT, "signal": True}, {})
    assert outputs["left"] == motor("FORWARD")
    assert outputs["cmd"] == EnumValue(TIMER, "SINGLE_DELAY")
    assert outputs["right"] is ABSENT
    assert new_vars == {}


def test_fire_arbiter_forwards(arbiter_model):
    rc = arbiter_model.components["Arbiter"]
    trans = rc.ast.automata[0].transitions[0]  # mode = true / in1
    outputs, _ = fire_first(rc, trans, {"mode": True, "in1": 5, "in2": 7}, {})
    assert outputs == {"res": 5}


def test_fire_empty_output_block():
    model = small_model(
        "component C { port in Integer p, out Integer o; Integer v = 3;"
        " automaton { state S; initial S; S p = 1; } }")
    rc = model.components["C"]
    trans = rc.ast.automata[0].transitions[0]
    outputs, new_vars = fire_first(rc, trans, {"p": 1}, {"v": 3})
    assert outputs == {"o": ABSENT}
    assert new_vars == {"v": 3}


def test_fire_variable_preserved_and_prestate_reads():
    model = small_model(
        "component C { port in Integer p, out Integer o; Integer v;"
        " automaton { state S; initial S; S / {v = 9, o = v}; } }")
    rc = model.components["C"]
    trans = rc.ast.automata[0].transitions[0]
    outputs, new_vars = fire_first(rc, trans, {"p": ABSENT}, {"v": 2})
    assert outputs["o"] == 2  # right-hand sides read the pre-state
    assert new_vars == {"v": 9}


def test_fire_forwarding_absent_is_runtime_error(arbiter_model):
    rc = arbiter_model.components["Arbiter"]
    trans = rc.ast.automata[0].transitions[0]
    with pytest.raises(SimulationError, match="absent"):
        fire_first(rc, trans, {"mode": True, "in1": ABSENT, "in2": 7}, {})


# Models that skip check.  Every entry point refuses one that check rejects,
# with its first error as check renders it; a variable initialised from a
# later one passes check and fails when the instance starts, alike under both
# profiles.
UNCHECKED = {
    "absent-initial-output-to-variable": (
        "component C { port in Integer p, out Integer o; Integer v; automaton {"
        " state S; initial S / v = --; S p = 1 / o = v; } }",
        SetupError, "m.maa:1:97 error T4: cannot assign -- to variable 'v'"),
    "absent-variable-initializer": (
        "component C { port in Integer p, out Integer o; Integer v = --; automaton {"
        " state S; initial S; S p = 1 / o = v; } }",
        SetupError, "m.maa:1:61 error T4: cannot assign -- to variable 'v'"),
    "assignment-to-in-port": (
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S p = 1 / p = 2; } }",
        SetupError, "m.maa:1:91 error T6: cannot send to input port 'p'"),
    "undefined-name-in-guard": (
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S [x == 1] p = 1 / o = 1; } }",
        SetupError, "m.maa:1:84 error R2: name 'x' is undefined"),
    "undefined-name-in-output": (
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S p = 1 / o = x; } }",
        SetupError, "m.maa:1:95 error R2: name 'x' is undefined"),
    "sequence-variable-initializer": (
        "component C { port in Integer p, out Integer o; Integer v = [1, 2]; automaton {"
        " state S; initial S; S p = 1 / o = v; } }",
        SetupError, "m.maa:1:61 error T5: cannot assign a sequence to variable 'v'"),
    "in-port-variable-initializer": (
        "component C { port in Integer p, out Integer o; Integer v = p; automaton {"
        " state S; initial S; S p = 1 / o = v; } }",
        SetupError, "m.maa:1:61 error R3: variable declaration of 'v' references port 'p'"),
    # variables are initialised in declaration order
    "later-variable-initializer": (
        "component C { port in Integer p, out Integer o; Integer v = w; Integer w = 1;"
        " automaton { state S; initial S; S p = 1 / o = v; } }",
        SimulationError, "unresolved name 'w' at runtime"),
    # the same name at the top of an output value and of a guard
    "undefined-name-in-output-and-guard": (
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S p = 1 / o = zz; S [zz] p = 1 / o = 1; } }",
        SetupError, "m.maa:1:95 error R2: name 'zz' is undefined"),
    "out-port-in-guard": (
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S [o == 1] p = 1 / o = 1; } }",
        SetupError, "m.maa:1:84 error T6: cannot read output port 'o' in a guard"),
    "non-boolean-guard": (
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S [p + 1] / o = 1; } }",
        SetupError, "m.maa:1:83 error T1: guard expression must be Boolean"),
    "guard-type-error": (
        "component C { port in Integer p, out Integer o; automaton {"
        ' state S; initial S; S [p < "s"] / o = 1; } }',
        SetupError, "m.maa:1:86 error T1: operands of '<' must be Integer"),
}


@pytest.mark.parametrize("text, error, message", UNCHECKED.values(), ids=list(UNCHECKED))
def test_both_profiles_reject_unrunnable_outputs_alike(text, error, message):
    model = small_model(text)
    with pytest.raises(error) as under_ts:
        run_ts(model, "C", [{"p": 1}], 2)
    with pytest.raises(error) as enumerated:
        enumerate_ts(model, "C", [{"p": 1}], 2)
    with pytest.raises(error) as under_ed:
        run_ed(model, "C", [Event("p", 1)])
    assert str(under_ts.value) == str(enumerated.value) == str(under_ed.value) == message


def test_guard_connectives_short_circuit():
    # the right operands are ill-typed, so the model is refused before any
    # guard is evaluated
    model = small_model(
        'component C { port in Integer p, out Integer o; automaton { state S; initial S;'
        ' S [p == 2 && p < "s"] / o = 1; S [p == 1 || p < "s"] / o = 2; } }')
    message = "m.maa:1:96 error T1: operands of '<' must be Integer"
    with pytest.raises(SetupError, match=f"^{message}$"):
        run_ts(model, "C", [{"p": 1}], 2)
    with pytest.raises(SetupError, match=f"^{message}$"):
        run_ed(model, "C", [Event("p", 1)])


# ---------------------------------------------------------------------------
# run_ts
# ---------------------------------------------------------------------------

FOLLOW_STIM = [
    {"inLane": True, "dist": ABSENT},
    {"inLane": True, "dist": ABSENT},
    {"inLane": True, "dist": dist("TOO_FAR")},
    {"inLane": True, "dist": dist("TOO_FAR")},
    {"inLane": True, "dist": ABSENT},
    {"inLane": False, "dist": ABSENT},
    {"inLane": False, "dist": dist("TOO_FAR")},
    {"inLane": True, "dist": dist("TOO_FAR")},
]

FOLLOW_CMD = ["SLOW_FORWARD", "--", "--", "FAST_FORWARD", "FAST_FORWARD",
              "--", "TURN", "--"]


def test_follow_the_leader_reference_trace(follow_model):
    trace = run_ts(follow_model, "robot.FollowTheLeaderOnline", FOLLOW_STIM, 8)
    got = ["--" if v is ABSENT else v.literal for v in out_column(trace, "cmd")]
    assert got == FOLLOW_CMD


def test_follow_cycle_seven_turn_via_state_change(follow_model):
    trace = run_ts(follow_model, "robot.FollowTheLeaderOnline", FOLLOW_STIM, 8)
    assert trace.records[4].states[""].state == "Following"
    assert trace.records[5].states[""].state == "Finding"
    assert trace.records[6].outputs["cmd"] == rmotor("TURN")


def test_bump_control_initial_and_first_fire(bump_model):
    stim = [{"distance": 3, "signal": ABSENT}]
    trace = run_ts(bump_model, "bumperbot.BumpControl", stim, 2)
    first, second = trace.records
    assert first.outputs == {"left": motor("STOP"), "right": motor("STOP"),
                             "cmd": ABSENT}
    assert first.states[""].state == "Driving"  # guard 3 < 5 fired in cycle 1
    assert second.outputs == {"left": motor("STOP"), "right": motor("STOP"),
                              "cmd": ABSENT}


def test_idle_cycle_preserves_state(bump_model):
    stim = [{"distance": 9, "signal": ABSENT}]
    trace = run_ts(bump_model, "bumperbot.BumpControl", stim, 2)
    assert trace.records[0].states[""].state == "Idle"
    assert trace.records[1].outputs == {"left": ABSENT, "right": ABSENT,
                                        "cmd": ABSENT}


def test_initial_output_only_run(follow_model):
    trace = run_ts(follow_model, "robot.FollowTheLeaderOnline", [], 1)
    assert len(trace.records) == 1
    assert trace.records[0].outputs["cmd"] == rmotor("SLOW_FORWARD")


def test_missing_stimulus_rows_are_absent(follow_model):
    trace = run_ts(follow_model, "robot.FollowTheLeaderOnline",
                   [{"inLane": True}], 3)
    assert trace.records[2].inputs == {"inLane": ABSENT, "dist": ABSENT}


def test_unknown_main_rejected(follow_model):
    with pytest.raises(SetupError, match="unknown main"):
        run_ts(follow_model, "robot.Nope", [], 1)


def test_unknown_stimulus_column_rejected(follow_model):
    with pytest.raises(SetupError, match="not an in-port"):
        run_ts(follow_model, "robot.FollowTheLeaderOnline", [{"bogus": 1}], 1)


def test_seed_determinism(follow_model):
    a = run_ts(follow_model, "robot.FollowTheLeaderOnline", FOLLOW_STIM, 8, Seeded(7))
    b = run_ts(follow_model, "robot.FollowTheLeaderOnline", FOLLOW_STIM, 8, Seeded(7))
    assert trace_key(a) == trace_key(b)


def test_emitting_sequence_in_ts_is_runtime_error():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S / o = [1, 2]; } }")
    with pytest.raises(SimulationError, match="sequence"):
        run_ts(model, "C", [], 1)
    # an initial output is a sequence too, and ED emits it as one
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S / o = [1, 2]; } }")
    with pytest.raises(SimulationError) as raised:
        run_ts(model, "C", [], 1)
    assert raised.value.message == (
        "initial output on port 'o' is a sequence; "
        "the time-synchronous profile allows one message per port")
    assert raised.value.cycle is None
    trace = run_ed(model, "C", [])
    assert trace.initial_emissions == [("o", [1, 2])]


def test_without_initial_declaration_starts_silently_in_first_state():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S, T; S -> T / o = 1; } }")
    trace = run_ts(model, "C", [], 1)
    [record] = trace.records
    assert record.outputs == {"o": ABSENT}
    assert record.states[""].state == "T"
    assert [trace_key(t) for t in enumerate_ts(model, "C", [], 1)] == [trace_key(trace)]
    ed = run_ed(model, "C", [])
    assert (ed.initial_state, ed.initial_emissions, ed.steps) == ("S", [], [])


def test_guard_type_error_names_its_cycle():
    # a is an Integer compared with a String: refused before cycle 1
    model = small_model(
        'component C { port in Integer a, out Integer o; automaton {'
        ' state S; initial S; S [a < "s"] / o = 1; } }')
    message = "m.maa:1:86 error T1: operands of '<' must be Integer"
    with pytest.raises(SetupError, match=f"^{message}$"):
        run_ts(model, "C", [{}, {"a": 1}], 2)
    with pytest.raises(SetupError, match=f"^{message}$"):
        run_ed(model, "C", [Event("a", 1)])


def test_runtime_error_names_its_cycle():
    model = small_model(
        "component C { port in Integer a, in Integer p, out Integer o; automaton {"
        " state S; initial S; S a = 1 / o = p; } }")
    with pytest.raises(SimulationError) as raised:
        run_ts(model, "C", [{}, {"a": 1}], 2)
    assert (raised.value.cycle, raised.value.message) == (
        2, "forwarding absent message from port 'p'")
    # an event-driven run names the event, counted from 1 as cycles are
    with pytest.raises(SimulationError, match="^event 1: forwarding absent message from port 'p'$"):
        run_ed(model, "C", [Event("a", 1)])


def test_enumeration_reads_each_stimulus_row_when_it_reaches_its_cycle():
    # the run fails in cycle 3 of 10**6: no row after the third is read
    model = small_model(
        "component C { port in Integer a, in Integer p, out Integer o; automaton {"
        " state S; initial S; S a = 1 / o = p; } }")
    pulled = 0

    def stimulus():
        nonlocal pulled
        while True:
            pulled += 1
            yield {"a": 1} if pulled == 3 else {}

    with pytest.raises(SimulationError) as raised:
        enumerate_ts(model, "C", stimulus(), 10**6)
    assert (raised.value.cycle, raised.value.message) == (
        3, "forwarding absent message from port 'p'")
    assert pulled == 3


# ---------------------------------------------------------------------------
# stimulus and event values against their ports' types
# ---------------------------------------------------------------------------

def typed_models():
    """(model, main) for a component with an Integer, a Boolean and an enum
    in-port, and for a generic one whose in-port has a type parameter."""
    typed = small_model(
        "package p; import p.types.*; component C {"
        " port in Integer i, in Boolean b, in E e, out Integer o;"
        " automaton { state S; initial S; } }",
        ["package p.types; enum E { X, Y } enum F { X }"])
    generic = small_model(
        "component G<T> { port in T t, out T o; automaton { state S; initial S; } }")
    return {"p.C": typed, "G": generic}


ENTRY_POINTS = {
    "run_ts": lambda model, main, row: run_ts(model, main, [row], 1),
    "iter_ts": lambda model, main, row: list(iter_ts(model, main, [row], 1)),
    "enumerate_ts": lambda model, main, row: enumerate_ts(model, main, [row], 1),
    "run_ed": lambda model, main, row: run_ed(
        model, main, [Event(port, value) for port, value in row.items()]),
}

MISTYPED = {
    "str-on-integer": ("p.C", "i", "1", "Integer"),
    "int-on-boolean": ("p.C", "b", 1, "Boolean"),
    "bool-on-integer": ("p.C", "i", True, "Integer"),
    "other-enum": ("p.C", "e", EnumValue("p.types.F", "X"), "p.types.E"),
    "unknown-literal": ("p.C", "e", EnumValue("p.types.E", "Z"), "p.types.E"),
    "type-parameter-int": ("G", "t", 1, "T"),
    "type-parameter-str": ("G", "t", "s", "T"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("main, port, value, declared", MISTYPED.values(), ids=list(MISTYPED))
def test_mistyped_stimulus_and_event_values_are_refused(entry, main, port, value, declared):
    model = typed_models()[main]
    what = "event" if entry == "run_ed" else "stimulus"
    with pytest.raises(SetupError) as raised:
        ENTRY_POINTS[entry](model, main, {port: value})
    assert str(raised.value) == (
        f"{what} value {value!r} on in-port '{port}' of '{main}' is no {declared}")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_absent_is_accepted_on_every_port(entry):
    for main, model in typed_models().items():
        row = dict.fromkeys(model.components[main].in_ports, ABSENT)
        ENTRY_POINTS[entry](model, main, row)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_unknown_port_is_refused_at_every_entry_point(entry):
    column = "" if entry == "run_ed" else "stimulus column "
    with pytest.raises(SetupError) as raised:
        ENTRY_POINTS[entry](typed_models()["p.C"], "p.C", {"x": 1})
    assert str(raised.value) == f"{column}'x' is not an in-port of 'p.C'"


def test_well_typed_values_are_accepted():
    model, main = typed_models()["p.C"], "p.C"
    row = {"i": 1, "b": True, "e": EnumValue("p.types.E", "Y")}
    for run in ENTRY_POINTS.values():
        run(model, main, row)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

PIPE_STIM = [{"mode": True}, {"mode": True}, {"mode": False},
             {"mode": True}, {"mode": ABSENT}, {"mode": True}]


def test_pipeline_golden_trace(pipeline_model):
    trace = run_ts(pipeline_model, "pipeline.Pipeline", PIPE_STIM, 6)
    got = ["--" if v is ABSENT else v for v in out_column(trace, "result")]
    assert got == ["--", "--", 1, 1, 2, 1]


def test_pipeline_per_component_delay(pipeline_model):
    # a mode flip at cycle t is visible at result exactly at t + 2:
    # one delay in the arbiter, one in the sink
    for flip_cycle in (1, 2, 3):
        stim = [{"mode": True}] * 6
        stim[flip_cycle - 1] = {"mode": False}
        trace = run_ts(pipeline_model, "pipeline.Pipeline", stim, 6)
        column = out_column(trace, "result")
        assert column[flip_cycle + 1] == 2, f"flip at {flip_cycle}"


def test_pipeline_states_column(pipeline_model):
    trace = run_ts(pipeline_model, "pipeline.Pipeline", PIPE_STIM, 6)
    assert set(trace.records[0].states) == {"src", "arb", "snk"}


CHAIN_TEXT = """package chain;

component Stage {
    port in Integer i, out Integer o;
    automaton {
        state S;
        initial S;
        S i = 1 | 2 | 3 / o = i;
        S i = --;
    }
}
"""

CHAIN_TOP = """package chain;

component Chain {
    port in Integer x, out Integer y;
    component Stage s1;
    component Stage s2;
    connect x -> s1.i;
    connect s1.o -> s2.i;
    connect s2.o -> y;
}
"""


def chain_model(extra=()):
    from maa.parser import parse_component_file
    units = []
    for text in (CHAIN_TEXT, CHAIN_TOP, *extra):
        unit = parse_component_file(text, "chain.maa")
        assert isinstance(unit, CompilationUnit), unit
        units.append(unit)
    model, diags = resolve(units, [])
    assert diags == [], [d.render() for d in diags]
    return model


def test_two_stage_forwarder_hand_trace():
    # hand-computed: a message fed at cycle t crosses two single-delay stages
    # and appears externally at t + 2
    model = chain_model()
    stim = [{"x": 1}, {"x": 2}, {"x": 3}, {"x": ABSENT}, {"x": 1}]
    trace = run_ts(model, "chain.Chain", stim, 6)
    got = ["--" if v is ABSENT else v for v in out_column(trace, "y")]
    assert got == ["--", "--", 1, 2, 3, "--"]


def test_generic_rebinding_through_composition():
    arbiter = """package gw;

component Arbiter<T> {
    port in Boolean mode, in T in1, in T in2, out T res;
    automaton {
        state S;
        initial S;
        S mode = true / in1;
        S mode = false / in2;
    }
}
"""
    wrapper = """package gw;

component Wrapper<T> {
    port in Boolean mode, in T one, in T two, out T res;
    component Arbiter<T> a;
    connect mode -> a.mode;
    connect one -> a.in1;
    connect two -> a.in2;
    connect a.res -> res;
}
"""
    top = """package gw;

component Top {
    port in Boolean m, in Integer x, in Integer y, out Integer z;
    component Wrapper<Integer> w;
    connect m -> w.mode;
    connect x -> w.one;
    connect y -> w.two;
    connect w.res -> z;
}
"""
    from maa.parser import parse_component_file
    units = []
    for text in (arbiter, wrapper, top):
        unit = parse_component_file(text, "gw.maa")
        assert isinstance(unit, CompilationUnit), unit
        units.append(unit)
    model, diags = resolve(units, [])
    assert diags == [], [d.render() for d in diags]
    stim = [{"m": True, "x": 5, "y": 7}, {"m": False, "x": 5, "y": 7}]
    trace = run_ts(model, "gw.Top", stim, 3)
    got = ["--" if v is ABSENT else v for v in out_column(trace, "z")]
    # one atomic component in the path: input at t is visible at t + 1
    assert got == ["--", 5, 7]


def test_nested_composition_flattens():
    nested = """package chain;

component Nested {
    port in Integer x, out Integer y;
    component Chain c;
    connect x -> c.x;
    connect c.y -> y;
}
"""
    model = chain_model([nested])
    stim = [{"x": 1}, {"x": 2}, {"x": 3}, {"x": ABSENT}, {"x": 1}]
    trace = run_ts(model, "chain.Nested", stim, 6)
    got = ["--" if v is ABSENT else v for v in out_column(trace, "y")]
    # boundary pass-through adds no delay of its own
    assert got == ["--", "--", 1, 2, 3, "--"]
    assert set(trace.records[0].states) == {"c.s1", "c.s2"}


def test_component_without_an_automaton_never_fires():
    model = small_model("component C { port in Integer p, out Integer o; }")
    trace = run_ts(model, "C", [{"p": 1}], 2)
    assert out_column(trace, "o") == [ABSENT, ABSENT]
    assert [r.states[""].state for r in trace.records] == [None, None]
    assert [trace_key(t) for t in enumerate_ts(model, "C", [{"p": 1}], 2)] == [trace_key(trace)]
    ed = run_ed(model, "C", [Event("p", 1)])
    assert ed.initial_state is None and ed.steps[0].emissions == []


def units_model(*texts, types=()):
    """A model of one component per text, which resolution accepts."""
    from maa.parser import parse_types_file
    model, diags = resolve([parse_component_file(text, f"m{i}.maa")
                            for i, text in enumerate(texts)],
                           [parse_types_file(text, "t.types") for text in types])
    assert diags == [], [d.render() for d in diags]
    return model


PASS = "component P { port in Integer i, out Integer o; connect i -> o; }"
IDLE = "component E { port in Integer x; automaton { state S; initial S; } }"


@pytest.mark.parametrize("texts, states", [
    ((PASS,), {}),
    (("component P { port in Integer i, out Integer o; component E e; connect i -> o; }",
      IDLE), {"e": "S"}),
], ids=["connectors-only", "with-a-subcomponent"])
def test_connectors_forward_in_the_same_cycle(texts, states):
    # a component whose only structure is connectors is composed, not a
    # silent atomic one: its out-port reads its in-port with no delay
    model = units_model(*texts)
    trace = run_ts(model, "P", [{"i": 5}, {"i": 6}], 2)
    assert out_column(trace, "o") == [5, 6]
    assert [{path: cs.state for path, cs in r.states.items()} for r in trace.records] == [
        states, states]
    assert [trace_key(t) for t in enumerate_ts(model, "P", [{"i": 5}, {"i": 6}], 2)] == [
        trace_key(trace)]
    with pytest.raises(SetupError,
                       match="^event-driven simulation requires an atomic main component$"):
        run_ed(model, "P", [Event("i", 5)])


def test_an_unconnected_subcomponent_in_port_reads_absent():
    model = units_model(
        "component A { port in Integer i, out Integer o; automaton { state S; initial S;"
        " S i = -- / o = 0; S / o = 1; } }",
        "component Top { port in Integer i, out Integer o; component A a; connect a.o -> o; }")
    trace = run_ts(model, "Top", [{"i": 5}, {"i": 6}], 3)
    assert out_column(trace, "o") == [ABSENT, 0, 0]


# Models that resolution and the rules shared by every profile accept, and
# that no run can start: both time-synchronous entry points refuse them alike
UNSTARTABLE = {
    "several-automata": (
        ("component C { port in Integer p, out Integer o;"
         " automaton A { state S; initial S; } automaton B { state T; initial T; } }",), (),
        "C", "component 'C' has several automata; simulation needs at most one"),
    "connector-cycle": (
        (PASS, "component C { port out Integer o; component P p;"
               " connect p.o -> p.i; connect p.o -> o; }"), (),
        "C", "connector cycle through 'o'"),
    "empty-enum-default": (  # through a type argument: a direct one is resolution's R0
        ("package p; import t.*; component C { port in Integer p; component G<E> g; }",
         "package p; component G<T> { port in Integer p; T v;"
         " automaton { state S; initial S; } }"), ("package t; enum E { }",),
        "p.C", "enum 't.E' has no literals to default to"),
    "unsubstituted-type-parameter": (
        ("component C<T> { port in Integer p, out Integer o; T v;"
         " automaton { state S; initial S; } }",), (),
        "C", "cannot default a value of type T"),
}


@pytest.mark.parametrize("texts, types, main, message", UNSTARTABLE.values(),
                         ids=list(UNSTARTABLE))
def test_runs_that_cannot_start_are_refused(texts, types, main, message):
    model = units_model(*texts, types=types)
    for run in (run_ts, enumerate_ts):
        with pytest.raises(SetupError) as raised:
            run(model, main, [], 1)
        assert str(raised.value) == message


@pytest.mark.parametrize("run", [run_ts, enumerate_ts])
def test_a_run_needs_at_least_one_cycle(follow_model, run):
    with pytest.raises(SetupError, match="^a run needs at least one cycle$"):
        run(follow_model, "robot.FollowTheLeaderOnline", [], 0)


# ---------------------------------------------------------------------------
# enumerate_ts
# ---------------------------------------------------------------------------

def test_enumerate_deterministic_model_is_singleton(follow_model):
    traces = enumerate_ts(follow_model, "robot.FollowTheLeaderOnline",
                          FOLLOW_STIM, 8, bound=16)
    assert len(traces) == 1
    run = run_ts(follow_model, "robot.FollowTheLeaderOnline", FOLLOW_STIM, 8)
    assert trace_key(traces[0]) == trace_key(run)


def test_enumerate_alternative_choice_two_traces():
    # the choice fires in cycle 1 and becomes observable in cycle 2
    model = small_model(
        "component C { port in Integer p, out Integer x; automaton {"
        " state S, T; initial S; S -> T / x = 1 | 2; } }")
    traces = enumerate_ts(model, "C", [], 2, bound=8)
    assert len(traces) == 2
    cells = sorted(t.records[1].outputs["x"] for t in traces)
    assert cells == [1, 2]
    for t in traces:
        assert t.records[0].outputs["x"] is ABSENT


def test_enumerate_dual_enabled_bound():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S / o = 1; S / o = 2; } }")
    traces = enumerate_ts(model, "C", [], 3, bound=64)
    # two enabled loops over 3 cycles: at most 8 runs, deduplicated by trace
    assert 1 <= len(traces) <= 8
    runs = {tuple("--" if v is ABSENT else v for v in out_column(t, "o")) for t in traces}
    # outputs of cycle k reflect the choice of cycle k-1; cycle 1 observes the
    # (empty) initial output, so 2 choices remain visible in a 3-cycle window
    assert runs == {("--", a, b) for a in (1, 2) for b in (1, 2)}


def test_enumerate_bound_overflow():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S / o = 1 | 2; } }")
    with pytest.raises(EnumerationOverflow):
        enumerate_ts(model, "C", [], 6, bound=3)


def test_policy_runs_contained_in_enumeration():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S / o = 1 | 2; S / o = 3; } }")
    stim = [{"p": 1}] * 4
    keys = {trace_key(t) for t in enumerate_ts(model, "C", stim, 4, bound=512)}
    assert trace_key(run_ts(model, "C", stim, 4, FirstDeclared())) in keys
    for seed in range(10):
        assert trace_key(run_ts(model, "C", stim, 4, Seeded(seed))) in keys


def test_outputs_observed_one_cycle_after_their_cause(follow_model):
    trace = run_ts(follow_model, "robot.FollowTheLeaderOnline",
                   [{"inLane": True, "dist": ABSENT},
                    {"inLane": True, "dist": dist("TOO_FAR")},
                    {"inLane": True, "dist": ABSENT}], 3)
    observed = out_column(trace, "cmd")
    assert observed[0] == rmotor("SLOW_FORWARD")  # the initial output
    assert observed[1] is ABSENT  # cycle-1 inputs matched nothing
    assert observed[2] == rmotor("FAST_FORWARD")  # reaction to cycle 2


def test_enumerate_sorts_traces_differing_in_an_enum_variable():
    model = small_model(
        "package p; import p.types.*; component C { port out Integer o; Cmd v;"
        " automaton { state S; initial S / v = B | A; S / o = 1; } }",
        ["package p.types; enum Cmd { A, B }"])
    traces = enumerate_ts(model, "p.C", [], 2)
    assert [t.records[0].states[""].variables["v"].literal for t in traces] == ["A", "B"]


def test_enumerate_long_run_has_no_depth_limit():
    # one choice-free loop: the search goes 1500 cycles deep for one trace
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S / o = 1; } }")
    traces = enumerate_ts(model, "C", [], 1500, bound=1)
    assert len(traces) == 1
    assert len(traces[0].records) == 1500
    assert trace_key(traces[0]) == trace_key(run_ts(model, "C", [], 1500))


def test_enumerate_freezes_each_record_once(monkeypatch):
    # four enabled loops, two distinct outputs: equal successors are merged,
    # so 2 + 4 + 8 + 16 records are built for 8 distinct traces of 4 cycles
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state S; initial S; S / o = 1; S / o = 2; S / o = 1; S / o = 2; } }")
    counts = {"freeze": 0, "record": 0}
    freeze, record = engine.CycleRecord.freeze, engine._record

    def counting_freeze(self):
        counts["freeze"] += 1
        return freeze(self)

    def counting_record(*args):
        counts["record"] += 1
        return record(*args)

    monkeypatch.setattr(engine.CycleRecord, "freeze", counting_freeze)
    monkeypatch.setattr(engine, "_record", counting_record)
    traces = enumerate_ts(model, "C", [], 4, bound=64)
    assert counts["record"] == 2 + 4 + 8 + 16
    assert counts["freeze"] <= counts["record"]
    monkeypatch.undo()
    keys = [trace_key(t) for t in traces]
    assert len(keys) == 8 and keys == sorted(keys)


def test_enumerate_tells_variable_values_of_different_types_apart():
    # a variable of one type takes values of one type only: a model that
    # assigns it another is refused
    model = small_model(
        "component C { port out Integer o; Integer v; automaton {"
        " state S; initial S; S / {v = 1}; S / {v = true}; } }")
    with pytest.raises(SetupError, match="^m.maa:1:100 error T1: 'true' is no Integer$"):
        enumerate_ts(model, "C", [], 2)
    model = small_model(
        "component C { port out Integer o; Integer v; automaton {"
        ' state S; initial S; S / {v = 1}; S / {v = "a"}; } }')
    with pytest.raises(SetupError) as raised:
        enumerate_ts(model, "C", [], 2)
    assert str(raised.value) == "m.maa:1:100 error T1: '\"a\"' is no Integer"


def test_enumerate_tells_observed_values_of_different_enums_apart():
    # A.X and B.X are different messages, and an out-port of A cannot send B.X
    model = small_model(
        "package p; import p.types.*; component C { port in A a, in B b, out A o;"
        " automaton { state S; initial S; S / o = a | b; } }",
        ["package p.types; enum A { X } enum B { X }"])
    x_a, x_b = EnumValue("p.types.A", "X"), EnumValue("p.types.B", "X")
    with pytest.raises(SetupError, match="^m.maa:1:118 error T3: port 'b' is no p.types.A$"):
        enumerate_ts(model, "p.C", [{"a": x_a, "b": x_b}] * 2, 2)


def test_enumerate_merges_equal_successors_before_the_joint_product(monkeypatch):
    # 12 instances with 4 equal choices each: one distinct successor per
    # cycle, so one record per cycle instead of 4^12 children per node
    choice = ("component Choice { port out Integer o; automaton {"
              " state S; initial S;" + " S / {o = 1};" * 4 + " } }")
    many = ("component Many { port out Integer o;"
            + "".join(f" component Choice c{i};" for i in range(12))
            + " connect c0.o -> o; }")
    units = [parse_component_file(text, "m.maa") for text in (choice, many)]
    model, diags = resolve(units, [])
    assert diags == [], [d.render() for d in diags]
    calls = []
    record = engine._record

    def counting_record(*args):
        calls.append(args)
        return record(*args)

    monkeypatch.setattr(engine, "_record", counting_record)
    traces = enumerate_ts(model, "Many", [], 3)
    assert len(calls) == 3
    monkeypatch.undo()
    assert len(traces) == 1
    assert trace_key(traces[0]) == trace_key(run_ts(model, "Many", [], 3))


def test_enumerate_bound_must_be_positive(follow_model):
    with pytest.raises(SetupError, match="bound"):
        enumerate_ts(follow_model, "robot.FollowTheLeaderOnline", [], 1, bound=0)


def test_multiple_initial_states_policy_and_enumeration():
    model = small_model(
        "component C { port in Integer p, out Integer o; automaton {"
        " state A, B; initial A / o = 1; initial B / o = 2;"
        " A / o = 1; B / o = 2; } }")
    first = run_ts(model, "C", [], 1)
    assert first.records[0].outputs["o"] == 1
    assert first.records[0].states[""].state == "A"
    traces = enumerate_ts(model, "C", [], 1, bound=8)
    assert sorted(t.records[0].outputs["o"] for t in traces) == [1, 2]
