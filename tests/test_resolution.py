"""Symbol resolution, typing, target inference, and generic substitution."""

from __future__ import annotations

import pytest

import maa.resolution
from maa.checks import check
from maa.diagnostics import sort_diagnostics
from maa.engine import lower
from maa.parser import parse_component_file, parse_types_file
from maa.resolution import (
    BOOLEAN,
    EnumType,
    INTEGER,
    NODATA_TYPE,
    ParamType,
    SeqType,
    infer_block_target,
    resolve,
    substitute_type,
    type_of,
)
from maa.syntax import (
    CompilationUnit,
    ELit,
    ERef,
    NoData,
    SequenceValue,
)

from conftest import MODELS, parse_model, trace_key


def test_empty_model_resolves_clean():
    model, diags = resolve([], [])
    assert diags == []
    assert model.components == {} and model.enums == {}


def test_bump_control_port_types(bump_model):
    rc = bump_model.components["bumperbot.BumpControl"]
    assert rc.binding("left") == ("out", EnumType("bumperbot.types.MotorCmd"))
    assert rc.binding("cmd") == ("out", EnumType("bumperbot.types.TimerCmd"))
    assert rc.binding("distance") == ("in", INTEGER)
    assert rc.binding("signal") == ("in", BOOLEAN)


def test_enum_literal_typing(bump_model):
    rc = bump_model.components["bumperbot.BumpControl"]
    term = ERef("FORWARD", None)
    assert type_of(term, rc) == EnumType("bumperbot.types.MotorCmd")


def test_sequence_typing(bump_model):
    rc = bump_model.components["bumperbot.BumpControl"]
    seq = SequenceValue([ELit(3, None), ELit(14, None)], None)
    assert type_of(seq, rc) == SeqType(INTEGER)
    empty = SequenceValue([], None)
    assert type_of(empty, rc) == SeqType(None)
    assert type_of(NoData(None), rc) is NODATA_TYPE


def test_heterogeneous_sequence_untypable():
    unit = parse_model(MODELS / "reference" / "IntegerDuplicator.maa")
    model, diags = resolve([unit], [])
    assert diags == []
    rc = model.components["IntegerDuplicator"]
    mixed = SequenceValue([ELit("input is:", None), ERef("speak", None)], None)
    assert type_of(mixed, rc) is None


def test_unresolved_import_reports_r0():
    text = "package a;\nimport missing.pkg.*;\ncomponent C { }"
    unit = parse_component_file(text, "c.maa")
    assert isinstance(unit, CompilationUnit)
    _model, diags = resolve([unit], [])
    assert [d.code for d in diags] == ["R0"]
    assert diags[0].loc.line == 2


def test_unresolved_port_type_reports_r0():
    unit = parse_component_file("component C { port in Mystery p; }", "c.maa")
    _model, diags = resolve([unit], [])
    assert [d.code for d in diags] == ["R0"]


def test_infer_target_boolean_to_signal(bump_model):
    rc = bump_model.components["bumperbot.BumpControl"]
    candidates = {p: rc.binding(p) for p in rc.in_ports}
    result = infer_block_target([ELit(True, None)], candidates, rc)
    assert (result.status, result.name) == ("ok", "signal")


def test_infer_target_ambiguous_integer():
    unit = parse_model(MODELS / "reference" / "ZeroBuffer.maa")
    model, _ = resolve([unit], [])
    rc = model.components["ZeroBuffer"]
    candidates = {"input": ("in", INTEGER), "buffer": ("var", INTEGER)}
    result = infer_block_target([ELit(1, None)], candidates, rc)
    assert result.status == "ambiguous"
    assert set(result.candidates) == {"input", "buffer"}


def test_infer_target_no_match(bump_model):
    rc = bump_model.components["bumperbot.BumpControl"]
    result = infer_block_target([ELit("x", None)], {"distance": ("in", INTEGER)}, rc)
    assert result.status == "none"


def test_sequence_infers_output_port():
    unit = parse_model(MODELS / "reference" / "Echo1.maa")
    model, _ = resolve([unit], [])
    rc = model.components["Echo1"]
    trans = rc.ast.automata[0].transitions[0]
    assert rc.target(trans.output[0]).name == "output"


def test_nodata_infers_only_ports():
    unit = parse_model(MODELS / "reference" / "IntegerDuplicator.maa")
    model, _ = resolve([unit], [])
    rc = model.components["IntegerDuplicator"]
    first = rc.ast.automata[0].transitions[0]
    assert rc.target(first.output[0]).name == "output"


def test_match_inference_in_corpus(bump_model):
    rc = bump_model.components["bumperbot.BumpControl"]
    transitions = rc.ast.automata[0].transitions
    # {true} on the Backing -> Rotating transition reads port signal
    assert rc.target(transitions[2].input[0]).name == "signal"
    # SINGLE_DELAY goes to the only TimerCmd out-port
    assert rc.target(transitions[2].output[1]).name == "cmd"


def test_generic_instantiation_in_pipeline(pipeline_model):
    rc = pipeline_model.components["pipeline.Pipeline"]
    sub = rc.subcomponents["arb"]
    assert sub.target_qname == "pipeline.Arbiter"
    arbiter = pipeline_model.components[sub.target_qname]
    bindings = dict(zip(arbiter.ast.generic_params, sub.arg_types))

    def port_type(port):
        return substitute_type(arbiter.binding(port)[1], bindings)

    assert port_type("in1") == INTEGER
    assert port_type("res") == INTEGER
    assert port_type("mode") == BOOLEAN


def test_param_type_resolution(arbiter_model):
    rc = arbiter_model.components["Arbiter"]
    assert rc.binding("in1") == ("in", ParamType("T"))


def test_connector_type_mismatch_r0():
    producer = parse_component_file(
        "package p; component A { port out Boolean x; automaton { state S; initial S; } }", "a")
    consumer = parse_component_file(
        "package p; component B { port in Integer y; automaton { state S; initial S; } }", "b")
    top = parse_component_file(
        "package p; component Top { port in Integer unused; "
        "component A a; component B b; connect a.x -> b.y; }", "t")
    model, diags = resolve([producer, consumer, top], [])
    assert any(d.code == "R0" and "type mismatch" in d.message for d in diags)


def test_connector_direction_r0():
    top = parse_component_file(
        "package p; component Top { port in Integer i, out Integer o; "
        "connect o -> i; }", "t")
    _model, diags = resolve([top], [])
    codes = [d.code for d in diags]
    assert codes.count("R0") >= 1


def test_mixed_behavior_and_composition_r0():
    text = ("package p; component A { port in Integer x; automaton { state S; initial S; } }")
    inner = parse_component_file(text, "a")
    mixed = parse_component_file(
        "package p; component M { component A sub; automaton { state S; initial S; } }", "m")
    _model, diags = resolve([inner, mixed], [])
    assert any(d.code == "R0" and "mixes" in d.message for d in diags)


def test_resolution_is_deterministic_across_runs():
    # resolving the same units twice yields byte-identical exports
    from maa.ir import export_ir
    paths = [MODELS / "bumperbot" / "BumpControl.maa"]
    tpaths = [MODELS / "bumperbot" / "types" / "commands.types"]
    from conftest import load_model
    first = export_ir(load_model(paths, tpaths))
    second = export_ir(load_model(paths, tpaths))
    assert first == second


def test_ambiguous_enum_literal_reported():
    t1 = parse_types_file("package p1; enum E1 { GO }", "t1")
    t2 = parse_types_file("package p2; enum E2 { GO }", "t2")
    unit = parse_component_file(
        "package q;\nimport p1.*;\nimport p2.*;\n"
        "component C { port out E1 x; automaton { state S; initial S; S / x = GO; } }", "c")
    from maa.checks import check
    model, rdiags = resolve([unit], [t1, t2])
    diags = rdiags + check(model, "generic")
    assert any(d.code == "R0" and "ambiguous" in d.message for d in diags)


def test_one_unit_resolved_into_two_models():
    # Resolution only reads the parsed tree: resolving the same unit without
    # its types file leaves the first model's diagnostics and trace unchanged.
    from maa.checks import check
    from maa.engine import ABSENT, run_ts
    from conftest import parse_types
    unit = parse_model(MODELS / "robot" / "FollowTheLeaderOnline.maa")
    types = parse_types(MODELS / "robot" / "enums.types")
    m1, diags = resolve([unit], [types])
    assert diags == []
    stimulus = [{"inLane": True, "dist": ABSENT}] * 3

    def observed():
        trace = run_ts(m1, "robot.FollowTheLeaderOnline", stimulus, 3)
        return [d.render() for d in check(m1, "ts")], trace_key(trace)

    before = observed()
    m2, diags2 = resolve([unit], [])
    second = [d.render() for d in check(m2, "ts")]
    assert diags2 and second
    assert observed() == before
    assert before[0] == []
    # each model keeps its own check results, whichever is asked first
    assert [d.render() for d in check(m2, "ts")] == second
    assert m2.diagnostics == diags2 and m1.diagnostics == []


@pytest.mark.parametrize("run", [
    lambda model: lower(model.components["C"]),
    lambda model: check(model, "ed"),
], ids=["lower", "check-ed"])
def test_unnamed_entry_target_inferred_once(monkeypatch, run):
    calls = []
    infer = maa.resolution.infer_block_target

    def counting(*args):
        calls.append(args)
        return infer(*args)

    monkeypatch.setattr(maa.resolution, "infer_block_target", counting)
    unit = parse_component_file(
        "component C { port in Boolean b, out Integer o; automaton {"
        " state S; initial S; S {true} / o = 1; } }", "c.maa")
    model, diags = resolve([unit], [])
    assert diags == [] and calls == []
    run(model)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# R0: every structural message resolution renders
# ---------------------------------------------------------------------------

_LEAF = ("component Leaf { port in Integer i, out Integer o; "
         "automaton { state S; initial S; } }")
_LIB = {"lib.maa": "package lib; " + _LEAF}
_TYPES = {"t.types": "package t; enum Color { RED, GREEN }"}


def _top(body: str, header: str = "") -> dict[str, str]:
    return {"top.maa": f"package a; {header} component Top {{ {body} }}"}


@pytest.mark.parametrize("files, expected", [
    pytest.param(_top("", "import b.Missing;"),
                 ["top.maa:1:12 error R0: unresolved import 'b.Missing'"], id="import-single"),
    pytest.param(_top("", "import b.*;"),
                 ["top.maa:1:12 error R0: unresolved import 'b.*'"], id="import-star"),
    pytest.param(_TYPES | _top("port in Color c;", "import t.Color;"), [], id="enum-imported"),
    pytest.param(_TYPES | _top("port in Color c;"),
                 ["top.maa:1:43 error R0: unresolved port type 'Color'"], id="enum-not-imported"),
    pytest.param(_LIB | _top("component Leaf l;", "import lib.Leaf;"), [],
                 id="component-imported"),
    pytest.param(_LIB | _top("component Leaf l;"),
                 ["top.maa:1:29 error R0: unresolved component type 'Leaf'"],
                 id="component-not-imported"),
    pytest.param({"p1.maa": "package p1; " + _LEAF, "p2.maa": "package p2; " + _LEAF}
                 | _top("component Leaf l;", "import p1.*; import p2.*;"),
                 ["top.maa:1:54 error R0: ambiguous component type 'Leaf'"],
                 id="component-ambiguous"),
    pytest.param(_top("component Nowhere n;"),
                 ["top.maa:1:29 error R0: unresolved component type 'Nowhere'"],
                 id="component-unresolved"),
    pytest.param(_LIB | _top("port out Integer o; component lib.Leaf l; connect x -> l.i;"),
                 ["top.maa:1:79 error R0: unknown port 'x'"], id="unknown-port"),
    pytest.param(_LIB | _top("port out Integer o; component lib.Leaf l; connect q.o -> o;"),
                 ["top.maa:1:79 error R0: unknown subcomponent 'q'"], id="unknown-subcomponent"),
    pytest.param(_LIB | _top("port out Integer o; component lib.Leaf l; connect l.p -> o;"),
                 ["top.maa:1:79 error R0: subcomponent 'l' has no port 'p'"], id="no-such-port"),
    pytest.param(_top("port in Integer i, out Integer o; connect o -> i;"), [
        "top.maa:1:71 error R0: own port 'o' is 'out' and cannot be a connector source",
        "top.maa:1:76 error R0: own port 'i' is 'in' and cannot be a connector target",
    ], id="own-direction"),
    pytest.param(_LIB | _top("port in Integer i, out Integer o; component lib.Leaf l; "
                             "connect l.i -> l.o;"), [
        "top.maa:1:93 error R0: port 'l.i' is 'in' and cannot be a connector source",
        "top.maa:1:100 error R0: port 'l.o' is 'out' and cannot be a connector target",
    ], id="sub-direction"),
    pytest.param({"arb.maa": (MODELS / "pipeline" / "Arbiter.maa").read_text(encoding="utf-8")}
                 | {"top.maa": "package pipeline; component Top { port out Boolean b; "
                               "component Arbiter<Integer> arb; connect arb.res -> b; }"},
                 ["top.maa:1:87 error R0: connector type mismatch: Integer -> Boolean"],
                 id="generic-mismatch"),
])
def test_r0_messages(files, expected):
    units = [parse_component_file(text, name) for name, text in files.items()
             if name.endswith(".maa")]
    types = [parse_types_file(text, name) for name, text in files.items()
             if name.endswith(".types")]
    _model, diags = resolve(units, types)
    assert [d.render() for d in sort_diagnostics(diags)] == expected


# ---------------------------------------------------------------------------
# a name declared twice (U3) denotes its first declaration, ports first
# ---------------------------------------------------------------------------

def test_in_and_out_port_of_one_name_is_the_in_port():
    unit = parse_component_file(
        "component C {\n"
        "  port in Integer x, out Boolean x, out Integer o;\n"
        "  automaton {\n"
        "    state S;\n"
        "    initial S;\n"
        "    S / x = true;\n"
        "    S [x > 0] / o = x;\n"
        "  }\n"
        "}\n", "c.maa")
    model, diags = resolve([unit], [])
    assert model.components["C"].binding("x") == ("in", INTEGER)
    assert [d.render() for d in sort_diagnostics(diags + check(model, "generic"))] == [
        "c.maa:2:34 error U3: the name 'x' is already used by a port or variable",
        "c.maa:6:9 error T6: cannot send to input port 'x'",
    ]


def test_port_shadows_variable_in_checker_and_engine():
    from maa.engine import SetupError, run_ts
    unit = parse_component_file(
        "component C {\n"
        "  port in Integer x, out Integer o;\n"
        "  Integer x = 3;\n"
        "  automaton { state S; initial S; S / x = 1, o = x; }\n"
        "}\n", "c.maa")
    model, diags = resolve([unit], [])
    assert [d.render() for d in diags + check(model, "ts")] == [
        "c.maa:3:11 error U3: the name 'x' is already used by a port or variable",
        "c.maa:4:39 error T6: cannot send to input port 'x'",
    ]
    # the engine refuses the model with the checker's first error
    with pytest.raises(SetupError) as raised:
        run_ts(model, "C", [{"x": 5}], 3)
    assert str(raised.value) == (
        "c.maa:3:11 error U3: the name 'x' is already used by a port or variable")
