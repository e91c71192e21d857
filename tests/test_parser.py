"""Parser behavior: corpus structure, error reporting, order freedom."""

from __future__ import annotations

import json

import pytest

from maa.checks import check
from maa.engine import ABSENT, run_ts
from maa.ir import export_ir
import maa.parser
from maa.lexer import tokenize
from maa.parser import BATCH, MAX_NESTING, parse_component_file, parse_types_file
from maa.printer import pretty_print
from maa.resolution import resolve
from maa.syntax import (
    CompilationUnit,
    ELit,
    NoData,
    SequenceValue,
    TypeDeclUnit,
)

from conftest import CORPUS, MODELS, out_column, parse_model, workloads


def test_whole_corpus_parses_without_syn():
    for name, (paths, _profile, _types) in CORPUS.items():
        for path in paths:
            parse_model(path)  # asserts on failure


def test_bump_control_structure():
    unit = parse_model(MODELS / "bumperbot" / "BumpControl.maa")
    assert unit.package == "bumperbot"
    assert [i.name for i in unit.imports] == ["bumperbot.types.*"]
    comp = unit.component
    assert comp.name == "BumpControl"
    assert len(comp.ports) == 5
    assert [p.direction for p in comp.ports].count("in") == 2
    assert [p.direction for p in comp.ports].count("out") == 3
    assert len(comp.automata) == 1
    auto = comp.automata[0]
    assert auto.name is None
    assert [s.name for s in auto.states] == ["Idle", "Driving", "Backing", "Rotating"]
    assert len(auto.initials) == 1
    assert auto.initials[0].state == "Idle"
    assert len(auto.transitions) == 4


def test_state_stereotype_parsed():
    unit = parse_model(MODELS / "reference" / "IntegerBuffer4.maa")
    states = unit.component.automata[0].states
    assert [s.name for s in states] == ["S", "T"]
    assert states[1].stereotypes == ["error"]
    assert states[0].stereotypes == []


def test_automaton_stereotype_parsed():
    text = ("component C { <<timed>> automaton Machine {"
            " state S; initial S; } }")
    unit = parse_component_file(text, "a")
    assert isinstance(unit, CompilationUnit)
    auto = unit.component.automata[0]
    assert auto.stereotypes == ["timed"]
    assert auto.name == "Machine"


def test_guillemet_stereotype_equivalent():
    a = parse_component_file("component C { automaton { state <<error>> T; initial T; } }", "a")
    b = parse_component_file("component C { automaton { state «error» T; initial T; } }", "b")
    assert isinstance(a, CompilationUnit) and isinstance(b, CompilationUnit)
    assert a == b


def test_guard_kinds():
    unit = parse_model(MODELS / "reference" / "SmallNumbersBuffer.maa")
    transitions = unit.component.automata[0].transitions
    assert transitions[0].guard.kind is None
    assert transitions[1].guard.kind == "java"
    text = "component C { automaton { state S; initial S; S [ocl: x > 1]; } }"
    unit2 = parse_component_file(text, "g")
    assert isinstance(unit2, CompilationUnit)
    assert unit2.component.automata[0].transitions[0].guard.kind == "ocl"


def test_omitted_target_is_source():
    unit = parse_model(MODELS / "robot" / "FollowTheLeaderOnline.maa")
    transitions = unit.component.automata[0].transitions
    assert (transitions[0].source, transitions[0].target) == ("Following", "Following")
    assert (transitions[2].source, transitions[2].target) == ("Following", "Finding")


def test_value_shapes():
    text = """component C {
        port in Integer p, out Integer q;
        Integer v = -1;
        automaton {
            state S; initial S;
            S p = 0 | 1 | -- / q = [2, 3] | -4 | --;
        }
    }"""
    unit = parse_component_file(text, "v")
    assert isinstance(unit, CompilationUnit)
    assert unit.component.variables[0].initial == ELit(-1, None)
    trans = unit.component.automata[0].transitions[0]
    assert trans.input[0].alternatives == [ELit(0, None), ELit(1, None), NoData(None)]
    seq, neg, nodata = trans.output[0].alternatives
    assert seq == SequenceValue([ELit(2, None), ELit(3, None)], None)
    assert neg == ELit(-4, None)
    assert isinstance(nodata, NoData)


def test_literals_of_different_types_differ():
    def guard_and_value(lit):
        unit = parse_component_file(
            "component C { port in Integer p, out Integer q; automaton {"
            f" state S; initial S; S [p == {lit}] / q = {lit}; }} }}", "l")
        assert isinstance(unit, CompilationUnit), unit
        trans = unit.component.automata[0].transitions[0]
        return trans.guard.expr, trans.output[0].alternatives[0]

    assert guard_and_value("1") == guard_and_value("1")
    assert guard_and_value("1")[0] != guard_and_value("true")[0]
    assert guard_and_value("0")[0] != guard_and_value("false")[0]
    assert guard_and_value("1")[1] != guard_and_value("true")[1]
    assert ELit(1, None) != ELit(True, None)
    assert ELit(0, None) != ELit(False, None)


def test_string_escapes():
    unit = parse_component_file(
        r'component C { String s = "a\"b\\c"; }', "s")
    assert isinstance(unit, CompilationUnit)
    assert unit.component.variables[0].initial == ELit('a"b\\c', None)


def test_unclosed_brace_reports_syn_at_end():
    result = parse_component_file("component X {", "x.maa")
    assert isinstance(result, list) and len(result) == 1
    diag = result[0]
    assert diag.code == "SYN"
    assert diag.loc.line == 1


def test_two_top_level_components_rejected():
    result = parse_component_file("component A { }\ncomponent B { }", "two.maa")
    assert isinstance(result, list)
    assert result[0].code == "SYN"
    assert result[0].loc.line == 2
    assert "one top-level component" in result[0].message


def test_syntax_error_location():
    result = parse_component_file("component C {\n  port in Integer ,;\n}", "loc.maa")
    assert isinstance(result, list)
    assert (result[0].loc.line, result[0].code) == (2, "SYN")


def test_a_lexical_error_is_reported_before_an_earlier_syntax_error():
    # A syntax error makes the parser lex the rest of the file, so the stray
    # character on line 3 is the one finding, not the misplaced 'port' on line 2.
    text = "component A {\n  port in Integer i port;\n  x = 1²;\n}"
    assert [d.render() for d in parse_component_file(text, "a.maa")] == [
        "a.maa:3:8 error SYN: unexpected character '²'"]


@pytest.mark.parametrize("parse, head", [
    (parse_component_file, "component A {\n  port in Integer i port;\n"),
    (parse_types_file, "package t;\nenum E { A B }\n"),
], ids=["model", "types"])
def test_a_lexical_error_batches_after_a_syntax_error_is_still_reported(parse, head):
    # The parser stops on line 2, more than three batches of tokens before the '²'.
    text = head + "  x = 1;\n" * 201 + "  x = 1²;\n}"
    assert len(tokenize(text[:text.index("²")], "a.maa")) > 3 * BATCH
    assert [d.render() for d in parse(text, "a.maa")] == [
        "a.maa:204:8 error SYN: unexpected character '²'"]


def test_the_parser_reads_the_file_in_batches_that_add_up_to_its_tokens(monkeypatch):
    w = workloads.generate("wide_automaton", 1, "smoke")
    [(name, text)] = w.models.items()
    lengths = []

    def counted(*args):
        tokens = tokenize(*args)
        lengths.append(len(tokens))
        return tokens

    monkeypatch.setattr(maa.parser, "tokenize", counted)
    assert isinstance(parse_component_file(text, name), CompilationUnit)
    monkeypatch.undo()
    assert len(lengths) > 3 and max(lengths) == BATCH
    assert sum(lengths) == len(tokenize(text, name))


@pytest.mark.parametrize("text, found", [
    ("component C { port", "'end of input'"),
    ("component C { port Integer p; }", "'Integer'"),
], ids=["end-of-input", "type-name"])
def test_port_without_direction_names_what_was_found(text, found):
    [diag] = parse_component_file(text, "p.maa")
    assert diag.message == f"expected 'in' or 'out', found {found}"


@pytest.mark.parametrize("parse, text, expected", [
    pytest.param(parse_types_file, "package t; enum E { A } component",
                 "t:1:25 error SYN: unexpected 'component' in type declarations",
                 id="types-trailing-component"),
    pytest.param(parse_component_file, "component C { component D { } }",
                 "t:1:27 error SYN: nested component definitions are not supported; "
                 "declare a subcomponent instance instead", id="nested-component"),
    pytest.param(parse_component_file,
                 "component C { port in Integer a; automaton { state S; initial S; "
                 "S [pre: a > 0]; } }",
                 "t:1:69 error SYN: unsupported guard kind 'pre'", id="guard-kind"),
])
def test_syntax_error_messages(parse, text, expected):
    assert [d.render() for d in parse(text, "t")] == [expected]


def _guarded(guard: str) -> str:
    return ("component C { port in Integer a, out Integer o; automaton {"
            f" state S; initial S; S [{guard}] / o = 1; }} }}")


def test_nesting_beyond_limit_is_syn_at_offending_token():
    for opener in ("(", "!"):
        guard = opener * (MAX_NESTING + 1) + "a > 0" + ")" * (MAX_NESTING + 1) * (opener == "(")
        text = _guarded(guard)
        result = parse_component_file(text, "deep.maa")
        assert isinstance(result, list) and [d.code for d in result] == ["SYN"]
        # reported at the opener one past the limit
        assert result[0].loc.column == text.index("[") + 2 + MAX_NESTING
        assert f"nested more than {MAX_NESTING} levels deep" in result[0].message


def test_guard_at_nesting_limit_runs_end_to_end():
    # MAX_NESTING - 1 negations and one pair of parentheses: an odd number of
    # negations, so the guard holds exactly when a <= 0
    unit = parse_component_file(_guarded("!" * (MAX_NESTING - 1) + "(a > 0)"), "limit.maa")
    assert isinstance(unit, CompilationUnit), unit
    model, diags = resolve([unit], [])
    assert diags == [] and check(model, "ts") == []
    assert json.loads(export_ir(model))["components"][0]["name"] == "C"
    trace = run_ts(model, "C", [{"a": 1}, {"a": -1}, {"a": 0}], 4)
    assert out_column(trace, "o") == [ABSENT, ABSENT, 1, 1]


def _nth(text: str, sub: str, n: int) -> int:
    """Offset of the ``n``-th occurrence of ``sub`` in ``text``, counted from 1."""
    at = -1
    for _ in range(n):
        at = text.index(sub, at + 1)
    return at


def test_binary_chain_beyond_limit_is_syn_at_offending_operator():
    # 2999 left-associative '+': reported at the one that makes the
    # longest root-to-leaf path MAX_NESTING + 1 operators long
    text = _guarded("a" + " + a" * 2999 + " > 0")
    result = parse_component_file(text, "chain.maa")
    assert isinstance(result, list) and [d.code for d in result] == ["SYN"]
    assert result[0].loc.column == _nth(text, "+", MAX_NESTING + 1) + 1
    assert f"nested more than {MAX_NESTING} levels deep" in result[0].message


def test_binary_depth_counts_parenthesised_left_operand():
    # each chain alone is within the limit; the path through both is not
    inner, outer = 40, 30
    text = _guarded("(" + "a" + " + a" * inner + ")" + " + a" * outer + " > 0")
    result = parse_component_file(text, "paren.maa")
    assert isinstance(result, list) and [d.code for d in result] == ["SYN"]
    assert result[0].loc.column == _nth(text, "+", MAX_NESTING + 1) + 1


def test_binary_chain_at_limit_runs_end_to_end():
    # MAX_NESTING - 1 '+' and one '>': the guard holds exactly when a > 0
    text = _guarded("a" + " + a" * (MAX_NESTING - 1) + " > 0")
    unit = parse_component_file(text, "chain.maa")
    assert isinstance(unit, CompilationUnit), unit
    model, diags = resolve([unit], [])
    assert diags == [] and check(model, "ts") == []
    assert json.loads(export_ir(model))["components"][0]["name"] == "C"
    trace = run_ts(model, "C", [{"a": 1}, {"a": -1}, {"a": 0}], 4)
    assert out_column(trace, "o") == [ABSENT, 1, ABSENT, ABSENT]
    assert parse_component_file(pretty_print(unit), "printed.maa") == unit


def test_automaton_statement_order_free():
    base = """component C {
        port in Boolean p;
        automaton {
            state A, B;
            initial A;
            A -> B true;
            B -> A false;
        }
    }"""
    shuffled = """component C {
        port in Boolean p;
        automaton {
            A -> B true;
            initial A;
            state A, B;
            B -> A false;
        }
    }"""
    u1 = parse_component_file(base, "a")
    u2 = parse_component_file(shuffled, "b")
    assert isinstance(u1, CompilationUnit) and isinstance(u2, CompilationUnit)
    a1, a2 = u1.component.automata[0], u2.component.automata[0]
    assert a1.states == a2.states
    assert a1.initials == a2.initials
    assert a1.transitions == a2.transitions


def test_types_file_round():
    text = ("package bumperbot.types; "
            "enum MotorCmd { FORWARD, BACKWARD, STOP } "
            "enum TimerCmd { SINGLE_DELAY, DOUBLE_DELAY }")
    unit = parse_types_file(text, "t.types")
    assert isinstance(unit, TypeDeclUnit)
    assert [e.name for e in unit.enums] == ["MotorCmd", "TimerCmd"]
    assert unit.enums[0].literals == ["FORWARD", "BACKWARD", "STOP"]


def test_types_empty_enum_accepted():
    unit = parse_types_file("package p; enum E { }", "t")
    assert isinstance(unit, TypeDeclUnit)
    assert unit.enums[0].literals == []


def test_types_duplicate_literal_rejected():
    result = parse_types_file("package p; enum E { A, A }", "t")
    assert isinstance(result, list) and len(result) == 1
    assert result[0].code == "SYN"


def test_types_duplicate_enum_rejected():
    result = parse_types_file("package p; enum E { A } enum E { B }", "t")
    assert isinstance(result, list)
    assert result[0].code == "SYN"


def test_comments_both_styles():
    text = """// leading comment
    component C { /* block
    spanning lines */ port in Integer p; // trailing
    }"""
    unit = parse_component_file(text, "c")
    assert isinstance(unit, CompilationUnit)


def test_subcomponents_and_connectors():
    unit = parse_model(MODELS / "pipeline" / "Pipeline.maa")
    comp = unit.component
    assert [s.instance for s in comp.subcomponents] == ["src", "arb", "snk"]
    assert comp.subcomponents[1].type_args == ["Integer"]
    assert len(comp.connectors) == 5
    first = comp.connectors[0]
    assert (first.source.instance, first.source.port) == (None, "mode")
    assert (first.target.instance, first.target.port) == ("arb", "mode")
