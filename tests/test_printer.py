"""Canonical printing: round-trip stability and normalization."""

from __future__ import annotations

import pytest

from maa.parser import parse_component_file
from maa.printer import pretty_print
from maa.syntax import CompilationUnit

from conftest import CORPUS, MODELS, parse_model


def reparse(text: str) -> CompilationUnit:
    result = parse_component_file(text, "<printed>")
    assert isinstance(result, CompilationUnit), result
    return result


def test_round_trip_over_corpus():
    for name, (paths, _profile, _types) in CORPUS.items():
        for path in paths:
            unit = parse_model(path)
            printed = pretty_print(unit)
            again = reparse(printed)
            assert again == unit, f"round trip failed for {path}"
            # printing is a fixed point after one normalization
            assert pretty_print(again) == printed


def test_explicit_target_written():
    unit = parse_model(MODELS / "reference" / "IntegerBuffer3.maa")
    printed = pretty_print(unit)
    assert "S -> S" in printed


def test_optional_braces_written():
    unit = reparse("component C { port in Boolean p; automaton { state S; initial S; S true / --; } }")
    printed = pretty_print(unit)
    assert "{true}" in printed
    assert "/ {--}" in printed


def test_unnamed_match_printed_without_name():
    unit = parse_model(MODELS / "reference" / "IntegerBuffer3.maa")
    printed = pretty_print(unit)
    # the 'true' match has no target in the source and stays bare
    assert "{true}" in printed
    assert "= true" not in printed


def test_stereotype_canonical_form():
    unit = reparse("component C { automaton { state «error» T; initial T; } }")
    printed = pretty_print(unit)
    assert "<<error>> T" in printed
    assert "«" not in printed


def test_guard_kind_preserved():
    unit = parse_model(MODELS / "reference" / "SmallNumbersBuffer.maa")
    printed = pretty_print(unit)
    assert "[java: input > 9]" in printed
    assert "[input <= 9]" in printed


def test_expression_parenthesization_round_trips():
    text = ("component C { port in Integer a, in Integer b, in Boolean c; automaton {"
            " state S; initial S;"
            " S [ (a + b) * a - b <= 9 && !(c || a == b) ]; } }")
    unit = reparse(text)
    assert reparse(pretty_print(unit)) == unit


@pytest.mark.parametrize("guard, printed", [
    ("- -a > 0", "[-(-a) > 0]"),
    ("-(-1) < a", "[-(-1) < a]"),
    ("-(1) < a", "[-(1) < a]"),
    ("-a < -1", "[-a < -1]"),
])
def test_unary_minus_round_trips(guard, printed):
    # "--" lexes as absence and "-1" as a negative literal, so an operand of
    # unary minus that prints starting with "-" or a digit is parenthesised
    unit = reparse("component C { port in Integer a; automaton {"
                   f" state S; initial S; S [{guard}]; }} }}")
    text = pretty_print(unit)
    assert printed in text
    assert reparse(text) == unit
