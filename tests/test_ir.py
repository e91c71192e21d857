"""The one-pass IR emitter against the reference export of ``ir_reference``.

``maa.ir.export_ir`` writes the document's fixed shape directly;
``ir_reference.reference_ir`` builds a dict tree and hands it to
``json.dumps(sort_keys=True, indent=2)``.  Every case asserts equal text: on
the example corpus, on each benchmark workload at smoke size, on generated
models (checked, event-driven and unchecked), and on a hand-written model
that reaches every field, escape and ``null``/``[]`` spelling.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maa.ir import export_ir
from maa.parser import parse_component_file, parse_types_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit

from conftest import MODELS, load_model, workloads
from genmodels import (
    TYPES,
    random_component_text,
    random_ed_component_text,
    random_unchecked_component_text,
    random_unchecked_ed_component_text,
)
from ir_reference import reference_ir

_EMITTER = '''package p;

import q.Mode;

component Émetteur<T> {
  port
    in T é_x٣,
    in String s,
    in Mode m,
    out String t,
    out Integer n;
  Integer v = -1;
  <<timed>> automaton {
    state <<start>> S, <<x>> <<y>> T;
    initial S / {t = "q\\"b\\\\c\td😀"};
    S -> T [ocl: v < 0 && s == "é"] {s = "x" | --, m = ON} / {n = -2 | --, v = 3};
    T [java: !(v == -(-1))] {"y"} / {"z", [1, -2]};
    T;
  }
}
'''
_PIPE = '''package p;

component Pipe {
  port in Integer a, out String r;
  component Émetteur<Integer> e;
  component Émetteur<Integer> f;
  connect a -> e.é_x٣;
  connect e.t -> r;
  automaton named {
    state S;
    initial S;
  }
}
'''
_MODE = "package q;\nenum Mode { ON, OFF }\n"


def _model(*texts: str, types: str = ""):
    units = [parse_component_file(text, f"m{i}.maa") for i, text in enumerate(texts)]
    assert all(isinstance(u, CompilationUnit) for u in units), units
    tunits = [parse_types_file(types, "t.types")] if types else []
    return resolve(units, tunits)[0]


@pytest.mark.parametrize("directory", sorted(p.name for p in MODELS.iterdir() if p.is_dir()))
def test_emitter_equals_the_reference_on_the_corpus(directory):
    root = MODELS / directory
    model = load_model(sorted(root.rglob("*.maa")), sorted(root.rglob("*.types")))
    assert export_ir(model) == reference_ir(model)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_emitter_equals_the_reference_on_the_workloads(name):
    w = workloads.generate(name, 1, "smoke")
    model = _model(*w.models.values(), types="".join(w.types.values()))
    assert model.components
    assert export_ir(model) == reference_ir(model)


_GENERATORS = [
    random_component_text,
    random_ed_component_text,
    random_unchecked_component_text,
    random_unchecked_ed_component_text,
]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_GENERATORS))
def test_emitter_equals_the_reference_on_generated_models(seed, generate):
    model = _model(generate(random.Random(seed)), types=TYPES)
    assert export_ir(model) == reference_ir(model)


def test_emitter_writes_every_field_escape_and_absence_as_the_reference():
    model = _model(_EMITTER, _PIPE, types=_MODE)
    text = export_ir(model)
    assert text == reference_ir(model)
    assert text.isascii() and text.endswith("}\n") and not text.endswith("\n\n")
    for written in ('"name": "\\u00e9_x\\u0663"',           # non-ASCII names
                    '"\\"q\\\\\\"b\\\\\\\\c\\td\\ud83d\\ude00\\""',  # a String literal
                    '"name": null',                          # an unnamed automaton
                    '"target": null',                        # an unnamed entry
                    '"kind": "ocl"', '"kind": "java"',
                    '"[1, -2]"', '"--"', '"initial": "-1"',
                    '"typeArgs": [\n            "Integer"\n          ]',
                    '"genericParams": [\n        "T"\n      ]',
                    '"source": "e.t"', '"target": "r"',
                    '"inputs": null', '"guard": null', '"output": null',
                    '"stereotypes": []', '"variables": []', '"connectors": []'):
        assert written in text, written


def test_emitter_writes_an_empty_block_as_the_reference():
    # no text parses to an empty block, but a library caller may build one
    model = _model(_EMITTER, types=_MODE)
    auto = model.components["p.Émetteur"].ast.automata[0]
    auto.transitions = (dataclasses.replace(auto.transitions[0], input=(), output=()),
                        *auto.transitions[1:])
    text = export_ir(model)
    assert text == reference_ir(model)
    assert '"inputs": [],\n' in text and '"outputs": [],\n' in text
