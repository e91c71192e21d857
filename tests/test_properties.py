"""Property-based checks: round-trips, inference consistency, engine invariants."""

from __future__ import annotations

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from maa.checks import check
from maa.engine import ABSENT, FirstDeclared, Seeded, lower, run_ts
from maa.parser import parse_component_file
from maa.printer import format_expr, format_value, pretty_print
from maa.resolution import BOOLEAN, INTEGER, STRING, infer_block_target, resolve, type_of
from maa.syntax import (
    BoolLit,
    CompilationUnit,
    EBinary,
    ELit,
    ERef,
    EUnary,
    IntLit,
    NoData,
    SequenceValue,
    StringLit,
)

from conftest import CORPUS, parse_model
from genmodels import random_component_text, random_model, random_stimulus

# ---------------------------------------------------------------------------
# value and expression round trips
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(lambda n: IntLit(n, None)),
    st.booleans().map(lambda b: BoolLit(b, None)),
    st.text(alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
            max_size=12).map(lambda s: StringLit(s, None)),
)
_values = st.one_of(
    _scalars,
    st.just(NoData(None)),
    st.lists(_scalars, max_size=4).map(lambda xs: SequenceValue(xs, None)),
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


_exprs = st.recursive(
    st.one_of(
        st.integers(min_value=-100, max_value=100).map(lambda n: ELit(n, None)),
        st.booleans().map(lambda b: ELit(b, None)),
        st.sampled_from("abcv").map(lambda n: ERef(n, None)),
    ),
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
    term=_scalars,
    types=st.lists(st.sampled_from(_TYPE_POOL), min_size=1, max_size=5),
)
def test_infer_target_consistent_with_type_of(term, types):
    candidates = [(f"p{i}", t) for i, t in enumerate(types)]
    kinds = {name: "in" for name, _ in candidates}
    env_unit = parse_component_file("component E { }", "env")
    model, _ = resolve([env_unit], [])
    env = model.components["E"]
    result = infer_block_target([term], candidates, kinds, env)
    term_type = type_of(term, env)
    admitting = [name for name, t in candidates if t == term_type]
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
    """Every attribute of every node reachable from ``node``, as nested tuples."""
    if isinstance(node, list):
        return tuple(_fields(n) for n in node)
    if hasattr(node, "__dict__"):
        return (type(node).__name__, tuple((k, _fields(v)) for k, v in vars(node).items()))
    return node


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pipeline_leaves_the_parsed_tree_unchanged(rng):
    # the generator random_model parses, before anything reads the tree
    unit = parse_component_file(random_component_text(rng), "gen.maa")
    assert isinstance(unit, CompilationUnit), unit
    pristine = copy.deepcopy(unit)
    model, diags = resolve([unit], [])
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
            options = behaviour.enabled(pre.state, inputs, pre.variables)
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
