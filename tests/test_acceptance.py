"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import functools
import random
import time

from maa.cli import main as cli_main
from maa.engine import (
    ABSENT,
    FirstDeclared,
    Seeded,
    enumerate_ts,
    lower,
    run_ed,
    run_ts,
    Event,
    EnumValue,
)
from maa.parser import parse_component_file
from maa.printer import pretty_print
from maa.resolution import resolve
from maa.syntax import CompilationUnit

from conftest import CORPUS, FIXTURES, MODELS, check_files, parse_model, positional, trace_key
from genmodels import perturbed_at, random_model, random_stimulus
from test_checks import EXPECTED

COCO = FIXTURES / "coco"


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. parse corpus and round trip, < 1 s
# ---------------------------------------------------------------------------

@criterion(1, "parse-corpus-round-trip")
def test_criterion_1_parse_corpus():
    started = time.perf_counter()
    for _name, (paths, _profile, _types) in CORPUS.items():
        for path in paths:
            unit = parse_model(path)  # zero SYN diagnostics
            printed = pretty_print(unit)
            reparsed = parse_component_file(printed, str(path))
            assert isinstance(reparsed, CompilationUnit), f"{path}: reprint failed"
            assert reparsed == unit, f"{path}: round trip not structurally equal"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"corpus parsing took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. checker fixture exactness: (code, line) set equality
# ---------------------------------------------------------------------------

@criterion(2, "checker-fixture-exactness")
def test_criterion_2_fixture_exactness():
    assert len(EXPECTED) == 20
    for fixture, (profile, want) in sorted(EXPECTED.items()):
        diags = check_files([COCO / fixture], profile)
        got = sorted((d.code, d.loc.line) for d in diags)
        assert got == sorted(want), f"{fixture}: got {got}, want {sorted(want)}"


# ---------------------------------------------------------------------------
# 3. reference time-synchronous trace, exact strings, < 1 s
# ---------------------------------------------------------------------------

@criterion(3, "time-synchronous-reference-trace")
def test_criterion_3_reference_trace(capsys):
    started = time.perf_counter()
    code = cli_main([
        "sim-ts", str(MODELS / "robot" / "FollowTheLeaderOnline.maa"),
        "--types", str(MODELS / "robot" / "enums.types"),
        "--main", "robot.FollowTheLeaderOnline",
        "--stimulus", str(MODELS / "robot" / "follow_stimulus.tsv"),
        "--cycles", "8",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    cmd_column = [line.split("\t")[3] for line in lines[1:]]
    assert cmd_column == ["SLOW_FORWARD", "--", "--", "FAST_FORWARD",
                          "FAST_FORWARD", "--", "TURN", "--"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"simulation took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. event-driven reproduction, exact match
# ---------------------------------------------------------------------------

@criterion(4, "event-driven-reference-run")
def test_criterion_4_event_driven(toast_model):
    req = lambda lit: Event("req", EnumValue("robot.Request", lit))
    trace = run_ed(toast_model, "robot.ToastArmController",
                   [req("PICK_UP_TOAST"), req("DROP_TOAST")])
    first, second = trace.steps
    assert [(p, [v.literal for v in vs]) for p, vs in first.emissions] == [
        ("armCmd", ["MOVE_UP", "TURN_RIGHT", "OPEN", "MOVE_DOWN", "CLOSE"]),
        ("lightCmd", ["FLASH"]),
    ]
    assert [(p, [v.literal for v in vs]) for p, vs in second.emissions] == [
        ("armCmd", ["TURN_LEFT", "MOVE_DOWN", "OPEN"]),
        ("lightCmd", ["OFF"]),
    ]
    assert second.state.state == "Idle"


# ---------------------------------------------------------------------------
# 5. semantic property suite, < 30 s
# ---------------------------------------------------------------------------

def _assert_single_messages(trace):
    for record in trace.records:
        for value in record.outputs.values():
            assert not isinstance(value, list), "sequence observed in a ts trace"


def _follow_random_row(rng):
    dist = ABSENT
    roll = rng.random()
    if roll < 0.4:
        dist = EnumValue("robot.Distance", "TOO_FAR")
    elif roll < 0.6:
        dist = EnumValue("robot.Distance", "TOO_CLOSE")
    in_lane = ABSENT if rng.random() < 0.2 else rng.random() < 0.7
    return {"inLane": in_lane, "dist": dist}


def _follow_perturb(rng, rows, cycle):
    out = [dict(r) for r in rows]
    row = out[cycle - 1]
    old = row["inLane"]
    options = [True, False, ABSENT]
    row["inLane"] = rng.choice(
        [o for o in options if (o is ABSENT) != (old is ABSENT) or o != old])
    return out


def _check_causality(model, main, rows_a, rows_b, diverge, n_cycles):
    a = run_ts(model, main, rows_a, n_cycles, FirstDeclared())
    b = run_ts(model, main, rows_b, n_cycles, FirstDeclared())
    _assert_single_messages(a)
    _assert_single_messages(b)
    for t in range(1, diverge + 1):
        assert a.records[t - 1].outputs == b.records[t - 1].outputs, (
            f"outputs diverged at cycle {t} <= {diverge}")


@criterion(5, "semantic-property-suite")
def test_criterion_5_property_suite(follow_model):
    started = time.perf_counter()
    rng = random.Random(20240615)
    main = "robot.FollowTheLeaderOnline"
    n_cycles = 8

    # strong causality on the reference component, 200 randomized pairs
    for _ in range(200):
        rows = [_follow_random_row(rng) for _ in range(n_cycles)]
        diverge = rng.randrange(1, n_cycles + 1)
        other = _follow_perturb(rng, rows, diverge)
        _check_causality(follow_model, main, rows, other, diverge, n_cycles)

    # strong causality on a randomized generated machine, 200 pairs
    gen_model_, gen_main = random_model(rng)
    for _ in range(200):
        rows = random_stimulus(rng, 6)
        diverge = rng.randrange(1, 7)
        other = perturbed_at(rng, rows, diverge)
        _check_causality(gen_model_, gen_main, rows, other, diverge, 6)

    # idle completion and variable preservation over >= 200 random cycles
    cycles_checked = 0
    while cycles_checked < 200:
        model, gmain = random_model(rng)
        rc = model.components[gmain]
        behaviour = lower(rc)
        trace = run_ts(model, gmain, random_stimulus(rng, 10), 10, FirstDeclared())
        _assert_single_messages(trace)
        for t in range(2, 10):
            pre = trace.records[t - 2].states[""]
            post = trace.records[t - 1].states[""]
            inputs = trace.records[t - 1].inputs
            options = behaviour.enabled(pre.state, positional(rc, inputs), pre.variables)
            if not options:
                assert post.state == pre.state and post.variables == pre.variables
                assert all(v is ABSENT for v in trace.records[t].outputs.values())
            else:
                assigned = {a.target for a in options[0].assigns}
                for name, value in pre.variables.items():
                    if name not in assigned:
                        assert post.variables[name] == value
            cycles_checked += 1

    # seed determinism: byte-identical serialized traces
    stim = [_follow_random_row(rng) for _ in range(n_cycles)]
    for seed in (0, 7, 123456789):
        one = run_ts(follow_model, main, stim, n_cycles, Seeded(seed))
        two = run_ts(follow_model, main, stim, n_cycles, Seeded(seed))
        assert repr(one) == repr(two)
        assert trace_key(one) == trace_key(two)

    # oracle containment on one |-choice plus one dual-enabled state
    text = ("component Choice { port in Integer p, out Integer o; automaton {"
            " state S; initial S; S / o = 1 | 2; S / o = 3; } }")
    unit = parse_component_file(text, "choice.maa")
    assert isinstance(unit, CompilationUnit)
    choice_model, diags = resolve([unit], [])
    assert diags == []
    stim4 = [{"p": 1}] * 4
    oracle = {trace_key(t) for t in enumerate_ts(choice_model, "Choice", stim4, 4, 1024)}
    assert trace_key(run_ts(choice_model, "Choice", stim4, 4, FirstDeclared())) in oracle
    for seed in range(10):
        assert trace_key(run_ts(choice_model, "Choice", stim4, 4, Seeded(seed))) in oracle

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"property suite took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 6. composition against the committed golden trace
# ---------------------------------------------------------------------------

@criterion(6, "composition-golden-trace")
def test_criterion_6_composition(capsys):
    code = cli_main([
        "sim-ts", *sorted(str(p) for p in (MODELS / "pipeline").glob("*.maa")),
        "--main", "pipeline.Pipeline",
        "--stimulus", str(MODELS / "pipeline" / "stimulus.tsv"),
        "--cycles", "6",
    ])
    out = capsys.readouterr().out
    assert code == 0
    golden = (FIXTURES / "golden" / "pipeline_trace.tsv").read_text(encoding="utf-8")
    assert out == golden
