"""Well-formedness rules: per-rule fixtures, catalog, profile monotonicity."""

from __future__ import annotations

import random
import re

import pytest

from maa.checks import check, rule_catalog
from maa.diagnostics import ERROR, WARNING

from conftest import CORPUS, FIXTURES, check_files
from genmodels import random_rule_breaking_text, resolve_text

COCO = FIXTURES / "coco"

# fixture file -> (profile, expected multiset of (code, line))
EXPECTED = {
    "u1_duplicate_automaton_names.maa": ("generic", [("U1", 7)]),
    "u2_duplicate_state_names.maa": ("generic", [("U2", 4), ("U2", 5)]),
    "u3_duplicate_port_variable_names.maa": ("generic", [("U3", 6), ("U3", 9)]),
    "c1_missing_initial_state.maa": ("generic", [("C1", 3)]),
    "c2c3c4_naming_conventions.maa": ("generic", [("C2", 3), ("C3", 5), ("C4", 6)]),
    "r1_undefined_state.maa": ("generic", [("R1", 9), ("R1", 10)]),
    "r2_undefined_ports_and_variables.maa":
        ("generic", [("R2", 6), ("R2", 6), ("R2", 6), ("R2", 6)]),
    "t1_incompatible_value_types.maa": ("generic", [("T1", 13), ("T1", 13)]),
    "t2_incompatible_initial_value.maa": ("generic", [("T2", 3)]),
    "t3_incompatible_references.maa": ("generic", [("T3", 13), ("T3", 13)]),
    "t4_nodata_with_variables.maa": ("generic", [("T4", 7), ("T4", 13), ("T4", 13)]),
    "t5_sequences_with_variables.maa": ("generic", [("T5", 9), ("T5", 9)]),
    "t6_port_directions.maa": ("generic", [("T6", 10), ("T6", 10)]),
    "t7_output_port_as_value.maa": ("generic", [("T7", 12), ("T7", 14)]),
    "s1ts_multiple_automata.maa": ("ts", [("S1TS", 7)]),
    "s2ts_port_in_initial_output.maa": ("ts", [("S2TS", 10)]),
    "s3ts_sequence_output.maa": ("ts", [("S3TS", 9)]),
    "s1ed_multiple_automata.maa": ("ed", [("S1ED", 7)]),
    "s2ed_multiple_messages.maa": ("ed", [("S2ED", 11), ("S2ED", 13)]),
    "s3ed_nodata_trigger.maa": ("ed", [("S3ED", 11)]),
}


@pytest.mark.parametrize("fixture", sorted(EXPECTED))
def test_fixture_exactness(fixture):
    profile, want = EXPECTED[fixture]
    diags = check_files([COCO / fixture], profile)
    got = sorted((d.code, d.loc.line) for d in diags)
    assert got == sorted(want)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_clean_corpus_has_no_errors(name):
    paths, profile, types = CORPUS[name]
    diags = check_files(paths, profile, types)
    errors = [d for d in diags if d.severity == ERROR]
    assert errors == [], [d.render() for d in errors]


def test_reference_trace_components_fully_clean():
    # these three also produce zero warnings
    for key in ("bump_control", "follow_the_leader", "toast_arm"):
        paths, profile, types = CORPUS[key]
        assert check_files(paths, profile, types) == []


def test_catalog_shape():
    catalog = rule_catalog()
    assert len(catalog) == 24
    codes = [r.code for r in catalog]
    assert codes == [
        "U1", "U2", "U3",
        "C1", "C2", "C3", "C4",
        "R0", "R1", "R2", "R3",
        "T1", "T2", "T3", "T4", "T5", "T6", "T7",
        "S1TS", "S2TS", "S3TS",
        "S1ED", "S2ED", "S3ED",
    ]
    by_code = {r.code: r for r in catalog}
    assert by_code["C1"].severity == "warning"
    assert by_code["S3TS"].profile == "ts"
    assert by_code["S3ED"].profile == "ed"
    assert all(by_code[c].severity == "warning" for c in ("C1", "C2", "C3", "C4"))
    assert all(r.severity == "error" for r in catalog if not r.code.startswith("C"))


def test_catalog_is_stable():
    assert rule_catalog() == rule_catalog()


def test_c_family_always_warning_severity():
    diags = check_files([COCO / "c2c3c4_naming_conventions.maa"], "generic")
    assert {d.severity for d in diags} == {WARNING}


def test_r3_variable_declaration_references_port():
    from maa.parser import parse_component_file
    from maa.resolution import resolve
    unit = parse_component_file(
        "component C {\n"
        "    port in Integer input;\n"
        "    Integer buffer = input;\n"
        "    automaton { state S; initial S; }\n"
        "}", "r3.maa")
    model, rdiags = resolve([unit], [])
    diags = rdiags + check(model, "generic")
    assert [(d.code, d.loc.line) for d in diags] == [("R3", 3)]


def _component(body: str) -> str:
    return f"component C {{ port in Integer p, in Integer q; {body} }}"


def _automaton(declarations: str, transitions: str) -> str:
    return f"component C {{ {declarations} automaton {{ state S; initial S; {transitions} }} }}"


@pytest.mark.parametrize("text, profile, expected", [
    pytest.param(_component("Integer Big;"), "generic",
                 ["c.maa:1:56 warning C2: variable name 'Big' should start lowercase"],
                 id="C2-variable"),
    pytest.param(_component("automaton { state S; initial S; S {p = [1, 2]}; }"), "generic",
                 ["c.maa:1:87 error T1: input on port 'p' must be a single message, "
                  "not a sequence"], id="T1-input-sequence"),
    pytest.param(_component("automaton { state S; initial S; S {1}; }"), "generic",
                 ["c.maa:1:83 error T1: input value matches more than one port or variable "
                  "(p, q); name the intended target"], id="T1-input-ambiguous"),
    pytest.param(_component("automaton { state S; initial S; S {true}; }"), "generic",
                 ["c.maa:1:83 error T1: no port or variable of a matching type admits "
                  "this input value"], id="T1-input-unmatched"),
    pytest.param(_component("automaton { state S; initial T; }"), "generic",
                 ["c.maa:1:77 error R1: state 'T' is undefined"], id="R1-initial"),
    pytest.param(_automaton("port in Integer p; Integer v;", "S {v = --};"), "generic",
                 ["c.maa:1:84 error T4: cannot read -- from variable 'v'"], id="T4-input"),
    pytest.param(_automaton("port in Integer p; Integer v;", "S {v = [1]};"), "generic",
                 ["c.maa:1:84 error T5: cannot read a sequence from variable 'v'"],
                 id="T5-input"),
    pytest.param(_automaton("port out Integer o;", "S {o = 1};"), "generic",
                 ["c.maa:1:70 error T6: cannot receive from output port 'o'"], id="T6-input"),
    pytest.param(_automaton("port in Integer p;", "S {p = --};"), "ed",
                 ["c.maa:1:73 error S3ED: a transition cannot be triggered by absence (--)"],
                 id="S3ED"),
    pytest.param("component C { port in Integer p, out Integer o; "
                 "automaton { state S; initial S / o = p; } }", "ts",
                 ["c.maa:1:86 error S2TS: port 'p' must not be used in an initial output"],
                 id="S2TS"),
    pytest.param("component C { automaton A { state S; initial S; } "
                 "automaton A { state S; initial S; } automaton A { state S; initial S; } }",
                 "generic",
                 ["c.maa:1:51 error U1: automaton 'A' is defined more than once",
                  "c.maa:1:87 error U1: automaton 'A' is defined more than once"], id="U1"),
    pytest.param("component C { automaton { state S, S, S; initial S; } }", "generic",
                 ["c.maa:1:36 error U2: state 'S' is declared more than once",
                  "c.maa:1:39 error U2: state 'S' is declared more than once"], id="U2"),
    pytest.param(_automaton("port in Integer p, in Integer p; Integer p;", ""), "generic",
                 ["c.maa:1:45 error U3: the name 'p' is already used by a port or variable",
                  "c.maa:1:56 error U3: the name 'p' is already used by a port or variable"],
                 id="U3"),
    pytest.param(_automaton("port out Integer o; Boolean b;", "S / o = b;"), "generic",
                 ["c.maa:1:86 error T3: variable 'b' is no Integer"], id="T3-variable"),
    pytest.param(_automaton("port out Integer o, out Integer x;", "S / x = o;"), "generic",
                 ["c.maa:1:90 error T7: output port 'o' cannot be used as a value"], id="T7"),
    # the rules of both entry kinds in one transition, in the order an entry
    # reports them: its target, then each alternative
    pytest.param(_automaton("port in Integer p, out Integer o; Integer v;",
                            "S {v = -- | [1] | 2, p = -- | [1, true]} "
                            "/ {v = -- | [2], o = [1, true] | -- | p, p = 1};"), "ts",
                 ["c.maa:1:99 error T4: cannot read -- from variable 'v'",
                  "c.maa:1:104 error T5: cannot read a sequence from variable 'v'",
                  "c.maa:1:122 error T1: input on port 'p' must be a single message, "
                  "not a sequence",
                  "c.maa:1:140 error T4: cannot assign -- to variable 'v'",
                  "c.maa:1:145 error T5: cannot assign a sequence to variable 'v'",
                  "c.maa:1:154 error S3TS: sending a sequence on port 'o' exceeds one "
                  "message per cycle",
                  "c.maa:1:158 error T1: 'true' is no Integer",
                  "c.maa:1:174 error T6: cannot send to input port 'p'"], id="mixed-entries"),
    # a target whose type did not resolve takes any name or value unchecked
    pytest.param(_automaton("port in Foo f, in Integer p;", "S {f = p};"), "generic",
                 ["c.maa:1:27 error R0: unresolved port type 'Foo'"], id="untyped-target-name"),
    pytest.param(_automaton("port in Foo f;", "S {f = 1};"), "generic",
                 ["c.maa:1:27 error R0: unresolved port type 'Foo'"], id="untyped-target-value"),
    # an operand that failed is reported once, not again by the operator over it
    pytest.param(_automaton("port in Integer p;", "S [!(1 == true)];"), "generic",
                 ["c.maa:1:73 error T1: cannot compare Integer with Boolean"],
                 id="T1-guard-once"),
    # no variable admits a sequence, so the out-port is the only target
    pytest.param(_automaton("port out Integer o; Integer v;", "S / [1, 2];"), "ts",
                 ["c.maa:1:82 error S3TS: sending a sequence on port 'o' exceeds one "
                  "message per cycle"], id="S3TS-unnamed"),
])
def test_rule_messages(text, profile, expected):
    from maa.parser import parse_component_file
    from maa.resolution import resolve
    model, rdiags = resolve([parse_component_file(text, "c.maa")], [])
    assert [d.render() for d in rdiags + check(model, profile)] == expected


# (code, message with its names, name lists and types replaced by _)
_RULE_BREAKING_FAMILIES = {
    ("T4", "cannot read -- from variable _"), ("T4", "cannot assign -- to variable _"),
    ("T5", "cannot read a sequence from variable _"),
    ("T5", "cannot assign a sequence to variable _"),
    ("T6", "cannot receive from output port _"), ("T6", "cannot send to input port _"),
    ("T6", "cannot read output port _ in a guard"),
    ("S3ED", "a transition cannot be triggered by absence (--)"),
    ("S2TS", "port _ must not be used in an initial output"),
    ("S3TS", "sending a sequence on port _ exceeds one message per cycle"),
    ("U1", "automaton _ is defined more than once"), ("U2", "state _ is declared more than once"),
    ("U3", "the name _ is already used by a port or variable"),
    ("T3", "variable _ is no _"), ("T3", "port _ is no _"),
    ("T7", "output port _ cannot be used as a value"),
    ("T1", "input on port _ must be a single message, not a sequence"), ("T1", "_ is no _"),
    ("T1", "input value matches more than one port or variable _; name the intended target"),
    ("T1", "output value matches more than one port or variable _; name the intended target"),
    ("T1", "no port or variable of a matching type admits this input value"),
    ("T1", "no port or variable of a matching type admits this output value"),
    ("T1", "guard expression must be Boolean"), ("T1", "operand of _ must be Integer"),
    ("T2", "initial value of variable _ is no _"),
    ("R1", "state _ is undefined"), ("R2", "name _ is undefined"),
    ("R3", "variable declaration of _ references port _"),
    ("C2", "port name _ should start lowercase"), ("C2", "variable name _ should start lowercase"),
    ("C3", "automaton name _ should start uppercase"),
    ("C4", "state name _ should start uppercase"),
}


def test_rule_breaking_models_reach_every_entry_rule():
    # the differential's rule-breaking generator reaches the messages that
    # its other generators never give, so its digests cover them
    found = set()
    for k in range(200):
        model, rdiags = resolve_text(random_rule_breaking_text(random.Random(f"rules:{k}")))
        for profile in ("generic", "ts", "ed"):
            found |= {(d.code, re.sub(r"'[^']*'|\([\w, ]+\)|(?<=is no )\S+", "_", d.message))
                      for d in rdiags + check(model, profile)}
    assert _RULE_BREAKING_FAMILIES - found == set()


def test_profile_monotonicity_over_corpus():
    # the ts and ed runs contain every non-S diagnostic of the generic run
    for name, (paths, _profile, types) in CORPUS.items():
        generic = {(d.code, d.loc.line, d.loc.column)
                   for d in check_files(paths, "generic", types)}
        for profile in ("ts", "ed"):
            rich = {(d.code, d.loc.line, d.loc.column)
                    for d in check_files(paths, profile, types)
                    if not d.code.startswith("S")}
            assert generic == rich, f"{name} under {profile}"


def test_diagnostics_sorted():
    diags = check_files([COCO / "c2c3c4_naming_conventions.maa"], "generic")
    keys = [d.sort_key() for d in diags]
    assert keys == sorted(keys)


def test_two_unnamed_automata_not_a_u1_clash():
    from maa.parser import parse_component_file
    from maa.resolution import resolve
    unit = parse_component_file(
        "component C { automaton { state S; initial S; } "
        "automaton { state T; initial T; } }", "u.maa")
    model, rdiags = resolve([unit], [])
    generic = rdiags + check(model, "generic")
    assert [d.code for d in generic] == []
    ts = rdiags + check(model, "ts")
    assert [d.code for d in ts] == ["S1TS"]


def test_omitted_target_is_not_a_second_undefined_state():
    # `X / o = 1;` stays in X: one R1 for the source, none for the target the
    # text leaves out; `X -> X` names it twice and gets two
    from maa.parser import parse_component_file
    from maa.resolution import resolve
    for transition, columns in (("X / o = 1;", [67]), ("X -> X / o = 1;", [67, 72])):
        unit = parse_component_file(
            "component C { port out Integer o; "
            f"automaton {{ state S; initial S; {transition} }} }}", "r.maa")
        model, rdiags = resolve([unit], [])
        diags = rdiags + check(model, "generic")
        assert [(d.code, d.loc.line, d.loc.column) for d in diags] == [
            ("R1", 1, column) for column in columns]


def test_guard_type_error_flagged():
    from maa.parser import parse_component_file
    from maa.resolution import resolve
    unit = parse_component_file(
        "component C { port in Integer a, in Boolean b; "
        "automaton { state S; initial S; S [a && b]; } }", "g.maa")
    model, rdiags = resolve([unit], [])
    diags = rdiags + check(model, "generic")
    assert any(d.code == "T1" for d in diags)


def test_nonboolean_guard_flagged():
    from maa.parser import parse_component_file
    from maa.resolution import resolve
    unit = parse_component_file(
        "component C { port in Integer a; "
        "automaton { state S; initial S; S [a + 1]; } }", "g.maa")
    model, rdiags = resolve([unit], [])
    diags = rdiags + check(model, "generic")
    assert any(d.code == "T1" and "Boolean" in d.message for d in diags)


def test_unknown_profile_rejected():
    from maa.resolution import ResolvedModel
    with pytest.raises(ValueError):
        check(ResolvedModel(), "asynchronous")


# one model with a finding of every profile's own rules and of a shared one
_EVERY_PROFILE = (
    "component C {\n"
    "  port in Integer a, in Integer b, out Integer o;\n"
    "  automaton A { state S; initial S / o = a; S {a = 1, b = --} / o = [1, 2]; S [x]; }\n"
    "  automaton B { state T; initial T; }\n"
    "}\n")


def _every_profile_model():
    from maa.parser import parse_component_file
    from maa.resolution import resolve
    model, diags = resolve([parse_component_file(_EVERY_PROFILE, "p.maa")], [])
    assert diags == []
    return model


@pytest.mark.parametrize("order", [("generic", "ts", "ed"), ("ed", "generic", "ts"),
                                   ("ts", "ts", "ed", "generic", "ed")])
def test_check_results_do_not_depend_on_call_order_or_count(order):
    expected = {profile: check(_every_profile_model(), profile)
                for profile in ("generic", "ts", "ed")}
    assert [d.code for d in expected["generic"]] == ["R2"]
    assert {d.code for d in expected["ts"]} == {"R2", "S1TS", "S2TS", "S3TS"}
    assert {d.code for d in expected["ed"]} == {"R2", "S1ED", "S2ED", "S3ED"}
    model = _every_profile_model()
    for profile in order:
        first, again = check(model, profile), check(model, profile)
        assert first == again == expected[profile]
        assert first is not again  # each call returns a fresh list
        first.clear()
        assert check(model, profile) == expected[profile]


def test_check_evaluates_the_rules_once_per_model(monkeypatch):
    import maa.checks
    runs = []
    run = maa.checks._Checker.run

    def counting(self):
        runs.append(self.rc.qname)
        run(self)

    monkeypatch.setattr(maa.checks._Checker, "run", counting)
    paths, _profile, types = CORPUS["pipeline"]
    from conftest import load_model
    model = load_model(paths, types)
    for profile in ("ts", "generic", "ed", "ts"):
        check(model, profile)
    assert sorted(runs) == sorted(model.components)


def test_every_finding_is_built_once_by_the_first_check(monkeypatch):
    import maa.checks
    built = []
    at = maa.checks.Diagnostic.at

    def counting(code, loc, message):
        built.append(code)
        return at(code, loc, message)

    monkeypatch.setattr(maa.checks.Diagnostic, "at", counting)
    model = _every_profile_model()
    results = [check(model, "ts")]
    first = list(built)
    results += [check(model, profile) for profile in ("generic", "ed", "ed")]
    assert built == first  # the first call built every finding, and later calls none
    every = {d for diags in results for d in diags}
    assert sorted(first) == sorted(d.code for d in every) == [
        "R2", "S1ED", "S1TS", "S2ED", "S2TS", "S3ED", "S3TS"]
    assert not any(hasattr(d, "__dict__") for d in every)


def test_sim_ts_computes_the_ports_each_transition_reads_once(monkeypatch, tmp_path, capsys):
    from collections import Counter

    from conftest import workloads
    from maa.cli import main
    from maa.resolution import ResolvedComponent
    computed = Counter()
    read_ports = ResolvedComponent._read_ports

    def counting(self, trans):
        computed[id(trans)] += 1
        return read_ports(self, trans)

    monkeypatch.setattr(ResolvedComponent, "_read_ports", counting)
    w = workloads.generate("wide_automaton", 1, "smoke")
    files = []
    for name, text in [*w.models.items(), *w.types.items()]:
        (tmp_path / name).write_text(text, encoding="utf-8")
        path = str(tmp_path / name)
        files += [path] if name.endswith(".maa") else ["--types", path]
    assert main(["sim-ts", *files, "--main", w.main, "--cycles", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 6  # a header and 5 cycles
    assert len(computed) == w.transitions and set(computed.values()) == {1}


def test_each_name_of_an_entry_is_looked_up_once(monkeypatch):
    # per transition: the guard's v by the name walk and by the guard's
    # type, each entry's v by the name walk alone, whose binding the value
    # rules reuse, and each entry's target
    from maa.parser import parse_component_file
    from maa.resolution import ResolvedComponent, resolve
    lookups = []
    binding = ResolvedComponent.binding

    def counting(self, name):
        lookups.append(name)
        return binding(self, name)

    def checked(transitions: int) -> int:
        text = ("component C { port in Integer i, out Integer o; Integer v = 1; automaton {"
                " state S; initial S;" + " S [v > 0] {i = v} / {o = v};" * transitions + " } }")
        model, diags = resolve([parse_component_file(text, "c.maa")], [])
        lookups.clear()
        assert diags + check(model, "ts") == []
        return len(lookups)

    monkeypatch.setattr(ResolvedComponent, "binding", counting)
    assert checked(20) - checked(10) == 10 * 6
