"""Well-formedness rules: per-rule fixtures, catalog, profile monotonicity."""

from __future__ import annotations

import pytest

from maa.checks import check, rule_catalog
from maa.diagnostics import ERROR, WARNING

from conftest import CORPUS, FIXTURES, check_files

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
