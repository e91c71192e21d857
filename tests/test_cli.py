"""Command-line contract: formats, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

import maa.cli
import maa.engine
from maa.cli import main
from maa.parser import MAX_NESTING

from conftest import FIXTURES, MODELS

COCO = FIXTURES / "coco"
BUMP = [str(MODELS / "bumperbot" / "BumpControl.maa"),
        "--types", str(MODELS / "bumperbot" / "types" / "commands.types")]
FOLLOW = [str(MODELS / "robot" / "FollowTheLeaderOnline.maa"),
          "--types", str(MODELS / "robot" / "enums.types")]
TOAST = [str(MODELS / "robot" / "ToastArmController.maa"),
         "--types", str(MODELS / "robot" / "enums.types")]
PIPELINE = sorted(str(p) for p in (MODELS / "pipeline").glob("*.maa"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_clean_model_exit_zero(capsys):
    code, out, _ = run(capsys, "check", *BUMP, "--profile", "ts")
    assert code == 0
    assert out == ""


def test_check_warning_only_exit_zero(capsys):
    code, out, _ = run(capsys, "check", str(COCO / "c1_missing_initial_state.maa"))
    assert code == 0
    assert "C1" in out and "warning" in out


def test_check_error_exit_one_and_line_format(capsys):
    code, out, _ = run(capsys, "check", str(COCO / "s3ts_sequence_output.maa"),
                       "--profile", "ts")
    assert code == 1
    line = out.strip().splitlines()[0]
    # <file>:<line>:<col> <severity> <CODE>: <message>
    assert "s3ts_sequence_output.maa:9:" in line
    assert " error S3TS: " in line


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", str(COCO / "t6_port_directions.maa"),
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert [d["code"] for d in payload] == ["T6", "T6"]
    assert {d["line"] for d in payload} == {10}
    assert set(payload[0]) == {"code", "severity", "file", "line", "column", "message"}


def test_check_parse_failure_syn(capsys):
    bad = COCO / "does_not_parse.maa"
    bad.write_text("component X {", encoding="utf-8")
    try:
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert "SYN" in out
    finally:
        bad.unlink()


DEEP_GUARDS = {
    "parentheses": "(" * 3000 + "a > 0" + ")" * 3000,
    "negations": "!" * 3000 + "(a > 0)",
    "binary chain": "a" + " + a" * 2999 + " > 0",
}


@pytest.mark.parametrize("guard", DEEP_GUARDS.values(), ids=list(DEEP_GUARDS))
def test_check_deep_guard_is_syn(capsys, tmp_path, guard):
    model = tmp_path / "deep.maa"
    model.write_text("component C { port in Integer a, out Integer o; automaton {"
                     f" state S; initial S; S [{guard}] / o = 1; }} }}", encoding="utf-8")
    code, out, err = run(capsys, "check", str(model))
    assert code == 1
    assert out.count(" error SYN: ") == 1
    assert f"nested more than {MAX_NESTING} levels" in out
    assert err == ""


def test_check_unreadable_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "no/such/file.maa")
    assert code == 2
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# sim-ts
# ---------------------------------------------------------------------------

def test_sim_ts_reference_columns(capsys):
    code, out, _ = run(capsys, "sim-ts", *FOLLOW,
                       "--main", "robot.FollowTheLeaderOnline",
                       "--stimulus", str(MODELS / "robot" / "follow_stimulus.tsv"),
                       "--cycles", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cycle\tin:inLane\tin:dist\tout:cmd\tstate"
    cmd = [line.split("\t")[3] for line in lines[1:]]
    assert cmd == ["SLOW_FORWARD", "--", "--", "FAST_FORWARD", "FAST_FORWARD",
                   "--", "TURN", "--"]


def test_sim_ts_echoes_stimulus_cells(capsys):
    _, out, _ = run(capsys, "sim-ts", *FOLLOW,
                    "--main", "robot.FollowTheLeaderOnline",
                    "--stimulus", str(MODELS / "robot" / "follow_stimulus.tsv"),
                    "--cycles", "8")
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    stim_lines = (MODELS / "robot" / "follow_stimulus.tsv").read_text().strip().splitlines()
    for row, stim in zip(rows, stim_lines[1:]):
        assert row[1:3] == stim.split("\t")


def test_sim_ts_seed_determinism(capsys):
    argv = ["sim-ts", *FOLLOW, "--main", "robot.FollowTheLeaderOnline",
            "--stimulus", str(MODELS / "robot" / "follow_stimulus.tsv"),
            "--cycles", "8", "--policy", "seeded", "--seed", "7"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sim_ts_checker_errors_block(capsys, tmp_path):
    bad = tmp_path / "bad.maa"
    bad.write_text("component C { port in Integer p, out Integer o; automaton {"
                   " state S; initial S / o = [1, 2]; } }", encoding="utf-8")
    stim = tmp_path / "s.tsv"
    stim.write_text("p\n1\n", encoding="utf-8")
    code, _, err = run(capsys, "sim-ts", str(bad), "--main", "C",
                       "--stimulus", str(stim), "--cycles", "1")
    assert code == 1
    assert "S3TS" in err


def test_sim_ts_warnings_block_without_force(capsys, tmp_path):
    warn = tmp_path / "warn.maa"
    warn.write_text("component C { port in Integer p, out Integer o; automaton {"
                    " state S; S / o = 1; } }", encoding="utf-8")
    code, _, err = run(capsys, "sim-ts", str(warn), "--main", "C", "--cycles", "2")
    assert code == 1
    assert "--force" in err
    code, out, _ = run(capsys, "sim-ts", str(warn), "--main", "C", "--cycles", "2",
                       "--force")
    assert code == 0
    assert out.strip().splitlines()[2].split("\t")[2] == "1"


def test_sim_ts_runtime_error_exit_three(capsys, tmp_path):
    model = tmp_path / "fwd.maa"
    model.write_text("component C { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = p; } }", encoding="utf-8")
    code, _, err = run(capsys, "sim-ts", str(model), "--main", "C", "--cycles", "2")
    assert code == 3
    assert "cycle 1" in err and "absent" in err


def test_sim_ts_enumerate_output(capsys, tmp_path):
    model = tmp_path / "alt.maa"
    model.write_text("component C { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = 1 | 2; } }", encoding="utf-8")
    code, out, _ = run(capsys, "sim-ts", str(model), "--main", "C", "--cycles", "2",
                       "--enumerate", "--bound", "64")
    assert code == 0
    blocks = out.strip().split("\n\n")
    count_line = blocks[-1].splitlines()[-1]
    assert count_line == "traces: 2"
    assert len(blocks) == 2


def test_sim_ts_enumerate_sorts_absence_before_values(capsys, tmp_path):
    model = tmp_path / "absent.maa"
    model.write_text("component C { port out Integer o; automaton {"
                     " state S; initial S; S / o = 1 | --; } }", encoding="utf-8")
    code, out, _ = run(capsys, "sim-ts", str(model), "--main", "C", "--cycles", "2",
                       "--enumerate")
    assert code == 0
    assert out.endswith("traces: 2\n")
    # the trace holding -- in cycle 2 comes first
    assert [block.splitlines()[2] for block in out.split("\n\n")] == ["2\t--\tS", "2\t1\tS"]


@pytest.mark.parametrize("flags", [[], ["--enumerate"]], ids=["run", "enumerate"])
def test_sim_ts_builds_one_plan(capsys, monkeypatch, flags):
    calls = []
    build_plan = maa.engine.build_plan

    def counting(*args):
        calls.append(args)
        return build_plan(*args)

    monkeypatch.setattr(maa.engine, "build_plan", counting)
    # and any call the CLI makes through a name of its own
    monkeypatch.setattr(maa.cli, "build_plan", counting, raising=False)
    code, _, _ = run(capsys, "sim-ts", *PIPELINE, "--main", "pipeline.Pipeline",
                     "--cycles", "3", *flags)
    assert code == 0
    assert len(calls) == 1


def test_sim_ts_enumerate_long_run(capsys, tmp_path):
    model = tmp_path / "loop.maa"
    model.write_text("component C { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = 1; } }", encoding="utf-8")
    code, out, _ = run(capsys, "sim-ts", str(model), "--main", "C", "--cycles", "1500",
                       "--enumerate")
    assert code == 0
    assert out.endswith("\n1500\t--\t1\tS\ntraces: 1\n")


def test_sim_ts_composed_golden_file(capsys):
    code, out, _ = run(capsys, "sim-ts", *PIPELINE, "--main", "pipeline.Pipeline",
                       "--stimulus", str(MODELS / "pipeline" / "stimulus.tsv"),
                       "--cycles", "6")
    assert code == 0
    golden = (FIXTURES / "golden" / "pipeline_trace.tsv").read_text(encoding="utf-8")
    assert out == golden


def test_sim_ts_policy_enumerate_flag_equivalent(capsys, tmp_path):
    model = tmp_path / "alt.maa"
    model.write_text("component C { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = 1 | 2; } }", encoding="utf-8")
    base = ["sim-ts", str(model), "--main", "C", "--cycles", "2", "--bound", "8"]
    _, via_policy, _ = run(capsys, *base, "--policy", "enumerate")
    _, via_flag, _ = run(capsys, *base, "--enumerate")
    assert via_policy == via_flag
    assert via_policy.strip().endswith("traces: 2")


def test_sim_ts_simple_main_name_resolves(capsys):
    code, out, _ = run(capsys, "sim-ts", *FOLLOW, "--main", "FollowTheLeaderOnline",
                       "--cycles", "1")
    assert code == 0
    assert out.splitlines()[1].split("\t")[3] == "SLOW_FORWARD"


def test_sim_ts_string_stimulus_cells(capsys, tmp_path):
    model = tmp_path / "echo.maa"
    model.write_text(
        'component Echo { port in String s, out String o; automaton {'
        ' state S; initial S; S s = "go" / o = "went"; S s = --; } }',
        encoding="utf-8")
    stim = tmp_path / "s.tsv"
    stim.write_text('s\n"go"\n"stop"\n', encoding="utf-8")
    code, out, _ = run(capsys, "sim-ts", str(model), "--main", "Echo",
                       "--stimulus", str(stim), "--cycles", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ['"go"', '"stop"', "--"]
    assert [r[2] for r in rows] == ["--", '"went"', "--"]


def test_sim_ts_bad_stimulus_cell_usage_error(capsys, tmp_path):
    stim = tmp_path / "bad.tsv"
    stim.write_text("inLane\nmaybe\n", encoding="utf-8")
    code, _, err = run(capsys, "sim-ts", *FOLLOW,
                       "--main", "robot.FollowTheLeaderOnline",
                       "--stimulus", str(stim), "--cycles", "1")
    assert code == 2
    assert "not a Boolean" in err


# ---------------------------------------------------------------------------
# sim-ed
# ---------------------------------------------------------------------------

def test_sim_ed_blocks(capsys):
    code, out, _ = run(capsys, "sim-ed", *TOAST, "--main", "robot.ToastArmController",
                       "--script", str(MODELS / "robot" / "toast_script.txt"))
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    first = blocks[0].splitlines()
    assert first[0] == "recv req=PICK_UP_TOAST"
    assert first[1:6] == [f"emit armCmd={x}" for x in
                          ("MOVE_UP", "TURN_RIGHT", "OPEN", "MOVE_DOWN", "CLOSE")]
    assert first[6] == "emit lightCmd=FLASH"
    assert first[7] == "state GotToast"
    second = blocks[1].splitlines()
    assert second[0] == "recv req=DROP_TOAST"
    assert second[-1] == "state Idle"


def test_sim_ed_unmatched_event_block(capsys, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("req DROP_TOAST\n", encoding="utf-8")
    code, out, _ = run(capsys, "sim-ed", *TOAST, "--main", "robot.ToastArmController",
                       "--script", str(script))
    assert code == 0
    assert out.strip().splitlines() == ["recv req=DROP_TOAST", "state Idle"]


def test_sim_ed_empty_script(capsys, tmp_path):
    script = tmp_path / "empty.txt"
    script.write_text("# nothing\n\n", encoding="utf-8")
    code, out, _ = run(capsys, "sim-ed", *TOAST, "--main", "robot.ToastArmController",
                       "--script", str(script))
    assert code == 0
    assert out == "" or out == "\n"


def test_sim_ed_unknown_port_usage_error(capsys, tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text("nosuch FLASH\n", encoding="utf-8")
    code, _, err = run(capsys, "sim-ed", *TOAST, "--main", "robot.ToastArmController",
                       "--script", str(script))
    assert code == 2
    assert "in-port" in err


# ---------------------------------------------------------------------------
# export-ir
# ---------------------------------------------------------------------------

def test_export_ir_structure(capsys):
    code, out, _ = run(capsys, "export-ir", *BUMP)
    assert code == 0
    doc = json.loads(out)
    comp = doc["components"][0]
    assert comp["name"] == "bumperbot.BumpControl"
    assert len(comp["ports"]) == 5
    auto = comp["automata"][0]
    assert len(auto["states"]) == 4
    assert len(auto["transitions"]) == 4
    assert len(auto["initials"]) == 1
    assert [e["name"] for e in doc["enums"]] == [
        "bumperbot.types.MotorCmd", "bumperbot.types.TimerCmd"]


def test_export_ir_generic_params(capsys):
    code, out, _ = run(capsys, "export-ir", str(MODELS / "reference" / "Arbiter.maa"))
    assert code == 0
    doc = json.loads(out)
    assert doc["components"][0]["genericParams"] == ["T"]


def test_export_ir_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["export-ir", *BUMP, "--out", str(out1)]) == 0
    assert main(["export-ir", *BUMP, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_export_ir_stereotypes_included(capsys):
    code, out, _ = run(capsys, "export-ir",
                       str(MODELS / "reference" / "IntegerBuffer4.maa"))
    doc = json.loads(out)
    states = doc["components"][0]["automata"][0]["states"]
    assert {"name": "T", "stereotypes": ["error"]} in states


def test_export_ir_resolution_error_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.maa"
    bad.write_text("component C { port in Mystery p; }", encoding="utf-8")
    code, _, err = run(capsys, "export-ir", str(bad))
    assert code == 1
    assert "R0" in err
