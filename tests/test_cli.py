"""Command-line contract: formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maa.cli
import maa.engine
import maa.parser
from maa.cli import main
from maa.parser import MAX_NESTING

from conftest import FIXTURES, MODELS, REPO_ROOT, workloads
from differential import FORWARD_Q

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


@pytest.mark.parametrize("command", [
    ["check", "BAD"],
    ["sim-ts", *FOLLOW, "--main", "robot.FollowTheLeaderOnline", "--cycles", "2",
     "--stimulus", "BAD"],
    ["sim-ed", *TOAST, "--main", "robot.ToastArmController", "--script", "BAD"],
], ids=["model", "stimulus", "script"])
def test_undecodable_file_is_a_usage_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, *(str(bad) if arg == "BAD" else arg for arg in command))
    assert code == 2
    assert err == f"error: cannot read '{bad}': not UTF-8 text (byte 0)\n"
    assert "Traceback" not in err


def test_sim_ts_refuses_zero_cycles(capsys):
    code, out, err = run(capsys, "sim-ts", *FOLLOW, "--main", "robot.FollowTheLeaderOnline",
                         "--cycles", "0")
    assert (code, out, err) == (2, "", "error: --cycles must be at least 1\n")


@pytest.mark.parametrize("extra, rows", [
    ([], "cycle\tin:i\tout:o\tstate\n1\t--\t--\tT\n"), (["--enumerate"], "")],
    ids=["policy", "enumerate"])
def test_sim_ts_runs_any_number_of_cycles_until_it_fails(capsys, tmp_path, extra, rows):
    # more cycles than a machine-sized integer holds
    model = tmp_path / "F.maa"
    model.write_text("component F { port in Integer i, out Integer o; automaton {"
                     " state S, T; initial S; S -> T / o = 1; T / o = i; } }", encoding="utf-8")
    code, out, err = run(capsys, "sim-ts", str(model), "--main", "F",
                         "--cycles", "100000000000000000000", *extra)
    assert (code, out, err) == (
        3, rows, "runtime error: cycle 2: forwarding absent message from port 'i'\n")


@pytest.mark.parametrize("command, missing, why", [
    (["sim-ts", *FOLLOW, "--main", "robot.FollowTheLeaderOnline", "--cycles", "2",
      "--stimulus", "PATH"], True, errno.ENOENT),
    (["sim-ed", *TOAST, "--main", "robot.ToastArmController", "--script", "PATH"],
     False, errno.EISDIR),
], ids=["missing stimulus", "script is a directory"])
def test_an_unreadable_data_file_is_a_usage_error(capsys, tmp_path, command, missing, why):
    path = tmp_path / "absent.txt" if missing else tmp_path
    code, out, err = run(capsys, *(str(path) if arg == "PATH" else arg for arg in command))
    assert (code, out, err) == (2, "", f"error: cannot read '{path}': {os.strerror(why)}\n")


def _read_whole(path) -> object:
    """A data file's numbered lines as they were read before streaming: the
    whole text with universal newlines, then ``str.splitlines``; or the
    refusal of a file that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        return f"cannot read '{path}': not UTF-8 text (byte {exc.start})"
    return [(n, line) for n, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")]


def _read_streamed(path) -> object:
    try:
        return list(maa.cli._data_lines(str(path)))
    except maa.engine.SetupError as exc:
        return str(exc)


# Every character str.splitlines ends a line at, blanks, comments, and
# characters of two to four bytes in UTF-8.
_LINE_PIECES = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029", "#", "  # c", " ", "\t", "p 1", "é", "€", "\U0001d4b3", "\n\n"]
_BAD_BYTES = [b"\xff", b"\xe2\x82", b"\xc3", b"\x80", b"\xed\xa0\x80"]
_BOUNDARY = 8192  # io.DEFAULT_BUFFER_SIZE: a binary file's first read


@pytest.mark.parametrize("data", [
    b"a" * (_BOUNDARY - 1) + "é".encode() + b"\nb\n",  # a character across the read
    b"a" * (_BOUNDARY - 1) + b"\r\nb\r",  # a CRLF across it, a lone CR at the end
    *(b"a" * (_BOUNDARY - k) + bad + b"\nz" for k in range(4) for bad in _BAD_BYTES),
    b"p 1\n" * 3000 + b"\xe2\x82\n",  # a bad byte many lines and reads in
    b"p 1\xc3",  # a sequence cut off by the end of the file
], ids=lambda data: f"{len(data)}-bytes")
def test_data_lines_stream_as_the_whole_text_splits(tmp_path, data):
    path = tmp_path / "data.txt"
    path.write_bytes(data)
    assert _read_streamed(path) == _read_whole(path)


def test_data_lines_stream_as_the_whole_text_splits_on_generated_texts(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "data.txt"
    for _ in range(300):
        data = "".join(rng.choices(_LINE_PIECES, k=rng.randrange(12))).encode()
        if rng.random() < 0.2:
            data = b"x" * rng.randrange(_BOUNDARY - 8, _BOUNDARY + 8) + data
        if rng.random() < 0.4:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice(_BAD_BYTES) + data[at:]
        path.write_bytes(data)
        assert _read_streamed(path) == _read_whole(path), data


def test_internal_error_exit_four_in_one_line(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(maa.cli, "iter_ts", broken)
    code, out, err = run(capsys, "sim-ts", *PIPELINE, "--main", "pipeline.Pipeline",
                         "--cycles", "2")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: engine fault\n"
    assert "Traceback" not in err


def test_memory_error_while_parsing_exit_four_in_one_line(capsys, monkeypatch, tmp_path):
    # The parser lexes a file a batch at a time; running out of memory in a
    # later batch is reported like any other MemoryError.
    tokenize, batches = maa.parser.tokenize, []

    def exhausted(*args):
        batches.append(args)
        if len(batches) == 3:
            raise MemoryError("no room for a third batch")
        return tokenize(*args)

    w = workloads.generate("wide_automaton", 1, "smoke")
    files = []
    for name, text in [*w.models.items(), *w.types.items()]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        files += [str(path)] if name.endswith(".maa") else ["--types", str(path)]
    monkeypatch.setattr(maa.parser, "tokenize", exhausted)
    code, out, err = run(capsys, "sim-ts", *files, "--main", w.main, "--cycles", "5")
    assert (code, out, err) == (4, "", "internal error: MemoryError: no room for a third batch\n")
    assert len(batches) == 3


def test_closed_stdout_exits_two_without_a_message(tmp_path):
    # ``maa sim-ts ... | head -2``: the reader goes away after two lines
    model = tmp_path / "B.maa"
    model.write_text("component B { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = 1; } }", encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-m", "maa.cli", "sim-ts", str(model), "--main", "B",
         "--cycles", "100000"],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [child.stdout.readline() for _ in range(2)]
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert lines == [b"cycle\tin:p\tout:o\tstate\n", b"1\t--\t--\tS\n"]
    assert err == b""


def test_closed_stdout_during_a_runtime_error_exits_two_without_a_message(tmp_path):
    # The rows before the error are flushed into a pipe whose reader is gone.
    # Standard output stays block-buffered, as into any pipe by default, so
    # the rows reach the pipe only at that flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    model = tmp_path / "F.maa"
    model.write_text("component F { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = p; } }", encoding="utf-8")
    stimulus = tmp_path / "s.tsv"
    stimulus.write_text("p\n1\n--\n", encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    try:
        child = subprocess.run(
            [sys.executable, "-m", "maa.cli", "sim-ts", str(model), "--main", "F",
             "--stimulus", str(stimulus), "--cycles", "3"],
            env=dict(env, PYTHONPATH=str(REPO_ROOT / "src")), stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (2, b"")


def test_out_of_memory_exit_four_in_one_line(tmp_path):
    # A run too long for its memory: the handler must report the MemoryError
    # after the failed run's frames are freed, not die printing a traceback.
    # Enumeration keeps one level of its trace graph per cycle, each with the
    # records of its edges, so a long enough run exhausts the memory limit
    # while it builds the graph, before any trace is printed.  Interpreter
    # start and imports take about 21 MB of address space; the smaller the
    # limit above that, the sooner the run reaches the handler.
    resource = pytest.importorskip("resource")
    limit = 100 * 2**20
    model = tmp_path / "B.maa"
    model.write_text("component B { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = 1; } }", encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "maa.cli", "sim-ts", str(model), "--main", "B",
         "--cycles", "100000000", "--enumerate"],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), capture_output=True,
        text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert child.returncode == 4, child.stderr[-2000:]
    assert child.stderr.startswith("internal error: MemoryError")
    assert len(child.stderr.splitlines()) == 1


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


@pytest.mark.parametrize("command", [
    ["check"], ["sim-ts", "--main", "A", "--cycles", "2"], ["export-ir"],
], ids=["check", "sim-ts", "export-ir"])
def test_self_containing_component_is_an_r0_error(capsys, tmp_path, command):
    model = tmp_path / "A.maa"
    model.write_text("component A { port in Integer i; component A a; }", encoding="utf-8")
    code, out, err = run(capsys, command[0], str(model), *command[1:])
    assert code == 1
    assert (out or err) == (
        f"{model}:1:34 error R0: component 'A' contains itself through subcomponent 'a'\n")


@pytest.mark.parametrize("command", [
    ["check"], ["check", "--profile", "ts"], ["check", "--profile", "ed"], ["export-ir"],
    ["sim-ts", "--main", "Q", "--cycles", "2"],
], ids=["check", "check-ts", "check-ed", "export-ir", "sim-ts"])
def test_a_connector_cycle_is_an_r0_error(capsys, tmp_path, command):
    # p forwards i to o in the cycle it reads it, so p.o -> p.i closes a loop
    # that no atomic instance delays; two such parts in a chain do not
    (tmp_path / "P.maa").write_text(
        "component P { port in Integer i, out Integer o; connect i -> o; }", encoding="utf-8")
    model = tmp_path / "Q.maa"
    model.write_text("component Q { port out Integer o; component P p;"
                     " connect p.o -> p.i; connect p.o -> o; }", encoding="utf-8")
    files = [str(tmp_path / "P.maa"), str(model)]
    code, out, err = run(capsys, command[0], *files, *command[1:])
    assert code == 1
    assert (out or err) == (f"{model}:1:50 error R0: connector 'p.o -> p.i' is on a cycle "
                            "that passes no atomic instance\n")
    model.write_text("component Q { port in Integer i, out Integer o; component P a;"
                     " component P b; connect i -> a.i; connect a.o -> b.i; connect b.o -> o; }",
                     encoding="utf-8")
    assert run(capsys, command[0], *files, *command[1:])[0] == 0


@pytest.mark.parametrize("command", [
    ["check", "--profile", "ts"], ["sim-ts", "--main", "C", "--cycles", "1"],
], ids=["check", "sim-ts"])
def test_variable_without_a_default_is_an_r0_error(capsys, tmp_path, command):
    model = tmp_path / "C.maa"
    model.write_text("component C { port in Integer p; t.E v; }", encoding="utf-8")
    types = tmp_path / "t.types"
    types.write_text("package t; enum E { }", encoding="utf-8")
    code, out, err = run(capsys, command[0], str(model), "--types", str(types), *command[1:])
    assert code == 1
    assert (out or err) == f"{model}:1:38 error R0: enum 't.E' has no literals to default to\n"


def test_sim_ts_runs_a_1500_deep_hierarchy(capsys, tmp_path):
    depth = 1500
    for k in range(depth):
        body = ("automaton { state S; initial S / o = 0; S -> S / o = 1; }" if k == depth - 1
                else f"component C{k + 1} c; connect i -> c.i; connect c.o -> o;")
        (tmp_path / f"C{k}.maa").write_text(
            f"component C{k} {{ port in Integer i, out Integer o; {body} }}", encoding="utf-8")
    code, out, _ = run(capsys, "sim-ts", *map(str, tmp_path.glob("*.maa")),
                       "--main", "C0", "--cycles", "2")
    assert code == 0
    leaf = ".".join(["c"] * (depth - 1))
    assert out == f"cycle\tin:i\tout:o\tstate\n1\t--\t0\t{leaf}=S\n2\t--\t1\t{leaf}=S\n"


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
    code, out, err = run(capsys, "sim-ts", str(model), "--main", "C", "--cycles", "2")
    assert code == 3
    assert "cycle 1" in err and "absent" in err
    assert out == ""


@pytest.mark.parametrize("block, cell", [("o = 1, o = --", "--"), ("o = --, o = 1", "1")])
def test_sim_ts_sends_the_last_value_a_block_gives_a_port(capsys, tmp_path, block, cell):
    # atomic, where the main reads both ports, and composed, where only l.o
    # is read
    (tmp_path / "L.maa").write_text(
        "component L { port out Integer o, out Integer u; automaton {"
        " state S; initial S; S / {" + block + "}; } }", encoding="utf-8")
    (tmp_path / "Top.maa").write_text(
        "component Top { port out Integer o; component L l; connect l.o -> o; }",
        encoding="utf-8")
    files = [str(tmp_path / "L.maa"), str(tmp_path / "Top.maa")]
    expected = {"L": f"cycle\tout:o\tout:u\tstate\n1\t--\t--\tS\n2\t{cell}\t--\tS\n",
                "Top": f"cycle\tout:o\tstate\n1\t--\tl=S\n2\t{cell}\tl=S\n"}
    for main, rows in expected.items():
        for extra, tail in (([], ""), (["--enumerate"], "traces: 1\n")):
            code, out, err = run(capsys, "sim-ts", *files, "--main", main, "--cycles", "2", *extra)
            assert (code, out, err) == (0, rows + tail, "")


def test_sim_ts_runtime_error_keeps_the_rows_before_it(capsys, tmp_path):
    model = tmp_path / "fwd.maa"
    model.write_text("component C { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = p; } }", encoding="utf-8")
    stimulus = tmp_path / "s.tsv"
    stimulus.write_text("p\n1\n2\n--\n4\n", encoding="utf-8")
    code, out, err = run(capsys, "sim-ts", str(model), "--main", "C", "--cycles", "4",
                         "--stimulus", str(stimulus))
    assert code == 3
    assert out == "cycle\tin:p\tout:o\tstate\n1\t1\t--\tS\n2\t2\t1\tS\n"
    assert err == "runtime error: cycle 3: forwarding absent message from port 'p'\n"


@pytest.mark.parametrize("command", ["sim-ts", "sim-ed"])
def test_initialiser_reading_a_later_variable_is_a_runtime_error(capsys, tmp_path, command):
    # check accepts the model; variables are initialised in declaration order
    model = tmp_path / "later.maa"
    model.write_text("component C { port in Integer p, out Integer o; Integer v = w;"
                     " Integer w = 1; automaton { state S; initial S; S p = 1 / o = v; } }",
                     encoding="utf-8")
    script = tmp_path / "s.txt"
    script.write_text("p 1\n", encoding="utf-8")
    extra = ["--cycles", "2"] if command == "sim-ts" else ["--script", str(script)]
    code, out, err = run(capsys, command, str(model), "--main", "C", *extra)
    assert (code, out, err) == (3, "", "runtime error: unresolved name 'w' at runtime\n")


# Runs the command after its first argument, with standard output to the file
# that argument names, and prints its exit code and peak RSS.  A child's
# ru_maxrss starts from the RSS of the process that forked it, so the
# children are forked by this small process rather than by pytest.
LAUNCHER = """
import os, subprocess, sys
with open(sys.argv[1], "w") as out:
    child = subprocess.Popen(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs a child's own rusage")
def test_sim_ts_memory_does_not_grow_with_the_run(tmp_path):
    model = tmp_path / "B.maa"
    model.write_text("component B { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = 1; } }", encoding="utf-8")

    def peak_kb(cycles: int) -> int:
        launched = subprocess.run(
            [sys.executable, "-c", LAUNCHER, os.devnull, sys.executable, "-m", "maa.cli",
             "sim-ts", str(model), "--main", "B", "--cycles", str(cycles)],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, check=True)
        code, peak = map(int, launched.stdout.split())
        assert code == 0
        return peak  # KB on Linux

    assert peak_kb(10**5) - peak_kb(10**4) <= 5 * 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs a child's own rusage")
def test_sim_ts_enumerate_memory_grows_with_the_graph_not_the_traces(tmp_path):
    # enum_branching has one node per cycle in the trace graph, so depth 14
    # prints 128 times the traces of depth 10 from a graph of 14 levels: the
    # blocks are written as the walk reaches them, and none is kept
    def peak_kb(depth: int) -> int:
        w = workloads.generate("enum_branching", 1, depth=depth)
        [(name, text)] = w.models.items()
        (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / f"out{depth}.txt"
        launched = subprocess.run(
            [sys.executable, "-c", LAUNCHER, str(out), sys.executable, "-m", "maa.cli",
             "sim-ts", str(tmp_path / name), "--main", w.main, "--cycles", str(depth),
             "--enumerate", "--bound", str(len(w.expected_traces))],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, check=True)
        code, peak = map(int, launched.stdout.split())
        assert code == 0
        assert out.read_text(encoding="utf-8").endswith(f"traces: {2 ** (depth - 1)}\n")
        return peak  # KB on Linux

    assert peak_kb(14) - peak_kb(10) < 5 * 1024


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


def test_sim_ts_enumerate_over_the_bound_exit_three(capsys, tmp_path):
    model = tmp_path / "N.maa"
    model.write_text("component N { port out Integer o; automaton {"
                     " state S; initial S; S / o = 1; S / o = 2; } }", encoding="utf-8")
    code, out, err = run(capsys, "sim-ts", str(model), "--main", "N", "--cycles", "2",
                         "--enumerate", "--bound", "1")
    assert (code, out, err) == (3, "", "error: more than 1 distinct traces; raise the bound\n")


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


def test_a_main_of_connectors_alone(capsys, tmp_path):
    # it forwards under sim-ts with no atomic instance, so an empty state
    # cell; sim-ed needs an atomic main; an automaton beside them is R0
    model = tmp_path / "pass.maa"
    model.write_text("component P { port in Integer i, out Integer o; connect i -> o; }",
                     encoding="utf-8")
    stimulus = tmp_path / "stimulus.tsv"
    stimulus.write_text("i\n5\n6\n", encoding="utf-8")
    script = tmp_path / "script.txt"
    script.write_text("i 5\n", encoding="utf-8")
    assert run(capsys, "sim-ts", str(model), "--main", "P", "--stimulus", str(stimulus),
               "--cycles", "2") == (
        0, "cycle\tin:i\tout:o\tstate\n1\t5\t5\t\n2\t6\t6\t\n", "")
    assert run(capsys, "sim-ed", str(model), "--main", "P", "--script", str(script)) == (
        2, "", "error: event-driven simulation requires an atomic main component\n")
    model.write_text("component P { port in Integer i, out Integer o; connect i -> o;"
                     " automaton { state S; initial S; } }", encoding="utf-8")
    assert run(capsys, "check", str(model)) == (
        1, f"{model}:1:1 error R0: component 'P' mixes connectors and automaton behavior\n",
        "")


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


def test_sim_ts_ambiguous_simple_main_name_usage_error(capsys, tmp_path):
    paths = []
    for package in ("q", "p"):
        path = tmp_path / f"{package}.maa"
        path.write_text(f"package {package}; component C {{ port out Integer o; }}",
                        encoding="utf-8")
        paths.append(str(path))
    code, out, err = run(capsys, "sim-ts", *paths, "--main", "C", "--cycles", "1")
    assert (code, out, err) == (2, "", "error: main component 'C' is ambiguous (p.C, q.C)\n")
    code, _, err = run(capsys, "sim-ts", *paths, "--main", "D", "--cycles", "1")
    assert (code, err) == (2, "error: unknown main component 'D'\n")


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


# Stimulus cells are read as values of a model file; each of these is an
# error or a different token there.
@pytest.mark.parametrize("cells, message", [
    ('"a\\nb"\t1', "unsupported escape sequence"),
    ('"x"y"\t1', "unterminated string literal"),
    ('"a"\t1_000', "expected end of value, found '_000'"),
    ('"a"\t+7', "expected a value, found '+'"),
    ('"a"\t"5"', """'"5"' is not an Integer"""),
    ("true\t5", "String values must be double-quoted"),
    ('"a"\t1\t2', "more cells than header columns"),
], ids=["escape", "inner-quote", "underscore", "plus", "integer-type", "string-type",
        "extra-cell"])
def test_sim_ts_stimulus_cells_are_model_values(capsys, tmp_path, cells, message):
    model = tmp_path / "M.maa"
    model.write_text("component M { port in String s, in Integer n, out Integer o;"
                     " automaton { state S; initial S; S / o = n; } }", encoding="utf-8")
    stim = tmp_path / "stim.tsv"
    stim.write_text(f"s\tn\n{cells}\n", encoding="utf-8")
    code, out, err = run(capsys, "sim-ts", str(model), "--main", "M",
                         "--stimulus", str(stim), "--cycles", "1")
    assert (code, out, err) == (2, "", f"error: {stim}:2: {message}\n")


@pytest.mark.parametrize("command, lines, message", [
    (["sim-ts", "--cycles", "1", "--stimulus"], "e\nX\n", "2: 'X' is not a literal of t.E"),
    (["sim-ed", "--script"], "e X\n", "1: 'X' is not a literal of t.E"),
    (["sim-ed", "--script"], "e\n", "1: expected '<port> <value>'"),
    (["sim-ed", "--script"], "e --\n", "1: events cannot carry '--'"),
], ids=["stimulus-literal", "script-literal", "script-no-value", "script-absence"])
def test_enum_inputs_are_refused_with_their_line(capsys, tmp_path, command, lines, message):
    model = tmp_path / "M.maa"
    model.write_text("package t; component M { port in E e, out E o; automaton {"
                     " state S; initial S; S e = A / o = A; } }", encoding="utf-8")
    types = tmp_path / "e.types"
    types.write_text("package t; enum E { A, B }", encoding="utf-8")
    data = tmp_path / "data.txt"
    data.write_text(lines, encoding="utf-8")
    code, out, err = run(capsys, command[0], str(model), "--types", str(types), "--main", "M",
                         *command[1:], str(data))
    assert (code, out, err) == (2, "", f"error: {data}:{message}\n")


def test_sim_ts_duplicate_stimulus_column_usage_error(capsys, tmp_path):
    # which of the two cells would p read?
    model = tmp_path / "P.maa"
    model.write_text("component P { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S p = 2 / o = 1; } }", encoding="utf-8")
    stim = tmp_path / "dup.tsv"
    stim.write_text("# twice\np\tp\n1\t2\n", encoding="utf-8")
    code, out, err = run(capsys, "sim-ts", str(model), "--main", "P",
                         "--stimulus", str(stim), "--cycles", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {stim}:2: column 'p' appears twice\n"


@pytest.mark.parametrize("command, name, lines, message", [
    (["sim-ts", "--cycles", "1", "--stimulus"], "g.tsv", "t\n1\n",
     "g.tsv:2: port has no concrete type"),
    (["sim-ed", "--script"], "g.txt", "t 1\n", "g.txt:1: port has no concrete type"),
    (["sim-ts", "--cycles", "1", "--stimulus"], "q.tsv", "q\n1\n",
     "q.tsv:1: 'q' is not an in-port of 'G'"),
], ids=["stimulus-type-parameter", "script-type-parameter", "stimulus-not-an-in-port"])
def test_inputs_to_a_generic_main_are_refused(capsys, tmp_path, monkeypatch, command, name,
                                              lines, message):
    # the in-port t of G<T> has no type a cell could be read as
    monkeypatch.chdir(tmp_path)
    (tmp_path / "G.maa").write_text("component G<T> { port in T t, out T o; automaton {"
                                    " state S; initial S; S / o = t; } }", encoding="utf-8")
    (tmp_path / name).write_text(lines, encoding="utf-8")
    code, out, err = run(capsys, command[0], "G.maa", "--main", "G", *command[1:], name)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_sim_ed_stateless_instance_prints_a_dash(capsys, tmp_path):
    model = tmp_path / "C.maa"
    model.write_text("component C { port in Integer x, out Integer y; }", encoding="utf-8")
    script = tmp_path / "script.txt"
    script.write_text("x 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "sim-ed", str(model), "--main", "C", "--script", str(script))
    assert code == 0
    assert out == "recv x=1\nstate -\n"


def test_sim_ed_unknown_port_usage_error(capsys, tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text("nosuch FLASH\n", encoding="utf-8")
    code, _, err = run(capsys, "sim-ed", *TOAST, "--main", "robot.ToastArmController",
                       "--script", str(script))
    assert code == 2
    assert "in-port" in err


def test_sim_ed_runtime_error_keeps_the_blocks_before_it(capsys, tmp_path):
    model = tmp_path / "F.maa"
    model.write_text(FORWARD_Q, encoding="utf-8")
    script = tmp_path / "s.txt"
    script.write_text("p 1\np 0\np 2\np 1\n", encoding="utf-8")
    code, out, err = run(capsys, "sim-ed", str(model), "--main", "F", "--script", str(script))
    assert code == 3
    assert out == "recv p=1\nemit o=1\nstate S\n\nrecv p=0\nstate S\n"
    assert err == "runtime error: event 3: forwarding absent message from port 'q'\n"


def test_sim_ed_script_refused_on_its_last_line_prints_no_block(capsys, tmp_path):
    model = tmp_path / "F.maa"
    model.write_text(FORWARD_Q, encoding="utf-8")
    script = tmp_path / "s.txt"
    script.write_text("p 1\n" * 50 + "p x\n", encoding="utf-8")
    code, out, err = run(capsys, "sim-ed", str(model), "--main", "F", "--script", str(script))
    assert (code, out, err) == (2, "", f"error: {script}:51: 'x' is not an Integer\n")


def test_sim_ed_closed_stdout_exits_two_without_a_message(tmp_path):
    # ``maa sim-ed ... | head -2``: the reader goes away after two lines
    model = tmp_path / "F.maa"
    model.write_text(FORWARD_Q, encoding="utf-8")
    script = tmp_path / "s.txt"
    script.write_text("p 1\n" * 10000, encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-m", "maa.cli", "sim-ed", str(model), "--main", "F",
         "--script", str(script)],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [child.stdout.readline() for _ in range(2)]
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert lines == [b"recv p=1\n", b"emit o=1\n"]
    assert err == b""


@pytest.mark.parametrize("module, attr", [(maa.engine, "_successors"), (maa.cli, "format_value")],
                         ids=["engine", "output"])
def test_sim_ed_memory_error_mid_script_exit_four_in_one_line(capsys, monkeypatch, tmp_path,
                                                              module, attr):
    # Raised in the engine's step, or in the CLI while the run is suspended
    # between two events; either way the run ends in one line.
    model = tmp_path / "F.maa"
    model.write_text(FORWARD_Q, encoding="utf-8")
    script = tmp_path / "s.txt"
    script.write_text("p 1\n" * 10, encoding="utf-8")
    original, calls = getattr(module, attr), []

    def failing(*args):
        calls.append(args)
        if len(calls) == 5:
            raise MemoryError()
        return original(*args)

    monkeypatch.setattr(module, attr, failing)
    code, _, err = run(capsys, "sim-ed", str(model), "--main", "F", "--script", str(script))
    assert (code, err) == (4, "internal error: MemoryError: \n")


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs a child's own rusage")
def test_sim_ed_memory_does_not_grow_with_the_script(tmp_path):
    # Blocks are written as their events complete, and repeated script lines
    # share one event, so only the list of event references grows.
    model = tmp_path / "F.maa"
    model.write_text(FORWARD_Q, encoding="utf-8")

    def peak_kb(events: int) -> int:
        script = tmp_path / f"s{events}.txt"
        script.write_text("".join(f"p {k % 2}\nq {k % 10}\n" for k in range(events // 2)),
                          encoding="utf-8")
        launched = subprocess.run(
            [sys.executable, "-c", LAUNCHER, os.devnull, sys.executable, "-m", "maa.cli",
             "sim-ed", str(model), "--main", "F", "--script", str(script)],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, check=True)
        code, peak = map(int, launched.stdout.split())
        assert code == 0
        return peak  # KB on Linux

    assert peak_kb(20000) - peak_kb(2000) <= 5 * 1024


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


@pytest.mark.parametrize("where, reason", [
    ("missing/ir.json", "No such file or directory"), ("", "Is a directory"),
], ids=["missing directory", "directory"])
def test_export_ir_refuses_an_out_it_cannot_write(capsys, tmp_path, where, reason):
    target = str(tmp_path / where) if where else str(tmp_path)
    code, out, err = run(capsys, "export-ir", *BUMP, "--out", target)
    assert (code, out, err) == (2, "", f"error: cannot write '{target}': {reason}\n")


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


# ---------------------------------------------------------------------------
# fuzzing: every argument vector ends in a documented exit code
# ---------------------------------------------------------------------------

# Placeholders in an argument vector, replaced by files under tmp_path.
STIM, SCRIPT, CHOICE, MISSING, DIRECTORY, OUT = (
    "@stim", "@script", "@choice", "@missing", "@dir", "@out")
# Two choices when p is 1, a runtime error (forwarding absent p) otherwise.
CHOICE_MODEL = ("component Choice { port in Integer p, out Integer o; automaton {"
                " state S; initial S; S p = 1 / o = 1 | 2; S / o = p; } }")

# Model files with the main component they declare, and files that are no model.
_MODELS = [(FOLLOW, "robot.FollowTheLeaderOnline"), (TOAST, "robot.ToastArmController"),
           (BUMP, "bumperbot.BumpControl"), (PIPELINE, "pipeline.Pipeline"),
           (PIPELINE, "Sink"), ([CHOICE], "Choice"), ([CHOICE], "Choice"),
           (FOLLOW[:1], "robot.FollowTheLeaderOnline"),
           ([MISSING], "C"), ([DIRECTORY], "C"), ([STIM], "C"), ([SCRIPT], "C")]
_BAD_NUMBERS = ("0", "-1", "x", "", "1e3")


def _flag(name, good, bad=()):
    """An option with a good value three times in four, when there are bad ones."""
    values = st.sampled_from(good)
    if bad:
        values = st.one_of(values, values, values, st.sampled_from(bad))
    return st.tuples(st.just(name), values)


_CYCLES = _flag("--cycles", ("1", "2", "3", "007"), _BAD_NUMBERS)
_TYPES = _flag("--types", (FOLLOW[-1], BUMP[-1]), (MISSING, STIM))
_FORCE = st.just(("--force",))
_OPTIONAL = {
    "check": [_TYPES, _flag("--profile", ("generic", "ts", "ed"), ("bogus",)),
              _flag("--format", ("text", "json"), ("xml",))],
    "sim-ts": [_TYPES, _flag("--stimulus", (STIM,), (MISSING, DIRECTORY, SCRIPT)),
               _flag("--policy", ("first", "seeded", "enumerate"), ("x",)),
               _flag("--seed", ("0", "5", "99999999999999999999"), _BAD_NUMBERS),
               _flag("--bound", ("1", "2", "1024"), _BAD_NUMBERS),
               st.just(("--enumerate",)), _FORCE],
    "sim-ed": [_TYPES, _flag("--policy", ("first", "seeded"), ("enumerate",)),
               _flag("--seed", ("0", "5"), ("x",)), _FORCE],
    "export-ir": [_TYPES, _flag("--out", (OUT,), (DIRECTORY, MISSING + "/x.json"))],
}
_ANY_FLAG = st.one_of(*(flag for flags in _OPTIONAL.values() for flag in flags),
                      _flag("--main", ("C",)), _CYCLES, _flag("--script", (SCRIPT,)),
                      st.just(("--bogus",)), st.just(("--help",)))


@st.composite
def _argvs(draw):
    """Mostly well-formed vectors for one subcommand; some leave out a
    required option, add another subcommand's option, or name no subcommand."""
    command = draw(st.sampled_from([*_OPTIONAL, *_OPTIONAL, "bogus"]))
    files, main_name = draw(st.sampled_from(_MODELS))
    flags = draw(st.lists(st.one_of(*_OPTIONAL.get(command, [_ANY_FLAG])), max_size=4))
    mostly = st.sampled_from([True] * 5 + [False])
    if command in ("sim-ts", "sim-ed") and draw(mostly):
        flags.append(draw(_flag("--main", (main_name,), ("Nope", ""))))
    if command == "sim-ts" and draw(mostly):
        flags.append(draw(_CYCLES))
    if command == "sim-ed" and draw(mostly):
        flags.append(draw(_flag("--script", (SCRIPT,), (MISSING, STIM))))
    if not draw(mostly):
        flags.append(draw(_ANY_FLAG))
    flags = draw(st.permutations(flags))
    return [command, *files, *(arg for flag in flags for arg in flag)]


_PORTS = ["inLane", "dist", "req", "reset", "mode", "signal", "distance", "p", "nope", ""]
_CELLS = ["true", "false", "--", "TOO_FAR", "DROP_TOAST", "PICK_UP_TOAST", "1", "-2",
          '"s"', '"', "x", "", " "]
_stimulus_texts = st.builds(
    lambda header, rows: "\n".join(["\t".join(header), *("\t".join(r) for r in rows)]),
    st.lists(st.sampled_from(_PORTS), min_size=1, max_size=3),
    st.lists(st.lists(st.sampled_from(_CELLS + ["# note"]), max_size=4), max_size=4),
)
_script_texts = st.lists(
    st.builds(lambda port, sep, value: port + sep + value,
              st.sampled_from(_PORTS), st.sampled_from([" ", "\t", "", "  "]),
              st.sampled_from(_CELLS + ["# note", "PICK_UP_TOAST extra"])),
    max_size=5).map("\n".join)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs(), stimulus=_stimulus_texts, script=_script_texts)
def test_cli_fuzz_exit_codes(tmp_path, argv, stimulus, script):
    files = {STIM: tmp_path / "stim.tsv", SCRIPT: tmp_path / "script.txt",
             CHOICE: tmp_path / "Choice.maa", MISSING: tmp_path / "missing",
             DIRECTORY: tmp_path, OUT: tmp_path / "out.json"}
    files[STIM].write_text(stimulus, encoding="utf-8")
    files[SCRIPT].write_text(script, encoding="utf-8")
    files[CHOICE].write_text(CHOICE_MODEL, encoding="utf-8")
    argv = [str(files[a]) if a in files
            else a.replace(MISSING, str(files[MISSING])) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
