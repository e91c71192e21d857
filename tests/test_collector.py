"""``maa.cli.main`` runs with the cyclic garbage collector off.

That is sound only if a run leaves no reference cycles behind: whatever a run
drops must be freed by reference counting alone.  Each test here runs the CLI
in process with the collector off, then collects once with
``gc.DEBUG_SAVEALL``, which keeps every unreachable object in ``gc.garbage``
instead of freeing it, and looks for what came from ``maa``: an instance of a
``maa`` class, a function defined in ``maa`` (a compiled closure) or a frame
of ``maa`` code.  argparse leaves cycles of its own in every call; they are
not counted, but they are the same in every call of the same shape.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import types
from pathlib import Path

import pytest

import maa
import maa.parser
from maa.cli import main

from conftest import MODELS, workloads
import differential

MAA_DIR = os.path.dirname(maa.__file__)


def _from_maa(obj) -> bool:
    if type(obj).__module__.split(".")[0] == "maa":
        return True
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").split(".")[0] == "maa"
    frame = getattr(obj, "f_code", None)
    return frame is not None and frame.co_filename.startswith(MAA_DIR)


def _quietly(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _cyclic_garbage(call) -> tuple[int, list[str]]:
    """Runs ``call`` with the collector off and returns what it left that only
    the collector could free: how many objects, and those from ``maa``."""
    gc.collect()  # what earlier tests left is not this call's
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return len(gc.garbage), [repr(obj)[:200] for obj in gc.garbage if _from_maa(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _runs(argvs: list[list[str]], codes: list[int]):
    """A call that runs ``argvs`` in turn, their exit codes added to ``codes``."""
    return lambda: codes.extend(_quietly(argv) for argv in argvs)


def _files(directory: Path, w) -> list[str]:
    """A workload's model and ``--types`` arguments, its files written."""
    files = []
    for name, text in [*w.models.items(), *w.types.items()]:
        (directory / name).write_text(text, encoding="utf-8")
        files += [str(directory / name)] if name in w.models else ["--types", str(directory / name)]
    return files


# ---------------------------------------------------------------------------
# runs that succeed, and those refused by check
# ---------------------------------------------------------------------------

def test_no_run_leaves_cycles_on_the_corpus_and_generated_models(tmp_path, monkeypatch):
    # Every subcommand on every model under models/ and on 60 generated ones,
    # as tests/differential.py runs them: exits 0, 1 and 3 occur.
    monkeypatch.chdir(tmp_path)
    os.symlink(MODELS, "models")
    argvs = [*differential.corpus(Path("."), random.Random(0)), *differential.failing(),
             *differential.generated(60, 0)]
    codes = []
    assert _cyclic_garbage(_runs(argvs, codes))[1] == []
    assert set(codes) == {0, 1, 3}


@pytest.mark.parametrize("name", ["wide_automaton", "buffer_chain", "ed_script",
                                  "enum_branching"])
def test_no_run_leaves_cycles_on_the_workloads(tmp_path, name):
    w = workloads.generate(name, 1, "smoke")
    files = _files(tmp_path, w)
    if w.engine == "run_ed":
        (tmp_path / "s.txt").write_text(w.script_text(), encoding="utf-8")
        run = ["sim-ed", *files, "--main", w.main, "--script", str(tmp_path / "s.txt")]
    else:
        run = ["sim-ts", *files, "--main", w.main, "--cycles", str(w.cycles)]
        if w.stimulus:
            (tmp_path / "s.tsv").write_text(w.stimulus_tsv(w.in_ports()), encoding="utf-8")
            run += ["--stimulus", str(tmp_path / "s.tsv")]
        if w.engine == "enumerate_ts":
            run += ["--enumerate"]
    argvs = [run, ["check", *files, "--profile", w.profile], ["export-ir", *files]]
    codes = []
    assert _cyclic_garbage(_runs(argvs, codes))[1] == []
    assert codes == [0, 0, 0]


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

FORWARD = ("component C { port in Integer p, out Integer o; automaton {"
           " state S; initial S; S / o = p; } }")
TWO_WAYS = ("component N { port out Integer o; automaton {"
            " state S; initial S; S / o = 1; S / o = 2; } }")
BAD = ("component C { port in Integer p, out Integer o; automaton {"
       " state S; initial S / o = [1, 2]; } }")

ERRORS = {
    "check error": (1, BAD, ["check", "--profile", "ts"]),
    "refused by check": (1, BAD, ["sim-ts", "--main", "C", "--cycles", "1"]),
    "syntax error": (1, "component C {", ["export-ir"]),
    "unknown main": (2, FORWARD, ["sim-ts", "--main", "D", "--cycles", "1"]),
    "unreadable script": (2, FORWARD, ["sim-ed", "--main", "C", "--script", "missing.txt"]),
    "runtime error": (3, FORWARD, ["sim-ts", "--main", "C", "--cycles", "2"]),
    "enumeration overflow": (3, TWO_WAYS, ["sim-ts", "--main", "N", "--cycles", "2",
                                           "--enumerate", "--bound", "1"]),
}


@pytest.mark.parametrize("code, text, argv", ERRORS.values(), ids=list(ERRORS))
def test_no_error_leaves_cycles(tmp_path, code, text, argv):
    model = tmp_path / "M.maa"
    model.write_text(text, encoding="utf-8")
    codes = []
    assert _cyclic_garbage(_runs([[argv[0], str(model), *argv[1:]]], codes))[1] == []
    assert codes == [code]


def test_a_closed_stdout_leaves_no_cycles(tmp_path):
    # The rows fill the pipe's buffer, so a write fails inside the run, while
    # iter_ts is suspended between two cycles.
    model = tmp_path / "B.maa"
    model.write_text("component B { port in Integer p, out Integer o; automaton {"
                     " state S; initial S; S / o = 1; } }", encoding="utf-8")
    codes = []

    def call():
        read_end, write_end = os.pipe()
        os.close(read_end)
        # main points the descriptor at devnull once the pipe fails, so the
        # close flushes what is left there
        with open(write_end, "w", encoding="utf-8") as stdout, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(["sim-ts", str(model), "--main", "B", "--cycles", "10000"]))

    assert _cyclic_garbage(call)[1] == []
    assert codes == [2]


def test_a_memory_error_while_parsing_leaves_no_cycles(tmp_path, monkeypatch):
    tokenize, batches = maa.parser.tokenize, []

    def exhausted(*args):
        batches.append(args)
        if len(batches) == 3:
            raise MemoryError("no room for a third batch")
        return tokenize(*args)

    w = workloads.generate("wide_automaton", 1, "smoke")
    files = _files(tmp_path, w)
    monkeypatch.setattr(maa.parser, "tokenize", exhausted)
    codes = []
    argv = ["sim-ts", *files, "--main", w.main, "--cycles", "5"]
    assert _cyclic_garbage(_runs([argv], codes))[1] == []
    assert codes == [4] and len(batches) == 3


# ---------------------------------------------------------------------------
# what the collector would see
# ---------------------------------------------------------------------------

def test_the_garbage_does_not_grow_with_the_run():
    # A run's cycles, argparse's included, are the same for 10 cycles as for
    # 1 000: nothing per cycle needs the collector.
    pipeline = sorted(str(p) for p in (MODELS / "pipeline").glob("*.maa"))

    def garbage(cycles: int) -> int:
        argv = ["sim-ts", *pipeline, "--main", "pipeline.Pipeline",
                "--stimulus", str(MODELS / "pipeline" / "stimulus.tsv"),
                "--cycles", str(cycles)]
        codes = []
        count, found = _cyclic_garbage(_runs([argv], codes))
        assert (codes, found) == ([0], [])
        return count

    assert garbage(10) == garbage(1000)


def test_no_collection_during_a_run_of_5000_transitions(tmp_path):
    w = workloads.generate("wide_automaton", 1, cycles=20)
    assert w.transitions == 5000
    files = _files(tmp_path, w)
    (tmp_path / "s.tsv").write_text(w.stimulus_tsv(w.in_ports()), encoding="utf-8")
    argv = ["sim-ts", *files, "--main", w.main, "--cycles", str(w.cycles),
            "--stimulus", str(tmp_path / "s.tsv")]
    collections = []

    def seen(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    assert gc.isenabled()
    gc.callbacks.append(seen)
    try:
        code = _quietly(argv)
    finally:
        gc.callbacks.remove(seen)
    assert (code, collections) == (0, [])
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("cycles, code", [("2", 0), ("0", 2)], ids=["ok", "refused"])
def test_main_restores_the_callers_setting(enabled, cycles, code):
    bump = [str(MODELS / "bumperbot" / "BumpControl.maa"),
            "--types", str(MODELS / "bumperbot" / "types" / "commands.types")]
    (gc.enable if enabled else gc.disable)()
    try:
        argv = ["sim-ts", *bump, "--main", "BumpControl", "--cycles", cycles]
        assert (_quietly(argv), gc.isenabled()) == (code, enabled)
    finally:
        gc.enable()
