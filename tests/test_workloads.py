"""The benchmark's generated workloads, run through the CLI at smoke size.

``perfbench/workloads.py`` computes each workload's expected result without
``maa``, from the generator's own tables, so these checks share no code with
the engine.  ``buffer_chain`` in particular checks composition wiring: a
message must take one cycle per buffer to reach the end of the chain.
"""

from __future__ import annotations

import pytest

from maa.cli import main

from conftest import workloads


def _command(w, tmp_path) -> list[str]:
    """The CLI command the benchmark times for ``w``, with its inputs written."""
    for name, text in list(w.models.items()) + list(w.types.items()):
        (tmp_path / name).write_text(text, encoding="utf-8")
    command = [str(tmp_path / n) for n in w.models]
    command += [a for n in w.types for a in ("--types", str(tmp_path / n))]
    command += ["--main", w.main]
    if w.engine == "run_ed":
        (tmp_path / "script.txt").write_text(w.script_text(), encoding="utf-8")
        return ["sim-ed", *command, "--script", str(tmp_path / "script.txt")]
    command = ["sim-ts", *command, "--cycles", str(w.cycles)]
    if w.stimulus:
        (tmp_path / "stimulus.tsv").write_text(w.stimulus_tsv(w.in_ports()), encoding="utf-8")
        command += ["--stimulus", str(tmp_path / "stimulus.tsv")]
    if w.engine == "enumerate_ts":
        command += ["--enumerate", "--bound", str(len(w.expected_traces))]
    return command


def _one_state(cell: str) -> str:
    """The common state of all instances in a state cell, or the whole cell."""
    states = [part.split("=")[-1] for part in cell.split(";")]
    return states[0] if len(set(states)) == 1 else ";".join(states)


def _mismatch(w, text: str):
    if w.engine == "run_ed":
        return workloads.ed_mismatch(w, *workloads.parse_ed_text(text))
    if w.engine == "run_ts":
        rows = workloads.parse_tsv_trace(text, list(w.expected_ts[0][0]))
        return workloads.ts_mismatch(w, [(i, out, _one_state(s)) for i, out, s in rows])
    *blocks, count = text.rstrip("\n").rsplit("\n", 1)
    if count != f"traces: {len(w.expected_traces)}":
        return f"count line {count!r}"
    columns = [tuple(out["o"] for _, out, _ in workloads.parse_tsv_trace(block, ["o"]))
               for block in blocks[0].split("\n\n")]
    return workloads.traces_mismatch(w, columns)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_through_cli(capsys, tmp_path, name, seed):
    w = workloads.generate(name, seed, "smoke")
    code = main(_command(w, tmp_path))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert _mismatch(w, captured.out) is None
