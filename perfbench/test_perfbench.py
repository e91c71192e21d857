"""Tests of the benchmark itself, on the smoke size of every workload.

Run from the root of the checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(workload, trace):
    before = set((HERE / "work").glob("*"))
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set((HERE / "work").glob("*")) <= before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_depends_only_on_the_seed(workload):
    a, b, c = (workloads.generate(workload, s, "smoke") for s in (5, 5, 6))
    assert (a.models, a.stimulus, a.script) == (b.models, b.stimulus, b.script)
    assert (a.models, a.stimulus, a.script) != (c.models, c.stimulus, c.script)


def test_checkers_reject_a_wrong_result():
    w = workloads.generate("buffer_chain", 1, "smoke")
    rows = [(t, dict(out), state) for t, (out, state) in enumerate(w.expected_ts, start=1)]
    assert workloads.ts_mismatch(w, rows) is None
    rows[-1][1]["outp"] = "12345"
    assert "cycle" in workloads.ts_mismatch(w, rows)

    e = workloads.generate("ed_script", 1, "smoke")
    state, initial, steps = e.expected_ed
    assert workloads.ed_mismatch(e, state, initial, steps) is None
    assert workloads.ed_mismatch(e, state, initial, steps[:-1]) is not None

    b = workloads.generate("enum_branching", 1, "smoke")
    traces = sorted(b.expected_traces)
    assert len(traces) == 2 ** (b.cycles - 1)
    assert workloads.traces_mismatch(b, traces) is None
    assert workloads.traces_mismatch(b, traces[1:]) is not None


def test_chain_expectation_is_the_n_cycle_shift():
    w = workloads.generate("buffer_chain", 2, "smoke")
    n = w.instances
    for t, (outputs, _) in enumerate(w.expected_ts):
        value = w.stimulus[t - n]["inp"] if t >= n else None
        assert outputs["outp"] == ("--" if value is None else str(value))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = _run("enum_branching", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
