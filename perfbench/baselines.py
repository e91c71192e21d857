"""Re-measure the baselines listed under ROADMAP open item 1, at the sizes
quoted there, in raw wall seconds (median of a few repeats, no pinning and no
reference clock, as the original figures were taken).

Run from the root of the checkout::

    python3 perfbench/baselines.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from maa import (ABSENT, EnumValue, Event, check, enumerate_ts, export_ir,  # noqa: E402
                 parse_component_file, parse_types_file, resolve, run_ed, run_ts)
from maa.lexer import tokenize  # noqa: E402

REPEATS = 3


def best_of(call, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load(paths: list[str], types: list[str]):
    units = [parse_component_file((ROOT / p).read_text(), p) for p in paths]
    tunits = [parse_types_file((ROOT / p).read_text(), p) for p in types]
    model, _ = resolve(units, tunits)
    return model


def show(what: str, value: float, unit: str) -> None:
    print(f"{what:<58} {value:>10.3f} {unit}")


def frontend() -> None:
    w = workloads.generate("wide_automaton", 1)
    text = w.models["Wide.maa"]
    types = [parse_types_file(t, n) for n, t in w.types.items()]
    print(f"frontend, wide_automaton seed 1: {len(text) // 1000} KB, "
          f"{len(tokenize(text, 'Wide.maa'))} tokens")
    show("  tokenize", best_of(lambda: tokenize(text, "Wide.maa")), "s")
    show("  parse (with tokenize)", best_of(lambda: parse_component_file(text, "Wide.maa")), "s")
    unit = parse_component_file(text, "Wide.maa")
    show("  resolve", best_of(lambda: resolve([unit], types)), "s")
    model, _ = resolve([unit], types)
    show("  check", best_of(lambda: check(model, "ts")), "s")
    show("  export-ir", best_of(lambda: export_ir(model)), "s")


def engines() -> None:
    follow = load(["models/robot/FollowTheLeaderOnline.maa"], ["models/robot/enums.types"])
    dists = [ABSENT, EnumValue("robot.Distance", "TOO_FAR"), EnumValue("robot.Distance", "TOO_CLOSE")]
    rows = [{"inLane": k % 5 != 0, "dist": dists[k % 3]} for k in range(20000)]
    main = "robot.FollowTheLeaderOnline"
    show("run_ts FollowTheLeaderOnline, 2000 cycles, per cycle",
         1e6 * best_of(lambda: run_ts(follow, main, rows, 2000)) / 2000, "us")
    tracemalloc.start()
    run_ts(follow, main, rows, 20000)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    show("run_ts FollowTheLeaderOnline, 20000 cycles, peak per cycle", peak / 20000 / 1024, "KB")

    w = workloads.generate("buffer_chain", 1, instances=300, cycles=2000)
    model = _checked(w)
    stimulus = [{"inp": ABSENT if r["inp"] is None else r["inp"]} for r in w.stimulus]
    seconds = best_of(lambda: run_ts(model, w.main, stimulus, w.cycles), 1)
    show("run_ts 300-buffer chain, 2000 cycles, per instance-cycle",
         1e6 * seconds / (300 * 2000), "us")

    w = workloads.generate("wide_automaton", 1)
    model = _checked(w)
    stimulus = [{p: ABSENT if v is None else (EnumValue("bench.Cmd", v) if p == "c" else v)
                 for p, v in r.items()} for r in w.stimulus]
    show("run_ts 5000 transitions over 50 states, per cycle",
         1e3 * best_of(lambda: run_ts(model, w.main, stimulus, w.cycles)) / w.cycles, "ms")

    toast = load(["models/robot/ToastArmController.maa"], ["models/robot/enums.types"])
    requests = [EnumValue("robot.Request", "PICK_UP_TOAST"), EnumValue("robot.Request", "DROP_TOAST")]
    script = [Event("req", requests[k % 2]) for k in range(10000)]
    show("run_ed ToastArmController, 10000 events, per event",
         1e6 * best_of(lambda: run_ed(toast, "robot.ToastArmController", script)) / 10000, "us")

    one = "\n".join(["component One {", "    port out Integer o;", "    automaton Same {",
                     "        state S;", "        initial S / {o = 0};"]
                    + ["        S / {o = 1};"] * 4 + ["    }", "}", ""])
    model, _ = resolve([parse_component_file(one, "One.maa")], [])
    for cycles in (4, 6, 8):
        show(f"enumerate_ts, one distinct trace, 4 choices a cycle, {cycles} cycles",
             best_of(lambda: enumerate_ts(model, "One", [], cycles), 1), "s")


def _checked(w):
    units = [parse_component_file(t, n) for n, t in w.models.items()]
    tunits = [parse_types_file(t, n) for n, t in w.types.items()]
    model, _ = resolve(units, tunits)
    return model


def cli() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = {
        "check BumpControl": ["check", "models/bumperbot/BumpControl.maa", "--types",
                              "models/bumperbot/types/commands.types", "--profile", "ts"],
        "sim-ts FollowTheLeaderOnline, 8 cycles": [
            "sim-ts", "models/robot/FollowTheLeaderOnline.maa", "--types",
            "models/robot/enums.types", "--main", "robot.FollowTheLeaderOnline",
            "--stimulus", "models/robot/follow_stimulus.tsv", "--cycles", "8"],
    }
    for what, args in commands.items():
        argv = [sys.executable, "-m", "maa.cli", *args]
        seconds = best_of(lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                                                 capture_output=True))
        show(f"CLI {what}, wall", seconds, "s")


if __name__ == "__main__":
    frontend()
    engines()
    cli()
