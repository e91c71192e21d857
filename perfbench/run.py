"""Benchmark of the maa toolchain on one generated workload.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload wide_automaton --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, run_s, export_s, cli_s,
peak_rss_mb); ``--trace 1`` prints the per-layer metrics of a separate traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--size smoke`` runs
the same checks on tiny inputs.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import timing  # noqa: E402
import workloads  # noqa: E402
import tracing  # noqa: E402

# Rounds every run makes however short --seconds is.
MIN_ROUNDS = 2


class Failure(Exception):
    """An operation of the toolchain raised or exited non-zero."""


def load_toolchain():
    """Import maa from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import maa
    if Path(maa.__file__).resolve().parent != (SRC / "maa").resolve():
        raise SystemExit(f"error: imported maa from {maa.__file__}, not from {SRC}")
    import maa.checks
    import maa.cli
    import maa.engine
    import maa.ir
    import maa.lexer
    import maa.parser
    import maa.resolution
    return maa


class Bench:
    """One workload's inputs, the calls that time them, and their checks."""

    def __init__(self, maa, w: workloads.Workload, work: Path, launcher: timing.Launcher):
        self.maa = maa
        self.launcher = launcher
        self.w = w
        self.work = work
        self.correct = True
        self.attempted = 0
        self.output_bytes = 0
        engine = maa.engine
        self.absent = engine.ABSENT

        for name, text in list(w.models.items()) + list(w.types.items()):
            (work / name).write_text(text, encoding="utf-8")
        self.stimulus = [{p: self.value(p, v) for p, v in row.items()} for row in w.stimulus]
        self.script = [engine.Event(p, self.value(p, v)) for p, v in w.script]

        main = w.main
        models = [str(work / n) for n in w.models]
        types = [a for n in w.types for a in ("--types", str(work / n))]
        if w.engine == "run_ed":
            (work / "script.txt").write_text(w.script_text(), encoding="utf-8")
            command = ["sim-ed", *models, *types, "--main", main,
                       "--script", str(work / "script.txt")]
        else:
            command = ["sim-ts", *models, *types, "--main", main, "--cycles", str(w.cycles)]
            if w.stimulus:
                (work / "stimulus.tsv").write_text(w.stimulus_tsv(w.in_ports()), encoding="utf-8")
                command += ["--stimulus", str(work / "stimulus.tsv")]
            if w.engine == "enumerate_ts":
                command += ["--enumerate", "--bound", str(len(w.expected_traces))]
        self.command = command
        self.argv = [sys.executable, "-m", "maa.cli", *command]
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.out_path = str(work / "cli.out")

    def value(self, port: str, v):
        if v is None:
            return self.absent
        if port in self.w.enums:
            return self.maa.engine.EnumValue(f"{workloads.PACKAGE}.{self.w.enums[port]}", v)
        return v

    def text(self, v) -> str:
        """A runtime value as a string, by this benchmark's own rules."""
        if v is self.absent:
            return workloads.ABSENT
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, self.maa.engine.EnumValue):
            return v.literal
        return str(v)

    def mismatch(self, what: str, problem) -> None:
        if problem:
            self.correct = False
            print(f"{self.w.name}: {what}: {problem}", file=sys.stderr)

    # -- the four measured operations ---------------------------------------

    def setup(self):
        """Text to checked model, through the modules' public functions."""
        m = self.maa
        units, tunits = [], []
        for name, text in self.w.models.items():
            units.append(m.parser.parse_component_file(text, name))
        for name, text in self.w.types.items():
            tunits.append(m.parser.parse_types_file(text, name))
        if any(isinstance(u, list) for u in units + tunits):
            raise Failure("syntax errors in generated input")
        model, diags = m.resolution.resolve(units, tunits)
        diags = diags + m.checks.check(model, self.w.profile)
        return model, diags

    def run(self, model):
        e, w = self.maa.engine, self.w
        if w.engine == "run_ts":
            return e.run_ts(model, w.main, self.stimulus, w.cycles)
        if w.engine == "run_ed":
            return e.run_ed(model, w.main, self.script)
        return e.enumerate_ts(model, w.main, [], w.cycles, len(w.expected_traces))

    def export(self, model) -> str:
        return self.maa.ir.export_ir(model)

    def cli(self) -> timing.ChildResult:
        result = self.launcher.run(self.argv, self.env, str(ROOT), self.out_path)
        if result.code != 0:
            raise Failure(f"CLI exited {result.code}: {result.stderr.strip()[-500:]}")
        return result

    def cli_in_process(self) -> None:
        """``maa.cli.main`` on the child's command, its stdout to the same file."""
        with open(self.out_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            code = self.maa.cli.main(self.command)
        if code != 0:
            raise Failure(f"maa.cli.main returned {code}")

    # -- checks --------------------------------------------------------------

    def check_setup(self, result) -> None:
        _, diags = result
        self.mismatch("setup", [d.render() for d in diags])

    def ts_rows(self, trace) -> list:
        ports = list(self.w.expected_ts[0][0])
        return [(r.index, {p: self.text(r.outputs[p]) for p in ports},
                 _one_state(cs.state for cs in r.states.values()))
                for r in trace.records]

    def emissions(self, pairs) -> list:
        return [(port, [self.text(v) for v in values]) for port, values in pairs]

    def check_run(self, result) -> None:
        w = self.w
        if w.engine == "run_ts":
            self.mismatch("run_ts", workloads.ts_mismatch(w, self.ts_rows(result)))
        elif w.engine == "run_ed":
            steps = [(self.emissions(s.emissions), s.state.state) for s in result.steps]
            self.mismatch("run_ed", workloads.ed_mismatch(
                w, result.initial_state, self.emissions(result.initial_emissions), steps))
        else:
            columns = [tuple(self.text(r.outputs["o"]) for r in t.records) for t in result]
            self.mismatch("enumerate_ts", workloads.traces_mismatch(w, columns))

    def check_export(self, document: str) -> None:
        doc = json.loads(document)
        transitions = sum(len(a["transitions"]) for c in doc["components"]
                          for a in c.get("automata", []))
        if transitions != self.w.transitions:
            self.mismatch("export_ir", f"{transitions} transitions, "
                                       f"expected {self.w.transitions}")
        names = {c["name"] for c in doc["components"]}
        if self.w.main not in names:
            self.mismatch("export_ir", f"{self.w.main} missing from {sorted(names)}")

    def check_cli(self) -> None:
        w = self.w
        text = Path(self.out_path).read_text(encoding="utf-8")
        self.output_bytes = len(text.encode("utf-8"))
        if w.engine == "run_ed":
            self.mismatch("sim-ed", workloads.ed_mismatch(w, *workloads.parse_ed_text(text)))
        elif w.engine == "run_ts":
            ports = list(w.expected_ts[0][0])
            rows = [(i, out, _one_state(s.split("=")[-1] for s in state.split(";")))
                    for i, out, state in workloads.parse_tsv_trace(text, ports)]
            self.mismatch("sim-ts", workloads.ts_mismatch(w, rows))
        else:
            blocks = text.strip("\n").split("\n\n")
            last = blocks[-1].split("\n")
            if last[-1] != f"traces: {len(w.expected_traces)}":
                self.mismatch("sim-ts --enumerate", f"count line {last[-1]!r}")
            blocks[-1] = "\n".join(last[:-1])
            columns = [tuple(out["o"] for _, out, _ in workloads.parse_tsv_trace(b, ["o"]))
                       for b in blocks]
            self.mismatch("sim-ts --enumerate", workloads.traces_mismatch(w, columns))

    def policies(self, model) -> list:
        """enum_branching: one FirstDeclared and one Seeded run_ts."""
        e, w = self.maa.engine, self.w
        if w.engine != "enumerate_ts":
            return []
        self.attempted += 2
        return [e.run_ts(model, w.main, [], w.cycles, policy)
                for policy in (e.FirstDeclared(), e.Seeded(len(w.expected_traces) + 1))]

    def check_policies(self, traces: list) -> None:
        """Each policy run is a member of the enumerated set; the first-declared
        one is also the run the generator predicts."""
        for k, trace in enumerate(traces):
            column = tuple(self.text(r.outputs["o"]) for r in trace.records)
            if column not in self.w.expected_traces:
                self.mismatch("run_ts policy", f"{column} is not an enumerated trace")
            if k == 0:
                self.mismatch("run_ts FirstDeclared",
                              workloads.ts_mismatch(self.w, self.ts_rows(trace)))

    def warm_up(self):
        """An untimed in-process round, checked like the measured ones, so that
        imports and caches are settled before the clock starts."""
        self.attempted += 3
        result = self.setup()
        self.check_setup(result)
        model = result[0]
        self.check_run(self.run(model))
        self.check_export(self.export(model))
        self.check_policies(self.policies(model))
        return model


def _one_state(states) -> str:
    """The common state of all instances, or all of them when they differ."""
    states = list(states)
    return states[0] if len(set(states)) == 1 else ";".join(states)


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def measure(bench: Bench, seconds: float) -> dict:
    bench.warm_up()
    with timing.RefClock(bench.work / "clock.bin") as clock:
        sampler = timing.Sampler(clock)

        def counted(name, op, check, *args):
            result, calls = sampler.measure(name, lambda: op(*args))
            bench.attempted += calls
            check(result)
            return result

        children = []
        deadline = time.perf_counter() + seconds
        while len(children) < MIN_ROUNDS or time.perf_counter() < deadline:
            model, _ = counted("setup", bench.setup, bench.check_setup)
            counted("run", bench.run, bench.check_run, model)
            counted("export", bench.export, bench.check_export, model)
            del model
            gc.collect()
            child = bench.cli()
            bench.attempted += 1
            bench.check_cli()
            children.append(child)

    names = ("setup", "run", "export")
    metrics = {f"{name}_s": (sampler.seconds(name), "s") for name in names}
    metrics["cli_s"] = (statistics.median(clock.seconds(c.start, c.end) for c in children), "s")
    metrics["peak_rss_mb"] = (statistics.median(c.peak_rss_mb for c in children), "MB")
    print(f"{len(children)} rounds; raw wall medians on the shared CPU: "
          + ", ".join(f"{n} {sampler.raw(n):.4f} s" for n in names)
          + f", cli {statistics.median(c.end - c.start for c in children):.4f} s; samples: "
          + "; ".join(f"{n} " + " ".join(f"{v:.4g}" for v in sampler.samples(n))
                      for n in names), file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _targets(maa) -> list:
    """Public functions a span is recorded around, with the count of work each
    reports.  The parser calls tokenize through its own module attribute, and
    run_ts and enumerate_ts call build_plan through the engine's.  maa.cli
    calls the frontend and the engine through names it imported, so those
    are wrapped too, under the same span names."""
    lexer, parser, res, checks, ir, engine, cli = (
        maa.lexer, maa.parser, maa.resolution, maa.checks, maa.ir, maa.engine, maa.cli)
    targets = [
        (lexer, "tokenize", "lexer.tokenize", len),
        (parser, "tokenize", "lexer.tokenize", len),
        (parser, "parse_component_file", "parser.parse", None),
        (parser, "parse_types_file", "parser.parse", None),
        (res, "resolve", "resolution.resolve", None),
        (checks, "check", "checks.check", len),
        (ir, "export_ir", "ir.export_ir", lambda doc: len(doc.encode("utf-8"))),
        (engine, "build_plan", "engine.build_plan", lambda plan: len(plan.instances)),
        (engine, "run_ts", "engine.run_ts", lambda trace: len(trace.records)),
        (engine, "run_ed", "engine.run_ed", lambda trace: len(trace.steps)),
        (engine, "enumerate_ts", "engine.enumerate_ts", len),
    ]
    imported = [(cli, attr, name, count) for module, attr, name, count in targets
                if getattr(cli, attr, None) is getattr(module, attr)]
    return targets + imported + [(cli, "main", "cli.main", None)]


def _pass(bench: Bench):
    """setup, run, export and the policy runs once, unchecked."""
    model, diags = bench.setup()
    return (model, diags), bench.run(model), bench.export(model), bench.policies(model)


def _check_pass(bench: Bench, results, calls: int) -> None:
    setup, run, document, policy_runs = results
    bench.attempted += 3 * calls
    bench.check_setup(setup)
    bench.check_run(run)
    bench.check_export(document)
    bench.check_policies(policy_runs)


def _layer_metrics(spans: list[tracing.Span], dur: tracing.Duration) -> dict[str, float]:
    count, self_time, total = tracing.count, tracing.self_time, tracing.total
    tokens, tokenize_s = count(spans, "lexer.tokenize"), total(spans, "lexer.tokenize", dur)
    instances = max((s.count for s in spans if s.name == "engine.build_plan"), default=0)
    run_ts_s = self_time(spans, "engine.run_ts", dur)
    run_ed_s, events = total(spans, "engine.run_ed", dur), count(spans, "engine.run_ed")
    enumerate_s = self_time(spans, "engine.enumerate_ts", dur)
    traces = count(spans, "engine.enumerate_ts")
    return {
        "lexer.tokens": tokens,
        "lexer.tokenize_s": tokenize_s,
        "lexer.tokens_per_s": tokens / tokenize_s,
        "parser.parse_self_s": self_time(spans, "parser.parse", dur),
        "resolution.resolve_s": total(spans, "resolution.resolve", dur),
        "checks.check_s": total(spans, "checks.check", dur),
        "checks.diagnostics": count(spans, "checks.check"),
        "ir.export_ir_s": total(spans, "ir.export_ir", dur),
        "ir.bytes": count(spans, "ir.export_ir"),
        "engine.build_plan_s": total(spans, "engine.build_plan", dur),
        "engine.instances": instances,
        "engine.run_ts_us_per_instance_cycle":
            1e6 * run_ts_s / (instances * count(spans, "engine.run_ts")) if run_ts_s else 0.0,
        "engine.run_ed_us_per_event": 1e6 * run_ed_s / events if events else 0.0,
        "engine.enumerate_ts_s": enumerate_s,
        "engine.traces": traces,
        "engine.us_per_trace": 1e6 * enumerate_s / traces if traces else 0.0,
    }


def _alloc_peak_mb(bench: Bench, model) -> float:
    """tracemalloc peak during one run_ts (0 where the workload runs none)."""
    w = bench.w
    if w.engine == "run_ed":
        return 0.0
    tracemalloc.start()
    try:
        bench.maa.engine.run_ts(model, w.main, bench.stimulus, w.cycles)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _interpreter(bench: Bench, code: str) -> timing.ChildResult:
    argv = [sys.executable, "-c", code]
    return bench.launcher.run(argv, bench.env, str(ROOT), os.devnull)


UNITS = {
    "lexer.tokens": "count", "lexer.tokenize_s": "s", "lexer.tokens_per_s": "1/s",
    "parser.parse_self_s": "s", "resolution.resolve_s": "s", "checks.check_s": "s",
    "checks.diagnostics": "count", "ir.export_ir_s": "s", "ir.bytes": "bytes",
    "engine.build_plan_s": "s", "engine.instances": "count",
    "engine.run_ts_us_per_instance_cycle": "us", "engine.run_ts_alloc_peak_mb": "MB",
    "engine.run_ed_us_per_event": "us", "engine.enumerate_ts_s": "s",
    "engine.traces": "count", "engine.us_per_trace": "us",
    "cli.startup_s": "s", "cli.io_s": "s", "cli.output_bytes": "bytes",
    "tracing.overhead_pct": "%",
}


def traced(bench: Bench, seconds: float) -> dict:
    """Per-layer numbers: rounds of an untraced pass, a traced pass, a traced
    in-process ``maa.cli.main`` and two interpreter children, in turn, on the
    same clock as ``measure``.  Each pass is a sample of ``Sampler.measure``."""
    bench.warm_up()
    tracer = tracing.Tracer(_targets(bench.maa))
    pass_spans, cli_spans, children = [], [], []

    def traced_pass():
        with tracer:
            result = _pass(bench)
        pass_spans.append(tracer.take())
        return result

    def traced_cli():
        with tracer:
            bench.cli_in_process()
        cli_spans.append(tracer.take())

    with timing.RefClock(bench.work / "clock.bin") as clock:
        sampler = timing.Sampler(clock)
        deadline = time.perf_counter() + seconds
        while len(children) < MIN_ROUNDS or time.perf_counter() < deadline:
            for name, call in (("plain", lambda: _pass(bench)), ("traced", traced_pass)):
                _check_pass(bench, *sampler.measure(name, call))
            _, calls = sampler.measure("cli", traced_cli)
            bench.attempted += calls
            bench.check_cli()
            children.append((_interpreter(bench, "import maa.cli"),
                             _interpreter(bench, "pass")))

    dur = clock.seconds
    median = statistics.median
    layers = [_layer_metrics(spans, dur) for spans in pass_spans]
    metrics = {name: median(layer[name] for layer in layers) for name in layers[0]}
    metrics["engine.run_ts_alloc_peak_mb"] = _alloc_peak_mb(bench, bench.setup()[0])
    metrics["cli.startup_s"] = (median(dur(i.start, i.end) for i, _ in children)
                                - median(dur(b.start, b.end) for _, b in children))
    # What maa.cli.main does itself, beyond the frontend and engine calls:
    # reading the inputs, formatting and writing the trace.
    metrics["cli.io_s"] = median(tracing.self_time(spans, "cli.main", dur)
                                 for spans in cli_spans)
    metrics["cli.output_bytes"] = bench.output_bytes
    metrics["tracing.overhead_pct"] = 100 * (median(
        t / p for t, p in zip(sampler.samples("traced"), sampler.samples("plain"))) - 1)
    return {name: (value, UNITS[name]) for name, value in metrics.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "maa" / "__init__.py").is_file():
        print(f"error: no maa sources under {SRC}", file=sys.stderr)
        return 2
    timing.pin_to_one_cpu()
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with timing.Launcher() as launcher:
            maa = load_toolchain()
            w = workloads.generate(args.workload, args.seed, args.size)
            bench = Bench(maa, w, work, launcher)
            try:
                metrics = (traced if args.trace else measure)(bench, args.seconds)
            except Failure as exc:
                # A failed operation invalidates the run: no result is printed.
                print(f"{w.name}: {exc}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    sys.exit(main())
