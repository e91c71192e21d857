"""Seeded workload generators and the expectations their outputs are checked against.

Nothing here imports ``maa``.  Each generator returns model text, type text and
a stimulus or event script, together with the expected result, which is
computed from the generator's own tables by a small reference stepper (or, for
``enum_branching``, in closed form).  The checkers compare that expectation
with a run's observable result, given as plain strings: ``--`` for absence, an
enum literal bare, an integer in decimal.

Values in stimuli and scripts are ``None`` (absent), an ``int``, or a ``str``
holding an enum literal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

PACKAGE = "bench"

# Workload sizes.  "full" is what the benchmark measures; "smoke" runs the same
# code and the same checks in well under a second per workload.
SIZES = {
    "full": {
        "wide_automaton": {"states": 50, "per_state": 100, "cycles": 400},
        "buffer_chain": {"instances": 200, "cycles": 1000},
        "ed_script": {"states": 20, "per_state": 15, "events": 20000},
        "enum_branching": {"depth": 7},
    },
    "smoke": {
        "wide_automaton": {"states": 6, "per_state": 8, "cycles": 40},
        "buffer_chain": {"instances": 8, "cycles": 40},
        "ed_script": {"states": 4, "per_state": 6, "events": 200},
        "enum_branching": {"depth": 4},
    },
}

ABSENT = "--"


@dataclass
class Workload:
    """Generated inputs of one workload and the result they must produce."""

    name: str
    engine: str                  # "run_ts", "run_ed" or "enumerate_ts"
    profile: str                 # "ts" or "ed"
    main: str                    # qualified name of the main component
    models: dict[str, str]       # file name -> .maa text
    types: dict[str, str]        # file name -> .types text
    enums: dict[str, str] = field(default_factory=dict)  # port -> enum name
    cycles: int = 0
    stimulus: list[dict[str, object]] = field(default_factory=list)
    script: list[tuple[str, object]] = field(default_factory=list)
    instances: int = 1
    # run_ts: one (outputs, state) pair per cycle, outputs as port -> string.
    expected_ts: list[tuple[dict[str, str], str]] = field(default_factory=list)
    # run_ed: initial state, initial emissions and one (emissions, state) per event.
    expected_ed: Optional[tuple] = None
    # enumerate_ts: the exact set of out-port columns, one tuple per trace.
    expected_traces: set[tuple[str, ...]] = field(default_factory=set)
    transitions: int = 0         # number of transitions across all components

    def in_ports(self) -> list[str]:
        return sorted({p for row in self.stimulus for p in row})

    def stimulus_tsv(self, ports: list[str]) -> str:
        lines = ["\t".join(ports)]
        lines += ["\t".join(_cell(row.get(p)) for p in ports) for row in self.stimulus]
        return "\n".join(lines) + "\n"

    def script_text(self) -> str:
        return "".join(f"{port} {_cell(value)}\n" for port, value in self.script)


def _cell(value) -> str:
    return ABSENT if value is None else str(value)


def generate(name: str, seed: int, size: str = "full", **params) -> Workload:
    """The workload ``name`` made from ``seed``; ``params`` override its size."""
    rng = random.Random(f"{name}:{seed}")
    return _GENERATORS[name](rng, **{**SIZES[size][name], **params})


# ---------------------------------------------------------------------------
# wide_automaton: one TS component, many guarded input-matching transitions
# ---------------------------------------------------------------------------

_CMP = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}
_CMDS = [f"C{i}" for i in range(10)]


def _wide(rng: random.Random, states: int, per_state: int, cycles: int) -> Workload:
    names = [f"S{i}" for i in range(states)]
    # Every state gets the same mix of guards, match widths and outputs, so
    # that a cycle costs the same whichever state the run is in.
    mix = list(zip(_dealt(rng, list(_CMP), per_state), _dealt(rng, range(10), per_state),
                   _dealt(rng, (1, 2, 3), per_state), _dealt(rng, (True, False), per_state),
                   _dealt(rng, (True,) * 7 + (False,) * 3, per_state)))
    table = []  # (source, target, op, k, cmds, y, z) in declaration order
    for source in names:
        for op, k, width, forward, send in rng.sample(mix, per_state):
            y = "x" if forward else rng.randrange(100)
            z = rng.choice(_CMDS) if send else None
            table.append((source, rng.choice(names), op, k,
                          rng.sample(_CMDS, width), y, z))
    rng.shuffle(table)  # interleave sources, as hand-written models do

    lines = [f"package {PACKAGE};", "", "component Wide {", "",
             "    port", "        in Integer x,", "        in Cmd c,",
             "        out Integer y,", "        out Cmd z;", "",
             "    automaton Controller {",
             "        state " + ", ".join(names) + ";",
             "        initial S0 / {y = 0, z = C0};", ""]
    for source, target, op, k, cmds, y, z in table:
        outputs = f"y = {y}" + (f", z = {z}" if z else "")
        lines.append(f"        {source} -> {target} [x {op} {k}] "
                     f"{{c = {' | '.join(cmds)}}} / {{{outputs}}};")
    lines += ["    }", "}"]

    xs = _with_gaps(rng, _dealt(rng, range(10), cycles), 0.1)
    cs = _with_gaps(rng, _dealt(rng, _CMDS, cycles), 0.1)
    stimulus = [{"x": x, "c": c} for x, c in zip(xs, cs)]

    # Reference stepper over the generator's table: first enabled transition
    # in declaration order, outputs observed one cycle after they are sent.
    by_source: dict[str, list] = {s: [] for s in names}
    for row in table:
        by_source[row[0]].append(row)
    state, pending = "S0", {"y": "0", "z": "C0"}
    expected = []
    for row in stimulus:
        observed = pending
        x, c = row["x"], row["c"]
        fired = None
        if x is not None and c is not None:
            for tr in by_source[state]:
                if _CMP[tr[2]](x, tr[3]) and c in tr[4]:
                    fired = tr
                    break
        if fired is None:
            pending = {"y": ABSENT, "z": ABSENT}
        else:
            _, state, _, _, _, y, z = fired
            pending = {"y": str(x if y == "x" else y), "z": z or ABSENT}
        expected.append((observed, state))

    return Workload(
        name="wide_automaton", engine="run_ts", profile="ts", main=f"{PACKAGE}.Wide",
        models={"Wide.maa": "\n".join(lines) + "\n"},
        types={"bench.types": _enum_file({"Cmd": _CMDS})},
        enums={"c": "Cmd", "z": "Cmd"}, cycles=cycles, stimulus=stimulus,
        expected_ts=expected, transitions=len(table))


# ---------------------------------------------------------------------------
# buffer_chain: a line of one-transition buffers
# ---------------------------------------------------------------------------

def _chain(rng: random.Random, instances: int, cycles: int) -> Workload:
    buf = "\n".join([
        f"package {PACKAGE};", "", "component Buf {", "",
        "    port", "        in Integer i,", "        out Integer o;", "",
        "    automaton Relay {", "        state Run;", "        initial Run;", "",
        "        Run [i >= 0] / {o = i};", "    }", "}", ""])
    lines = [f"package {PACKAGE};", "", "component Chain {", "",
             "    port", "        in Integer inp,", "        out Integer outp;", ""]
    lines += [f"    component Buf b{k};" for k in range(instances)]
    lines.append("")
    lines.append("    connect inp -> b0.i;")
    lines += [f"    connect b{k}.o -> b{k + 1}.i;" for k in range(instances - 1)]
    lines += [f"    connect b{instances - 1}.o -> outp;", "}", ""]

    values = _with_gaps(rng, [rng.randrange(1000) for _ in range(cycles)], 0.2)
    stimulus = [{"inp": v} for v in values]
    # The N-cycle shift: what enters at cycle t leaves at cycle t + N.
    expected = []
    for t in range(cycles):
        value = stimulus[t - instances]["inp"] if t >= instances else None
        expected.append(({"outp": _cell(value)}, "Run"))

    return Workload(
        name="buffer_chain", engine="run_ts", profile="ts", main=f"{PACKAGE}.Chain",
        models={"Buf.maa": buf, "Chain.maa": "\n".join(lines)}, types={},
        cycles=cycles, stimulus=stimulus, instances=instances,
        expected_ts=expected, transitions=1)


# ---------------------------------------------------------------------------
# ed_script: one event-driven controller fed a long event script
# ---------------------------------------------------------------------------

_OPS = [f"O{i}" for i in range(8)]


def _ed(rng: random.Random, states: int, per_state: int, events: int) -> Workload:
    names = [f"Q{i}" for i in range(states)]
    table = []  # (source, target, trigger, payload, seq, echo) in declaration order
    # The same mix of triggers and output lengths in every state.
    mix = list(zip(_dealt(rng, ("op", "n"), per_state), _dealt(rng, (0, 1, 2), per_state)))
    for source in names:
        for trigger, length in rng.sample(mix, per_state):
            target = rng.choice(names)
            if trigger == "op":
                ops = rng.sample(_OPS, 1 + length % 2)
                seq = [rng.randrange(100) for _ in range(length)]
                echo = ["op"] + rng.sample(_OPS, 2 - length)
                table.append((source, target, "op", ops, seq, echo))
            else:
                op = rng.choice(("<", ">=", ">", "<="))
                bound = "last" if length == 0 else rng.randrange(100)
                seq = ["n"] + [rng.randrange(100) for _ in range(length)]
                table.append((source, target, "n", (op, bound), seq, []))

    lines = [f"package {PACKAGE};", "", "component Ctl {", "",
             "    port", "        in Op op,", "        in Integer n,",
             "        out Integer seq,", "        out Op echo;", "",
             "    Integer last = 0;", "",
             "    automaton Dispatcher {",
             "        state " + ", ".join(names) + ";",
             "        initial Q0 / {echo = O0};", ""]
    for source, target, trigger, payload, seq, echo in table:
        outputs = []
        if seq:
            outputs.append(f"seq = [{', '.join(map(str, seq))}]")
        if echo:
            outputs.append(f"echo = [{', '.join(echo)}]")
        if trigger == "op":
            head = f"{source} -> {target} {{op = {' | '.join(payload)}}}"
        else:
            head = f"{source} -> {target} [n {payload[0]} {payload[1]}]"
            outputs.append("last = n")
        lines.append(f"        {head} / {{{', '.join(outputs)}}};")
    lines += ["    }", "}"]

    script = [("op", rng.choice(_OPS)) if port == "op" else ("n", rng.randrange(100))
              for port in _dealt(rng, ("op", "n"), events)]

    # Reference stepper: the first transition of the current state, in
    # declaration order, that reads the event's port and accepts its value.
    by_source: dict[str, list] = {s: [] for s in names}
    for row in table:
        by_source[row[0]].append(row)
    state, last = "Q0", 0
    steps = []
    for port, value in script:
        emissions: list[tuple[str, list[str]]] = []
        for source, target, trigger, payload, seq, echo in by_source[state]:
            if trigger != port:
                continue
            if port == "op":
                if value not in payload:
                    continue
            else:
                op, bound = payload
                if not _CMP[op](value, last if bound == "last" else bound):
                    continue
            if seq:
                emissions.append(("seq", [str(value if v == "n" else v) for v in seq]))
            if echo:
                emissions.append(("echo", [value if v == "op" else v for v in echo]))
            if port == "n":
                last = value
            state = target
            break
        steps.append((emissions, state))

    return Workload(
        name="ed_script", engine="run_ed", profile="ed", main=f"{PACKAGE}.Ctl",
        models={"Ctl.maa": "\n".join(lines) + "\n"},
        types={"bench.types": _enum_file({"Op": _OPS})},
        enums={"op": "Op", "echo": "Op"}, script=script,
        expected_ed=("Q0", [("echo", ["O0"])], steps), transitions=len(table))


# ---------------------------------------------------------------------------
# enum_branching: four enabled choices, two distinct outputs, every cycle
# ---------------------------------------------------------------------------

def _branching(rng: random.Random, depth: int) -> Workload:
    first, a, b = rng.sample(range(1000), 3)
    order = [a, b, a, b]
    rng.shuffle(order)
    text = "\n".join([
        f"package {PACKAGE};", "", "component Branch {", "",
        "    port", "        out Integer o;", "",
        "    automaton Chooser {", "        state S;", f"        initial S / {{o = {first}}};", ""]
        + [f"        S / {{o = {v}}};" for v in order]
        + ["    }", "}", ""])
    # Cycle 1 observes the initial output; every later cycle observes one of
    # the two values chosen a cycle earlier.  The last choice is never seen,
    # so 4^depth branches yield 2^(depth - 1) distinct traces.
    expected = {(str(first),) + tail
                for tail in _words((str(a), str(b)), depth - 1)}
    return Workload(
        name="enum_branching", engine="enumerate_ts", profile="ts",
        main=f"{PACKAGE}.Branch", models={"Branch.maa": text}, types={},
        cycles=depth, expected_traces=expected, transitions=4,
        expected_ts=[({"o": str(first)}, "S")]
        + [({"o": str(order[0])}, "S")] * (depth - 1))


def _dealt(rng: random.Random, values, n: int) -> list:
    """n values dealt from ``values`` in turn, then shuffled: every seed gets
    the same mix, so the work of a workload does not depend on its seed."""
    values = list(values)
    dealt = [values[i % len(values)] for i in range(n)]
    rng.shuffle(dealt)
    return dealt


def _with_gaps(rng: random.Random, values: list, share: float) -> list:
    """``values`` with an exact share of them, at seeded places, absent."""
    gaps = set(rng.sample(range(len(values)), round(share * len(values))))
    return [None if i in gaps else v for i, v in enumerate(values)]


def _words(letters: tuple[str, ...], length: int):
    words = [()]
    for _ in range(length):
        words = [w + (letter,) for w in words for letter in letters]
    return words


def _enum_file(enums: dict[str, list[str]]) -> str:
    body = "".join(f"enum {name} {{ {', '.join(lits)} }}\n" for name, lits in enums.items())
    return f"package {PACKAGE};\n\n{body}"


_GENERATORS = {
    "wide_automaton": _wide,
    "buffer_chain": _chain,
    "ed_script": _ed,
    "enum_branching": _branching,
}
WORKLOADS = list(_GENERATORS)


# ---------------------------------------------------------------------------
# Checkers: compare an observed result, as strings, with the expectation
# ---------------------------------------------------------------------------

def ts_mismatch(w: Workload, rows: list[tuple[int, dict[str, str], Optional[str]]]) -> Optional[str]:
    """First disagreement of (cycle, outputs, state) rows with ``expected_ts``.

    ``state`` may be ``None`` where the observer does not report it.
    """
    if len(rows) != len(w.expected_ts):
        return f"{len(rows)} cycles, expected {len(w.expected_ts)}"
    for t, ((index, outputs, state), (want_out, want_state)) in enumerate(
            zip(rows, w.expected_ts), start=1):
        if index != t:
            return f"cycle {t} is numbered {index}"
        if outputs != want_out:
            return f"cycle {t}: outputs {outputs}, expected {want_out}"
        if state is not None and state != want_state:
            return f"cycle {t}: state {state}, expected {want_state}"
    return None


def ed_mismatch(w: Workload, initial_state: str, initial: list, steps: list) -> Optional[str]:
    """First disagreement of an event-driven result with ``expected_ed``."""
    want_state, want_initial, want_steps = w.expected_ed
    if (initial_state, initial) != (want_state, want_initial):
        return f"initial {(initial_state, initial)}, expected {(want_state, want_initial)}"
    if len(steps) != len(want_steps):
        return f"{len(steps)} steps, expected {len(want_steps)}"
    for k, (got, want) in enumerate(zip(steps, want_steps), start=1):
        if got != want:
            return f"event {k}: {got}, expected {want}"
    return None


def traces_mismatch(w: Workload, columns: list[tuple[str, ...]]) -> Optional[str]:
    """Whether an enumerated trace set is exactly the closed-form set."""
    if len(columns) != len(set(columns)):
        return "duplicate traces"
    if set(columns) != w.expected_traces:
        return (f"{len(columns)} traces, expected {len(w.expected_traces)}; "
                f"{len(set(columns) - w.expected_traces)} unexpected")
    return None


def parse_tsv_trace(text: str, out_ports: list[str]) -> list[tuple[int, dict[str, str], str]]:
    """Rows of one TSV trace block as printed by ``maa sim-ts``."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split("\t")
    columns = {name: header.index(f"out:{name}") for name in out_ports}
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        rows.append((int(cells[0]), {p: cells[i] for p, i in columns.items()}, cells[-1]))
    return rows


def parse_ed_text(text: str) -> tuple[Optional[str], list, list]:
    """(initial state, initial emissions, steps) from ``maa sim-ed`` output."""
    blocks = [b for b in text.strip("\n").split("\n\n") if b]
    initial_state, initial = None, []
    steps = []
    for block in blocks:
        emissions: list[tuple[str, list[str]]] = []
        state = None
        lines = block.split("\n")
        for line in lines:
            kind, rest = line.split(" ", 1)
            if kind == "emit":
                port, value = rest.split("=", 1)
                if emissions and emissions[-1][0] == port:
                    emissions[-1][1].append(value)
                else:
                    emissions.append((port, [value]))
            elif kind == "state":
                state = rest
        if lines[0].startswith("recv "):
            steps.append((emissions, state))
        else:
            initial_state, initial = state, emissions
    return initial_state, initial, steps
