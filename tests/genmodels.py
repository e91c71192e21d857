"""Random model and stimulus generators for the property suites.

Generated components are atomic, three-state, time-synchronous-clean machines
over two in-ports (Integer a, Boolean b), two Integer out-ports, and one
Integer variable.  Outputs only use literals and --, so no run can hit the
forwarding-absent-message runtime error.  Output entries may offer two
alternatives, possibly equal, and a quarter of the transitions are declared
twice, so equal sibling successors occur.
"""

from __future__ import annotations

import random

from maa.checks import check
from maa.engine import ABSENT
from maa.parser import parse_component_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit

STATES = ("S0", "S1", "S2")


def random_component_text(rng: random.Random) -> str:
    lines = [
        "component Gen {",
        "    port",
        "        in Integer a,",
        "        in Boolean b,",
        "        out Integer x,",
        "        out Integer y;",
        "",
        f"    Integer v = {rng.randrange(-2, 3)};",
        "",
        "    automaton {",
        "        state S0, S1, S2;",
        f"        initial {rng.choice(STATES)} / x = {_values(rng, ('0', '1', '2'))};",
        "",
    ]
    transitions: list[str] = []
    for _ in range(rng.randrange(4, 9)):
        source = rng.choice(STATES)
        target = rng.choice(STATES)
        parts = [f"        {source} -> {target}"]
        if rng.random() < 0.5:
            op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            left = rng.choice(("a", "v"))
            parts.append(f"[{left} {op} {rng.randrange(-2, 5)}]")
        if rng.random() < 0.6:
            matches = []
            if rng.random() < 0.7:
                alts = rng.choice((f"{rng.randrange(-2, 5)}",
                                   f"{rng.randrange(-2, 5)} | {rng.randrange(-2, 5)}",
                                   "--"))
                matches.append(f"a = {alts}")
            if rng.random() < 0.5:
                matches.append(f"b = {rng.choice(('true', 'false', '--'))}")
            if rng.random() < 0.3:
                matches.append(f"v = {rng.randrange(-2, 5)}")
            if matches:
                parts.append("{" + ", ".join(matches) + "}")
        assigns = []
        if rng.random() < 0.8:
            assigns.append(f"x = {_values(rng, ('0', '1', '2', '3', '4', '--'))}")
        if rng.random() < 0.5:
            assigns.append(f"y = {_values(rng, ('0', '1', '2', '3', '4'))}")
        if rng.random() < 0.4:
            assigns.append(f"v = {_values(rng, ('-2', '-1', '0', '1', '2', '3', '4'))}")
        text = " ".join(parts)
        if assigns:
            text += " / {" + ", ".join(assigns) + "}"
        transitions.append(text + ";")
        if rng.random() < 0.25:
            transitions.append(rng.choice(transitions))
    lines += transitions
    lines += ["    }", "}"]
    return "\n".join(lines) + "\n"


def _values(rng: random.Random, pool: tuple[str, ...]) -> str:
    """One value from ``pool``, or, a third of the time, two alternatives,
    which may be equal."""
    if rng.random() < 1 / 3:
        return f"{rng.choice(pool)} | {rng.choice(pool)}"
    return rng.choice(pool)


def random_model(rng: random.Random):
    """A resolved, ts-clean random model; returns (model, main name)."""
    text = random_component_text(rng)
    unit = parse_component_file(text, "gen.maa")
    assert isinstance(unit, CompilationUnit), (unit, text)
    model, rdiags = resolve([unit], [])
    diags = rdiags + check(model, "ts")
    errors = [d for d in diags if d.severity == "error"]
    assert errors == [], (text, [d.render() for d in errors])
    return model, "Gen"


def random_row(rng: random.Random) -> dict:
    a = ABSENT if rng.random() < 0.35 else rng.randrange(-2, 5)
    b = ABSENT if rng.random() < 0.35 else rng.random() < 0.5
    return {"a": a, "b": b}


def random_stimulus(rng: random.Random, n_cycles: int) -> list[dict]:
    return [random_row(rng) for _ in range(n_cycles)]


def random_script(rng: random.Random, n_events: int) -> list[tuple[str, object]]:
    """Events as (in-port, value) pairs: an Integer on a or a Boolean on b."""
    return [("a", rng.randrange(-2, 5)) if rng.random() < 0.5 else ("b", rng.random() < 0.5)
            for _ in range(n_events)]


def perturbed_at(rng: random.Random, rows: list[dict], cycle: int) -> list[dict]:
    """Copy of rows guaranteed to differ exactly at the given 1-based cycle."""
    out = [dict(r) for r in rows]
    row = out[cycle - 1]
    old = row["a"]
    choices = [ABSENT, -2, -1, 0, 1, 2, 3, 4]
    row["a"] = rng.choice([c for c in choices
                           if (c is ABSENT) != (old is ABSENT) or c != old])
    return out
