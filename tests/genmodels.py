"""Random model and stimulus generators for the property suites.

Generated components are atomic, three-state machines over two in-ports
(Integer a, Boolean b), two Integer out-ports, and one Integer variable.
Output entries may offer two alternatives, possibly equal, and a quarter of
the transitions are declared twice, so equal sibling successors occur.

A quarter of the models declare no initial state, so they start silently in
S0 (warning C1 only).  ``random_model`` gives time-synchronous-clean machines,
a third of them with two initial declarations.  Their guards combine
comparisons of Integer terms (``a``, ``v``, unary ``-``, ``+`` and ``*``) and
Boolean ``b`` with ``&&``, ``||`` and ``!``.  Outputs use literals, --, the
variable, and ``a`` only under a guard that names ``a``: such a guard is false
while ``a`` is absent, so no run can hit the forwarding-absent-message runtime
error.
``random_ed_model`` gives event-driven-clean machines: each transition reads
exactly one in-port, never matches --, and may forward the Integer it reads
or emit a sequence.
``random_unchecked_component_text`` mixes guards, variable initialisers and
output entries from fixed tables, most of them ill-typed, into either text,
for the checker-soundness property.
"""

from __future__ import annotations

import random
import re

from maa.checks import check
from maa.engine import ABSENT
from maa.parser import parse_component_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit

STATES = ("S0", "S1", "S2")
COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _header(rng: random.Random, initial_values: tuple[str, ...],
            initials: int) -> list[str]:
    """The lines before the transitions: ports, variable, states, initials."""
    return [
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
        *(f"        initial {rng.choice(STATES)} / x = {_values(rng, initial_values)};"
          for _ in range(initials)),
        "",
    ]


def _declare(rng: random.Random, transitions: list[str], text: str) -> None:
    """Append one transition, and a quarter of the time repeat an earlier one."""
    transitions.append(text + ";")
    if rng.random() < 0.25:
        transitions.append(rng.choice(transitions))


def _integer_term(rng: random.Random) -> str:
    """An Integer guard operand: a name, its negation, or a sum or product of
    a name with a name or a literal."""
    name = rng.choice(("a", "v"))
    shape = rng.randrange(4)
    if shape == 0:
        return name
    if shape == 1:
        return f"-{name}"
    return f"{name} {rng.choice(('+', '*'))} {rng.choice(('a', 'v', str(rng.randrange(-2, 3))))}"


def _condition(rng: random.Random) -> str:
    """A comparison of an Integer term with a literal, or ``b`` or ``!b``."""
    if rng.random() < 0.25:
        return rng.choice(("b", "!b"))
    return f"{_integer_term(rng)} {rng.choice(COMPARISONS)} {rng.randrange(-2, 5)}"


def _guard(rng: random.Random) -> str:
    """One condition, two joined by ``&&`` or ``||``, or a negated one."""
    shape = rng.randrange(6)
    if shape < 3:
        return _condition(rng)
    if shape == 5:
        return f"!({_condition(rng)})"
    return f"{_condition(rng)} {'&&' if shape == 3 else '||'} {_condition(rng)}"


def random_component_text(rng: random.Random) -> str:
    lines = _header(rng, ("0", "1", "2"), rng.choices((0, 1, 2), weights=(3, 5, 4))[0])
    transitions: list[str] = []
    for _ in range(rng.randrange(4, 9)):
        source = rng.choice(STATES)
        target = rng.choice(STATES)
        parts = [f"        {source} -> {target}"]
        forwarded: tuple[str, ...] = ("v",)
        if rng.random() < 0.5:
            guard = _guard(rng)
            parts.append(f"[{guard}]")
            if "a" in re.findall(r"\w+", guard):
                forwarded += ("a",)  # the guard is false while a is absent
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
            assigns.append(f"x = {_values(rng, ('0', '1', '2', '3', '4', '--') + forwarded)}")
        if rng.random() < 0.5:
            assigns.append(f"y = {_values(rng, ('0', '1', '2', '3', '4') + forwarded)}")
        if rng.random() < 0.4:
            assigns.append(
                f"v = {_values(rng, ('-2', '-1', '0', '1', '2', '3', '4') + forwarded)}")
        text = " ".join(parts)
        if assigns:
            text += " / {" + ", ".join(assigns) + "}"
        _declare(rng, transitions, text)
    return "\n".join(lines + transitions + ["    }", "}"]) + "\n"


def random_ed_component_text(rng: random.Random) -> str:
    lines = _header(rng, ("0", "1", "[1, 2]", "--"), rng.choice((0, 1, 1, 1)))
    transitions: list[str] = []
    for _ in range(rng.randrange(6, 12)):
        port = rng.choice(("a", "b"))
        parts = [f"        {rng.choice(STATES)} -> {rng.choice(STATES)}"]
        guarded = rng.choice((None, port, port, "v"))
        if guarded == "b":
            parts.append(rng.choice(("[b]", "[!b]")))
        elif guarded is not None:
            op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            parts.append(f"[{guarded} {op} {rng.randrange(-2, 5)}]")
        matches = []
        if guarded != port or rng.random() < 1 / 3:
            matches.append(f"a = {_values(rng, ('-1', '0', '1', '2', '3'))}" if port == "a"
                           else f"b = {rng.choice(('true', 'false'))}")
        if rng.random() < 0.3:
            matches.append(f"v = {rng.randrange(-2, 5)}")
        if matches:
            parts.append("{" + ", ".join(matches) + "}")
        forwarded = ("a",) if port == "a" else ()
        assigns = []
        if rng.random() < 0.8:
            assigns.append(f"x = {_values(rng, ('0', '1', '2', '--', '[3, 4]') + forwarded)}")
        if rng.random() < 0.5:
            assigns.append(f"y = {_values(rng, ('0', '1', '[2]') + forwarded)}")
        if rng.random() < 0.4:
            assigns.append(f"v = {_values(rng, ('-1', '0', '1', '2') + forwarded)}")
        text = " ".join(parts)
        if assigns:
            text += " / {" + ", ".join(assigns) + "}"
        _declare(rng, transitions, text)
    return "\n".join(lines + transitions + ["    }", "}"]) + "\n"


# Guards, variable initialisers and output entries that
# ``random_unchecked_component_text`` mixes into generated text.  Most are
# ill-typed or name something undeclared, so a rule shared by every profile
# rejects them; none breaks only a profile's own rule.  The well-typed guards
# read only ``v`` or ``{p}``, an in-port the transition reads already, so an
# event-driven transition still reads one port.  ``Integer v = v`` passes
# check and fails when the instance starts.
UNCHECKED_GUARDS = ('{p} < "s"', "!a", "b + 1", "a && b", "b < 1", "a == true", "v == b",
                    "-b", "a", '"s"', "{p} || true", "v", "x > 0", "zz",
                    "v == v", "!(v < 0)", "{p} == {p}")
UNCHECKED_INITIALISERS = ("true", '"s"', "--", "[1, 2]", "a", "x", "w", "B", "v", "-1", "3")
UNCHECKED_OUTPUTS = ("x = true", 'y = "s"', "v = --", "v = [1]", "a = 1", "x = b", "zz = 1",
                     "y = x", "v = b", "x = 1 | true")
_TRANSITION = re.compile(r"        S\d -> S\d")


def random_unchecked_component_text(rng: random.Random, base=None) -> str:
    """The text of ``base`` (default :func:`random_component_text`) with
    entries of the ``UNCHECKED_*`` tables mixed in: the initialiser of ``v``
    replaced a quarter of the time, and each transition's guard replaced or
    added a tenth of the time and an output entry added a twentieth."""
    lines = (base or random_component_text)(rng).split("\n")
    for k, line in enumerate(lines):
        states = _TRANSITION.match(line)
        if line.startswith("    Integer v = ") and rng.random() < 0.25:
            lines[k] = f"    Integer v = {rng.choice(UNCHECKED_INITIALISERS)};"
        elif states:
            head, end = line.split(" / ")[0].rstrip(";"), states.end()
            if rng.random() < 0.1:
                ports = sorted(set(re.findall(r"\b[ab]\b", head))) or ["a", "b"]
                guard = rng.choice(UNCHECKED_GUARDS).replace("{p}", rng.choice(ports))
                line = (re.sub(r"\[.*\]", lambda _: f"[{guard}]", head) if "[" in head
                        else f"{head[:end]} [{guard}]{head[end:]}") + line[len(head):]
            if rng.random() < 0.05:
                entry = rng.choice(UNCHECKED_OUTPUTS)
                line = (f"{line[:-2]}, {entry}}};" if " / {" in line
                        else f"{line[:-1]} / {{{entry}}};")
            lines[k] = line
    return "\n".join(lines)


def _values(rng: random.Random, pool: tuple[str, ...]) -> str:
    """One value from ``pool``, or, a third of the time, two alternatives,
    which may be equal."""
    if rng.random() < 1 / 3:
        return f"{rng.choice(pool)} | {rng.choice(pool)}"
    return rng.choice(pool)


def _clean_model(text: str, profile: str):
    unit = parse_component_file(text, "gen.maa")
    assert isinstance(unit, CompilationUnit), (unit, text)
    model, rdiags = resolve([unit], [])
    diags = rdiags + check(model, profile)
    errors = [d for d in diags if d.severity == "error"]
    assert errors == [], (text, [d.render() for d in errors])
    return model, "Gen"


def random_model(rng: random.Random):
    """A resolved, ts-clean random model; returns (model, main name)."""
    return _clean_model(random_component_text(rng), "ts")


def random_ed_model(rng: random.Random):
    """A resolved, ed-clean random model; returns (model, main name)."""
    return _clean_model(random_ed_component_text(rng), "ed")


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
