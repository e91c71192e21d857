"""Random model and stimulus generators for the property suites.

Generated components are atomic, three-state machines over three in-ports
(Integer a, Boolean b, and m of the enum ``gen.Mode`` that :data:`TYPES`
declares and the text imports), two Integer out-ports, and one Integer
variable.  ``mode_variable`` adds a second, ``Mode w``, which output entries
assign, input entries match and guards compare; off by default, it draws
nothing from the generator, so pinned seeds keep their models.  Output
entries may offer two alternatives, possibly equal, and a quarter of the
transitions are declared twice, so equal sibling successors occur.  Input
blocks match literals, enum literals, ``--`` and the variable, so a state
mixes transitions that the engine's dispatch index files under a
port's value with ones it tests whatever that value is.

A quarter of the models declare no initial state, so they start silently in
S0 (warning C1 only).  ``random_model`` gives time-synchronous-clean machines,
a third of them with two initial declarations.  Their guards combine
comparisons of Integer terms (``a``, ``v``, unary ``-``, ``+`` and ``*``) and
Boolean ``b`` with ``&&``, ``||`` and ``!``.  Outputs use literals, --, the
variable, and ``a`` only under a guard that names ``a`` (``w`` takes ``m``
only under a guard that names ``m``): such a guard is false while the port is
absent, so no run can hit the forwarding-absent-message runtime error.
``random_ed_model`` gives event-driven-clean machines: each transition reads
exactly one in-port, never matches --, and may forward the Integer it reads
or emit a sequence, of constants or holding the variable or what it reads.
``random_unchecked_component_text`` mixes guards, variable initialisers and
output entries from fixed tables, most of them ill-typed, into either text,
for the checker-soundness property; ``random_unchecked_ed_component_text``
mixes more guards, all on the port a transition reads, into event-driven
text.  ``random_rule_breaking_text`` writes text that breaks rules of every
family, so that the checker's rarer messages are reached.

``random_composition_text`` composes two or three generated components,
renamed ``P0`` to ``P2``, under a main ``Top`` with ``Gen``'s ports, in
compilation units of their own, and may close cycles of connectors through
relays, or draw ``P0`` as ``random_unchecked_component_text`` does, on
request; ``random_composition`` resolves a composition with neither.
"""

from __future__ import annotations

import random
import re

from maa.checks import check
from maa.engine import ABSENT, EnumValue
from maa.parser import parse_component_file, parse_types_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit

STATES = ("S0", "S1", "S2")
COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")
MODES = ("M0", "M1", "M2")
# The types unit every generated component imports its enum from.
TYPES = "package gen;\n\nenum Mode { M0, M1, M2 }\n"


def _header(rng: random.Random, initial_values: tuple[str, ...],
            initials: int, mode_variable: bool = False) -> list[str]:
    """The lines before the transitions: ports, variables, states, initials."""
    return [
        "import gen.Mode;",
        "",
        "component Gen {",
        "    port",
        "        in Integer a,",
        "        in Boolean b,",
        "        in Mode m,",
        "        out Integer x,",
        "        out Integer y;",
        "",
        f"    Integer v = {rng.randrange(-2, 3)};",
        *([f"    Mode w{rng.choice(('', ' = M1', ' = M2'))};"] if mode_variable else []),
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


def random_component_text(rng: random.Random, mode_variable: bool = False) -> str:
    lines = _header(rng, ("0", "1", "2"), rng.choices((0, 1, 2), weights=(3, 5, 4))[0],
                    mode_variable)
    transitions: list[str] = []
    for _ in range(rng.randrange(4, 9)):
        source = rng.choice(STATES)
        target = rng.choice(STATES)
        parts = [f"        {source} -> {target}"]
        forwarded: tuple[str, ...] = ("v",)
        modes = MODES
        if rng.random() < 0.5:
            guard = _guard(rng)
            if mode_variable and rng.random() < 0.5:
                compared = f"w {rng.choice(('==', '!='))} {rng.choice((*MODES, 'm'))}"
                guard = f"{compared} {rng.choice(('&&', '||'))} {guard}"
            parts.append(f"[{guard}]")
            names = re.findall(r"\w+", guard)
            if "a" in names:
                forwarded += ("a",)  # the guard is false while a is absent
            if "m" in names:
                modes += ("m",)
        if rng.random() < 0.6:
            matches = []
            if rng.random() < 0.7:
                alts = rng.choice((f"{rng.randrange(-2, 5)}",
                                   f"{rng.randrange(-2, 5)} | {rng.randrange(-2, 5)}",
                                   "--"))
                matches.append(f"a = {alts}")
            if rng.random() < 0.5:
                matches.append(f"b = {rng.choice(('true', 'false', '--'))}")
            if rng.random() < 0.5:
                matches.append(f"m = {rng.choice(('M0 | M2', 'M1', 'M2 | M1', '--'))}")
            if rng.random() < 0.3:
                matches.append(f"v = {rng.randrange(-2, 5)}")
            if mode_variable and rng.random() < 0.3:
                matches.append(f"w = {rng.choice(('M0', 'M1 | M2', 'm'))}")
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
        if mode_variable and rng.random() < 0.4:
            assigns.append(f"w = {_values(rng, modes)}")
        text = " ".join(parts)
        if assigns:
            text += " / {" + ", ".join(assigns) + "}"
        _declare(rng, transitions, text)
    return "\n".join(lines + transitions + ["    }", "}"]) + "\n"


def random_ed_component_text(rng: random.Random) -> str:
    lines = _header(rng, ("0", "1", "[1, 2]", "--"), rng.choice((0, 1, 1, 1)))
    transitions: list[str] = []
    for _ in range(rng.randrange(6, 12)):
        port = rng.choice(("a", "b", "m"))
        parts = [f"        {rng.choice(STATES)} -> {rng.choice(STATES)}"]
        guarded = rng.choice((None, port, port, "v"))
        if guarded == "b":
            parts.append(rng.choice(("[b]", "[!b]")))
        elif guarded == "m":
            parts.append(f"[m {rng.choice(('==', '!='))} {rng.choice(MODES)}]")
        elif guarded is not None:
            op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            parts.append(f"[{guarded} {op} {rng.randrange(-2, 5)}]")
        matches = []
        if guarded != port or rng.random() < 1 / 3:
            matches.append({"a": f"a = {_values(rng, ('-1', '0', '1', '2', '3'))}",
                            "b": f"b = {rng.choice(('true', 'false'))}",
                            "m": f"m = {_values(rng, MODES)}"}[port])
        if rng.random() < 0.3:
            matches.append(f"v = {rng.randrange(-2, 5)}")
        if matches:
            parts.append("{" + ", ".join(matches) + "}")
        forwarded = ("a",) if port == "a" else ()
        sequences = ("[3, 4]", "[v, 4]", *(f"[3, {name}]" for name in forwarded))
        assigns = []
        if rng.random() < 0.8:
            assigns.append(f"x = {_values(rng, ('0', '1', '2', '--') + sequences + forwarded)}")
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
_PORT_GUARDS = tuple(guard for guard in UNCHECKED_GUARDS if "{p}" in guard)
_TRANSITION = re.compile(r"        S\d -> S\d")


def random_unchecked_component_text(rng: random.Random, base=None, guards: float = 0.1,
                                    guard_table: tuple[str, ...] = UNCHECKED_GUARDS) -> str:
    """The text of ``base`` (default :func:`random_component_text`) with
    entries of the ``UNCHECKED_*`` tables mixed in: the initialiser of ``v``
    replaced a quarter of the time, each transition's guard replaced or added
    from ``guard_table`` with probability ``guards``, and an output entry added
    a twentieth of the time.  ``{p}`` in a guard stands for a port the
    transition reads."""
    lines = (base or random_component_text)(rng).split("\n")
    for k, line in enumerate(lines):
        states = _TRANSITION.match(line)
        if line.startswith("    Integer v = ") and rng.random() < 0.25:
            lines[k] = f"    Integer v = {rng.choice(UNCHECKED_INITIALISERS)};"
        elif states:
            head, end = line.split(" / ")[0].rstrip(";"), states.end()
            if rng.random() < guards:
                ports = sorted(set(re.findall(r"\b[abm]\b", head))) or ["a", "b"]
                guard = rng.choice(guard_table).replace("{p}", rng.choice(ports))
                line = (re.sub(r"\[.*\]", lambda _: f"[{guard}]", head) if "[" in head
                        else f"{head[:end]} [{guard}]{head[end:]}") + line[len(head):]
            if rng.random() < 0.05:
                entry = rng.choice(UNCHECKED_OUTPUTS)
                line = (f"{line[:-2]}, {entry}}};" if " / {" in line
                        else f"{line[:-1]} / {{{entry}}};")
            lines[k] = line
    return "\n".join(lines)


def random_unchecked_ed_component_text(rng: random.Random) -> str:
    """:func:`random_ed_component_text` with the ``UNCHECKED_*`` tables mixed
    in.  An event-driven transition fires only on an event on the one port it
    reads, so an ill-typed guard is evaluated at run time only when it is on
    that port: guards are mixed in a fifth of the time, all from the entries
    on that port."""
    return random_unchecked_component_text(rng, random_ed_component_text, 0.2, _PORT_GUARDS)


# Entries, guards and initialisers that ``random_rule_breaking_text`` draws
# from, over the ports a, b, m, x and y and the variables ``Integer v`` and
# ``Boolean w``.  Most break one rule each: an input entry on a variable or an
# out-port, an output entry on an in-port, ``--`` or a sequence where it may
# not stand, an unnamed entry that two targets or none admit, a name that is
# undefined or of the wrong type, and an initial output that reads a port.
RULE_BREAKING_INPUTS = ("a = 1", "b = true", "m = M0", "v = 2", "v = --", "v = [1, 2]",
                        "v = 1 | --", "v = a", "v = w", "x = 1", "y = -- | 2", "a = [1]",
                        "a = --", "b = -- | true", "1", '"s"', "[1, 2]", "M1", "zz = 1",
                        "a = zz")
RULE_BREAKING_OUTPUTS = ("x = 1", "y = v", "v = 2", "v = --", "v = [1]", "v = 1 | [2, 3]",
                         "a = 1", "x = [1, true]", "y = x", "x = w", "x = b", "v = -- | a",
                         "1", '"s"', "[1, 2]", "true", "x = zz", "w = v")
RULE_BREAKING_INITIAL_OUTPUTS = ("x = 1", "x = a", "y = b | 1", "x = v", "x = y", "v = m",
                                 "1", "[a]")
RULE_BREAKING_GUARDS = ("a > 0", "x > 0", "zz", "y == a", "!(1 == true)", "a > 0 && x < 1",
                        "w", "v == 1", "b", "v + 1", "-b", "a && b")
RULE_BREAKING_INITIALISERS = ("1", "--", "[1, 2]", "a", "x", "zz", "true", "M1", "v")


def random_rule_breaking_text(rng: random.Random) -> str:
    """A component ``Gen`` over the in-ports a, b and m that breaks rules of
    every family: entries, guards, initialisers and initial outputs from the
    ``RULE_BREAKING_*`` tables, undefined states, and repeated or miscased
    names of automata, states, ports and variables."""
    ports = ["in Integer a", "in Boolean b", "in Mode m", "out Integer x", "out Integer y"]
    ports += rng.sample(("in Integer a", "out Integer v", "in Boolean B"), rng.randrange(3) // 2)
    variables = [f"Integer v = {rng.choice(RULE_BREAKING_INITIALISERS)};",
                 rng.choice(("Boolean w;", "Boolean w = true;", "Boolean w = 1;"))]
    variables += rng.sample(("Integer x;", "Boolean w;", "Integer V;"), rng.randrange(3) // 2)
    states = ["S0", "S1", "S2"] + rng.sample(("S1", "S2", "s3"), rng.randrange(3) // 2)
    known = STATES + ("S3",)
    name = rng.choice(("", " A", " A", " a"))
    lines = ["import gen.Mode;", "", "component Gen {",
             "    port " + ", ".join(ports) + ";", *(f"    {v}" for v in variables),
             f"    automaton{name} {{", f"        state {', '.join(states)};"]
    for _ in range(rng.choice((0, 1, 1, 2))):
        entries = rng.sample(RULE_BREAKING_INITIAL_OUTPUTS, rng.randrange(1, 3))
        lines.append(f"        initial {rng.choice(known)} / {{{', '.join(entries)}}};")
    for _ in range(rng.randrange(3, 8)):
        text = f"        {rng.choice(known)} -> {rng.choice(known)}"
        if rng.random() < 0.4:
            text += f" [{rng.choice(RULE_BREAKING_GUARDS)}]"
        if rng.random() < 0.7:
            text += " {" + ", ".join(rng.sample(RULE_BREAKING_INPUTS, rng.randrange(1, 3))) + "}"
        if rng.random() < 0.7:
            outputs = rng.sample(RULE_BREAKING_OUTPUTS, rng.randrange(1, 3))
            text += " / {" + ", ".join(outputs) + "}"
        lines.append(text + ";")
    lines.append("    }")
    for _ in range(rng.choice((0, 0, 1, 2))):
        again = rng.choice(("A", "A", "B", "c"))
        lines.append(f"    automaton {again} {{ state {rng.choice(('T', 'T, T', 't'))}; "
                     "initial T; }")
    return "\n".join(lines + ["}"]) + "\n"


# A component of connectors alone, which forwards its in-ports in the cycle
# it reads them.
RELAY = """import gen.Mode;

component Relay {
    port in Integer i, in Mode n, out Integer o, out Mode q;
    connect i -> o;
    connect n -> q;
}
"""


def _composed(rng: random.Random, name: str, types: list[str], loops: bool) -> str:
    """A component with ``Gen``'s ports and an instance ``c<j>`` of each of
    ``types`` (components with those ports too) and a ``Relay r``.  Its
    connectors always make a chain ``c0.x -> c1.a -> ...``, put ``r`` between
    ``c<last>.y`` and ``c0.a``, fan ``c<last>.y`` out to ``r.i`` and the own
    out-port ``y``, leave one ``b`` or ``m`` in-port unconnected and
    ``c0.y`` unread.  The rest are drawn: the Boolean and enum in-ports read
    the own ones (or ``r.q``), and ``x`` reads the own ``a``, ``r.o`` or an
    instance, or nothing.  Declarations and connectors come in random order.
    Every path back to ``r.i`` passes an atomic instance, so no connector
    cycle arises, unless ``loops``: then half the components hold a second
    relay ``r1``, and up to two Integer in-ports of the relays and of the
    ``Mid`` instances are fed again, from an out-port of one of them, which
    may close a cycle of connectors through no atomic instance."""
    last = len(types) - 1
    feeds = {f"c{j}.a": f"c{j - 1}.x" for j in range(1, last + 1)}  # target -> source
    feeds |= {"r.i": f"c{last}.y", "c0.a": "r.o", "y": f"c{last}.y"}
    unconnected = rng.choice([f"c{j}.{port}" for j in range(last + 1) for port in "bm"])
    for j in range(last + 1):
        for port, sources in (("b", ("b",)), ("m", ("m", "r.q"))):
            if f"c{j}.{port}" != unconnected and rng.random() < 0.8:
                feeds[f"c{j}.{port}"] = rng.choice(sources)
    if rng.random() < 0.8:
        feeds["r.n"] = "m"
    if rng.random() < 0.8:
        outs = [f"c{j}.{port}" for j in range(last + 1) for port in "xy"]
        feeds["x"] = rng.choice(["a", "r.o", *outs[:1], *outs[2:]])  # c0.y stays unread
    declarations = [f"    component {t} c{j};" for j, t in enumerate(types)]
    declarations.append("    component Relay r;")
    if loops:
        mids = [f"c{j}" for j, t in enumerate(types) if t == "Mid"]
        relays = ["r"]
        if rng.random() < 0.5:
            relays.append("r1")
            declarations.append("    component Relay r1;")
            feeds["r1.i"] = rng.choice(["a", "r.o", "c0.x", *(f"{mid}.x" for mid in mids)])
        ins = [f"{relay}.i" for relay in relays] + [f"{mid}.a" for mid in mids]
        outs = [f"{relay}.o" for relay in relays] + [f"{mid}.{p}" for mid in mids for p in "xy"]
        for _ in range(rng.randrange(3)):
            feeds[rng.choice(ins)] = rng.choice(outs)
    connectors = [f"    connect {source} -> {target};" for target, source in feeds.items()]
    rng.shuffle(declarations)
    rng.shuffle(connectors)
    return "\n".join([
        "import gen.Mode;", "", f"component {name} {{",
        "    port in Integer a, in Boolean b, in Mode m, out Integer x, out Integer y;",
        *declarations, *connectors, "}"]) + "\n"


def random_composition_text(rng: random.Random, loops: bool = False,
                            mode_variable: bool = False, unchecked: bool = False) -> list[str]:
    """The compilation units of a composed main ``Top``: two or three
    components of :func:`random_component_text` named ``P0`` to ``P2``,
    :data:`RELAY`, and ``Top`` (see :func:`_composed`) over two or three
    instances of them.  In half the models one of ``Top``'s instances is a
    ``Mid``, itself composed over two of them, so components nest one level
    deep; a component may have several instances.  The model is
    time-synchronous-clean unless ``loops`` closes a cycle of connectors, or
    ``unchecked`` draws ``P0`` from :func:`random_unchecked_component_text`."""
    parts = [f"P{k}" for k in range(rng.choice((2, 3)))]
    texts = [(random_unchecked_component_text(rng) if unchecked and k == 0
              else random_component_text(rng, mode_variable)).replace(
        "component Gen {", f"component {part} {{") for k, part in enumerate(parts)]
    texts.append(RELAY)
    types = [rng.choice(parts) for _ in range(rng.choice((2, 3)))]
    if rng.random() < 0.5:
        texts.append(_composed(rng, "Mid", [rng.choice(parts) for _ in range(2)], loops))
        types[rng.randrange(len(types))] = "Mid"
    texts.append(_composed(rng, "Top", types, loops))
    return texts


def _values(rng: random.Random, pool: tuple[str, ...]) -> str:
    """One value from ``pool``, or, a third of the time, two alternatives,
    which may be equal."""
    if rng.random() < 1 / 3:
        return f"{rng.choice(pool)} | {rng.choice(pool)}"
    return rng.choice(pool)


def resolve_text(text: str | list[str]):
    """The model of one generated component text, or of a list of them,
    with :data:`TYPES`, and resolution's diagnostics."""
    units = []
    for k, one in enumerate([text] if isinstance(text, str) else text):
        unit = parse_component_file(one, f"gen{k}.maa")
        assert isinstance(unit, CompilationUnit), (unit, one)
        units.append(unit)
    return resolve(units, [parse_types_file(TYPES, "gen.types")])


def _clean_model(text: str | list[str], profile: str, main: str = "Gen"):
    model, rdiags = resolve_text(text)
    diags = rdiags + check(model, profile)
    errors = [d for d in diags if d.severity == "error"]
    assert errors == [], (text, [d.render() for d in errors])
    return model, main


def random_model(rng: random.Random, mode_variable: bool = False):
    """A resolved, ts-clean random model; returns (model, main name)."""
    return _clean_model(random_component_text(rng, mode_variable), "ts")


def random_ed_model(rng: random.Random):
    """A resolved, ed-clean random model; returns (model, main name)."""
    return _clean_model(random_ed_component_text(rng), "ed")


def random_composition(rng: random.Random, mode_variable: bool = False):
    """A resolved, ts-clean random composition; returns (model, "Top")."""
    return _clean_model(random_composition_text(rng, mode_variable=mode_variable), "ts", "Top")


def mode(literal: str) -> EnumValue:
    return EnumValue("gen.Mode", literal)


def random_row(rng: random.Random) -> dict:
    a = ABSENT if rng.random() < 0.35 else rng.randrange(-2, 5)
    b = ABSENT if rng.random() < 0.35 else rng.random() < 0.5
    m = ABSENT if rng.random() < 0.35 else mode(rng.choice(MODES))
    return {"a": a, "b": b, "m": m}


def random_stimulus(rng: random.Random, n_cycles: int) -> list[dict]:
    return [random_row(rng) for _ in range(n_cycles)]


def random_script(rng: random.Random, n_events: int) -> list[tuple[str, object]]:
    """Events as (in-port, value) pairs: an Integer on a, a Boolean on b or a
    Mode on m."""
    events = {"a": lambda: rng.randrange(-2, 5), "b": lambda: rng.random() < 0.5,
              "m": lambda: mode(rng.choice(MODES))}
    return [(port, events[port]()) for port in rng.choices("abm", k=n_events)]


def perturbed_at(rng: random.Random, rows: list[dict], cycle: int) -> list[dict]:
    """Copy of rows guaranteed to differ exactly at the given 1-based cycle."""
    out = [dict(r) for r in rows]
    row = out[cycle - 1]
    old = row["a"]
    choices = [ABSENT, -2, -1, 0, 1, 2, 3, 4]
    row["a"] = rng.choice([c for c in choices
                           if (c is ABSENT) != (old is ABSENT) or c != old])
    return out
