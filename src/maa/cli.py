"""Command-line surface: check, sim-ts, sim-ed, export-ir.

Exit codes: 0 clean or warnings only, 1 parse or well-formedness errors,
2 I/O and usage errors (a reader that closes standard output early included),
3 runtime simulation errors, 4 internal errors (a fault in maa itself,
reported in one line on stderr, never as a traceback).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from typing import Callable, Iterator, Optional

from .checks import PROFILES, check
from .diagnostics import Diagnostic, has_errors, sort_diagnostics
from .engine import (
    ABSENT,
    CycleRecord,
    EnumerationOverflow,
    EnumValue,
    Event,
    EventStep,
    FirstDeclared,
    Policy,
    Seeded,
    SetupError,
    SimulationError,
    Slot,
    format_value,
    iter_ed,
    iter_enumerate_ts,
    iter_ts,
)
from .lexer import LexError
from .parser import ParseError, parse_component_file, parse_types_file, parse_value
from .resolution import (
    BOOLEAN, INTEGER, PYTHON_TYPES, STRING, BuiltinType, EnumType, ResolvedModel, TypeRef, resolve)
from .syntax import ELit, ERef, NoData, ValueTerm
from .ir import export_ir

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTERNAL = 4


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A run makes no reference cycles (tests/test_collector.py), so the cyclic
    # collector would only walk the growing model again and again.  It stays
    # off for the run, and the caller's setting comes back after it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            code = args.handler(args)
        except (SimulationError, EnumerationOverflow) as exc:
            sys.stdout.flush()  # the rows before the error; a closed pipe fails here too
            kind = "error" if isinstance(exc, EnumerationOverflow) else "runtime error"
            print(f"{kind}: {exc}", file=sys.stderr)
            code = EXIT_RUNTIME
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of standard output went away (``maa sim-ts ... | head``).
        # Writing to devnull from now on, the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Dropping the tracebacks, and the exceptions chained to this one,
        # frees the failed call's frames first, so that even a MemoryError
        # leaves room to report itself.
        exc.__traceback__ = exc.__context__ = exc.__cause__ = None
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maa",
        description="Check, simulate, and export component-and-connector models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("paths", nargs="+", help="model files (.maa)")
        p.add_argument("--types", action="append", default=[],
                       help="type declaration file (.types); repeatable")

    p_check = sub.add_parser("check", help="run the well-formedness rules")
    common(p_check)
    p_check.add_argument("--profile", choices=PROFILES, default="generic")
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(handler=_cmd_check)

    p_ts = sub.add_parser("sim-ts", help="time-synchronous simulation")
    common(p_ts)
    p_ts.add_argument("--main", required=True, help="qualified main component name")
    p_ts.add_argument("--stimulus", help="TSV stimulus file")
    p_ts.add_argument("--cycles", type=int, required=True)
    p_ts.add_argument("--policy", choices=["first", "seeded", "enumerate"], default="first")
    p_ts.add_argument("--seed", type=int, default=0)
    p_ts.add_argument("--bound", type=int, default=1024)
    p_ts.add_argument("--enumerate", dest="enumerate_all", action="store_true",
                      help="shorthand for --policy enumerate")
    p_ts.add_argument("--force", action="store_true",
                      help="simulate despite warnings (errors always block)")
    p_ts.set_defaults(handler=_cmd_sim_ts)

    p_ed = sub.add_parser("sim-ed", help="event-driven simulation")
    common(p_ed)
    p_ed.add_argument("--main", required=True)
    p_ed.add_argument("--script", required=True, help="event script file")
    p_ed.add_argument("--policy", choices=["first", "seeded"], default="first")
    p_ed.add_argument("--seed", type=int, default=0)
    p_ed.add_argument("--force", action="store_true",
                      help="simulate despite warnings (errors always block)")
    p_ed.set_defaults(handler=_cmd_sim_ed)

    p_ir = sub.add_parser("export-ir", help="export the resolved model as JSON")
    common(p_ir)
    p_ir.add_argument("--out", help="output path (stdout when omitted)")
    p_ir.set_defaults(handler=_cmd_export_ir)

    return parser


# ---------------------------------------------------------------------------
# Shared loading pipeline
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _unreadable(path, exc.strerror) from None
    except UnicodeDecodeError as exc:
        raise _unreadable(path, f"not UTF-8 text (byte {exc.start})") from None


def _unreadable(path: str, why: str) -> SetupError:
    return SetupError(f"cannot read '{path}': {why}")


def _front(args, profile: Optional[str]) -> tuple[ResolvedModel, list[Diagnostic]]:
    """Parse the files of ``args``, resolve what parsed into one model and,
    given a profile, check it; returns the model and every diagnostic, sorted."""
    units, tunits, diags = [], [], []
    for path, parse, parsed in [*((p, parse_component_file, units) for p in args.paths),
                                *((p, parse_types_file, tunits) for p in args.types)]:
        result = parse(_read(path), path)
        if isinstance(result, list):
            diags.extend(result)
        else:
            parsed.append(result)
    model, rdiags = resolve(units, tunits)
    diags += rdiags + (check(model, profile) if profile else [])
    return model, sort_diagnostics(diags)


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of a stimulus or script file, numbered as
    ``str.splitlines`` splits its text, blank and ``#`` lines skipped as they
    are read."""
    return filter(lambda numbered: numbered[1].strip()
                  and not numbered[1].lstrip().startswith("#"),
                  enumerate(_lines(path), start=1))


def _lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 file as ``str.splitlines`` splits its text, read
    one line of bytes at a time, so that neither the text nor a list of its
    lines is held.  No UTF-8 sequence holds the byte of ``\\n``, so each line
    of bytes decodes on its own, and a decoding error lies at the line's
    offset in the file plus its own."""
    try:
        with open(path, "rb") as handle:
            offset = 0
            for raw in handle:
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    why = f"not UTF-8 text (byte {offset + exc.start})"
                    raise _unreadable(path, why) from None
                offset += len(raw)
                yield from text.splitlines()
    except OSError as exc:
        raise _unreadable(path, exc.strerror) from None


def _print_diagnostics(diags: list[Diagnostic], stream) -> None:
    for diag in diags:
        print(diag.render(), file=stream)


def _gate(args, profile: Optional[str]) -> Optional[ResolvedModel]:
    """The model to simulate or export, or None after printing why not: its
    syntax errors alone if it has any, else every diagnostic if one is an
    error or, without ``--force``, a warning."""
    model, diags = _front(args, profile)
    syn = [d for d in diags if d.code == "SYN"]
    if syn or has_errors(diags):
        _print_diagnostics(syn or diags, sys.stderr)
        return None
    if diags:
        _print_diagnostics(diags, sys.stderr)
        if not args.force:
            print("warnings present; pass --force to simulate anyway", file=sys.stderr)
            return None
    return model


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    _, diags = _front(args, args.profile)
    if args.format == "json":
        print(json.dumps([d.to_json() for d in diags], indent=2))
    else:
        _print_diagnostics(diags, sys.stdout)
    return EXIT_CHECK if has_errors(diags) else EXIT_OK


# ---------------------------------------------------------------------------
# sim-ts
# ---------------------------------------------------------------------------

_CELL_TYPES = {INTEGER: "'{}' is not an Integer",
               BOOLEAN: "'{}' is not a Boolean",
               STRING: "String values must be double-quoted"}


def _parse_cell(text: str, declared: Optional[TypeRef], model: ResolvedModel,
                where: str, read: Callable[[str], ValueTerm]) -> Slot:
    """A cell or event value as a model file writes it: ``--`` or one literal
    of the port's type.  ``read`` is :func:`parse_value`, cached: cells repeat."""
    text = text.strip()
    try:
        term = read(text)
    except (LexError, ParseError) as exc:
        raise SetupError(f"{where}: {exc.message}") from None
    if isinstance(term, NoData):
        return ABSENT
    if isinstance(declared, BuiltinType):
        if isinstance(term, ELit) and type(term.value) is PYTHON_TYPES[declared]:
            return term.value
        raise SetupError(f"{where}: " + _CELL_TYPES[declared].format(text))
    if isinstance(declared, EnumType):
        if not isinstance(term, ERef) or term.name not in model.enums[declared.qname].literals:
            raise SetupError(f"{where}: '{text}' is not a literal of {declared.qname}")
        return EnumValue(declared.qname, term.name)
    raise SetupError(f"{where}: port has no concrete type")


def _load_stimulus(path: str, model: ResolvedModel, main: str) -> list[dict[str, Slot]]:
    rc = model.components[main]
    read = functools.cache(parse_value)
    rows: list[dict[str, Slot]] = []
    header: Optional[list[str]] = None
    for lineno, line in _data_lines(path):
        cells = line.split("\t")
        if header is None:
            header = [c.strip() for c in cells]
            for i, name in enumerate(header):
                if name not in rc.in_ports:
                    raise SetupError(f"{path}:{lineno}: '{name}' is not an in-port of '{main}'")
                if name in header[:i]:
                    raise SetupError(f"{path}:{lineno}: column '{name}' appears twice")
            continue
        if len(cells) > len(header):
            raise SetupError(f"{path}:{lineno}: more cells than header columns")
        row: dict[str, Slot] = {}
        for name, cell in zip(header, cells):
            row[name] = _parse_cell(cell, rc.binding(name)[1], model,
                                    f"{path}:{lineno}", read)
        rows.append(row)
    return rows


def _resolve_main(model: ResolvedModel, main: str) -> str:
    if main in model.components:
        return main
    matches = sorted(q for q in model.components if q.rsplit(".", 1)[-1] == main)
    if len(matches) > 1:
        raise SetupError(f"main component '{main}' is ambiguous ({', '.join(matches)})")
    if not matches:
        raise SetupError(f"unknown main component '{main}'")
    return matches[0]


def _policy_from(args) -> Policy:
    if args.policy == "seeded":
        return Seeded(args.seed)
    return FirstDeclared()


def _row(record: CycleRecord, in_ports: list[str], out_ports: list[str]) -> str:
    """One cycle as a TSV row; ``record.states`` lists instances in plan order."""
    cells = [str(record.index)]
    cells += [format_value(record.inputs[p]) for p in in_ports]
    cells += [format_value(record.outputs[p]) for p in out_ports]
    states = [(path, cs.state or "-") for path, cs in record.states.items()]
    cells.append(";".join(f"{path}={state}" if path else state for path, state in states))
    return "\t".join(cells)


def _cmd_sim_ts(args) -> int:
    model = _gate(args, "ts")
    if model is None:
        return EXIT_CHECK
    main = _resolve_main(model, args.main)
    rc = model.components[main]
    stimulus = _load_stimulus(args.stimulus, model, main) if args.stimulus else []
    if args.cycles < 1:
        raise SetupError("--cycles must be at least 1")

    header = "\t".join(["cycle", *(f"in:{p}" for p in rc.in_ports),
                        *(f"out:{p}" for p in rc.out_ports), "state"])
    if args.enumerate_all or args.policy == "enumerate":
        # each block is written as the walk over the trace graph reaches it
        count = 0
        for trace in iter_enumerate_ts(model, main, stimulus, args.cycles, args.bound):
            print(("\n" if count else "") + "\n".join(
                [header, *(_row(r, rc.in_ports, rc.out_ports) for r in trace.records)]))
            count += 1
        print(f"traces: {count}")
        return EXIT_OK
    # each row is written as its cycle completes, so an error keeps those before it
    for record in iter_ts(model, main, stimulus, args.cycles, _policy_from(args)):
        if record.index == 1:
            print(header)
        print(_row(record, rc.in_ports, rc.out_ports))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sim-ed
# ---------------------------------------------------------------------------

def _load_script(path: str, model: ResolvedModel, main: str) -> list[Event]:
    """Every event of the script, read and checked before any runs, so that a
    refusal comes before the first block.  A line's first occurrence goes
    through every check, with its line number; a repeat of the line shares its
    :class:`Event`, as it can only get the same answer."""
    rc = model.components[main]
    events: list[Event] = []
    seen: dict[str, Event] = {}
    for lineno, line in _data_lines(path):
        event = seen.get(line)
        if event is None:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise SetupError(f"{path}:{lineno}: expected '<port> <value>'")
            port, text = parts
            if port not in rc.in_ports:
                raise SetupError(f"{path}:{lineno}: '{port}' is not an in-port of '{main}'")
            value = _parse_cell(text, rc.binding(port)[1], model, f"{path}:{lineno}",
                                parse_value)
            if value is ABSENT:
                raise SetupError(f"{path}:{lineno}: events cannot carry '--'")
            event = seen[line] = Event(port, value)
        events.append(event)
    return events


def _block(step: EventStep) -> str:
    """One event's lines, or the start's: what was received, each message
    emitted, and the state after."""
    lines = [] if step.event is None else [
        f"recv {step.event.port}={format_value(step.event.value)}"]
    for port, values in step.emissions:
        lines.extend(f"emit {port}={format_value(v)}" for v in values)
    lines.append(f"state {step.state.state or '-'}")
    return "\n".join(lines)


def _cmd_sim_ed(args) -> int:
    model = _gate(args, "ed")
    if model is None:
        return EXIT_CHECK
    main = _resolve_main(model, args.main)
    script = _load_script(args.script, model, main)
    # Each block is written as its event completes, so an error keeps those
    # before it.  The start has a block only if it emits.
    separator = ""
    for step in iter_ed(model, main, script, _policy_from(args)):
        if step.event is not None or step.emissions:
            print(separator + _block(step))
            separator = "\n"
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-ir
# ---------------------------------------------------------------------------

def _cmd_export_ir(args) -> int:
    model = _gate(args, None)  # resolution reports errors only, so --force is never asked
    if model is None:
        return EXIT_CHECK
    document = export_ir(model)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise SetupError(f"cannot write '{args.out}': {exc.strerror}") from None
    else:
        sys.stdout.write(document)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
