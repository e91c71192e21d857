"""Command-line surface: check, sim-ts, sim-ed, export-ir.

Exit codes: 0 clean or warnings only, 1 parse or well-formedness errors,
2 I/O and usage errors (a reader that closes standard output early included),
3 runtime simulation errors, 4 internal errors (a fault in maa itself,
reported in one line on stderr, never as a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Optional

from .checks import check
from .diagnostics import Diagnostic, ERROR, WARNING, has_errors, sort_diagnostics
from .engine import (
    ABSENT,
    CycleRecord,
    EnumerationOverflow,
    EnumValue,
    Event,
    FirstDeclared,
    Policy,
    Seeded,
    SetupError,
    SimulationError,
    Slot,
    enumerate_ts,
    format_value,
    iter_ts,
    run_ed,
)
from .lexer import LexError
from .parser import ParseError, parse_component_file, parse_types_file, parse_value
from .resolution import BuiltinType, EnumType, ResolvedModel, TypeRef, resolve
from .syntax import ELit, ERef, NoData, ValueTerm
from .ir import export_ir

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of standard output went away (``maa sim-ts ... | head``).
        # Writing to devnull from now on, the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (_UsageError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Dropping the traceback frees the failed call's frames first, so that
        # even a MemoryError leaves room to report itself.
        exc.__traceback__ = None
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


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
    p_check.add_argument("--profile", choices=["generic", "ts", "ed"], default="generic")
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
        raise _UsageError(f"cannot read '{path}': {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read '{path}': not UTF-8 text (byte {exc.start})") from None


def _load(paths: list[str], type_paths: list[str]):
    """Parse everything; returns (units, type units, SYN diagnostics)."""
    units = []
    tunits = []
    syn: list[Diagnostic] = []
    for path in paths:
        result = parse_component_file(_read(path), path)
        if isinstance(result, list):
            syn.extend(result)
        else:
            units.append(result)
    for path in type_paths:
        result = parse_types_file(_read(path), path)
        if isinstance(result, list):
            syn.extend(result)
        else:
            tunits.append(result)
    return units, tunits, syn


def _print_diagnostics(diags: list[Diagnostic], stream) -> None:
    for diag in diags:
        print(diag.render(), file=stream)


def _checked_model(args, profile: str):
    """Load, resolve, and check; returns (model, exit code or None to proceed)."""
    units, tunits, syn = _load(args.paths, args.types)
    if syn:
        _print_diagnostics(sort_diagnostics(syn), sys.stderr)
        return None, EXIT_CHECK
    model, rdiags = resolve(units, tunits)
    diags = sort_diagnostics(rdiags + check(model, profile))
    errors = [d for d in diags if d.severity == ERROR]
    warnings = [d for d in diags if d.severity == WARNING]
    if errors:
        _print_diagnostics(diags, sys.stderr)
        return None, EXIT_CHECK
    if warnings:
        _print_diagnostics(warnings, sys.stderr)
        if not args.force:
            print("warnings present; pass --force to simulate anyway", file=sys.stderr)
            return None, EXIT_CHECK
    return model, None


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    units, tunits, syn = _load(args.paths, args.types)
    model, rdiags = resolve(units, tunits)
    diags = sort_diagnostics(syn + rdiags + check(model, args.profile))
    if args.format == "json":
        print(json.dumps([d.to_json() for d in diags], indent=2))
    else:
        _print_diagnostics(diags, sys.stdout)
    return EXIT_CHECK if has_errors(diags) else EXIT_OK


# ---------------------------------------------------------------------------
# sim-ts
# ---------------------------------------------------------------------------

_CELL_TYPES = {"Integer": (int, "'{}' is not an Integer"),
               "Boolean": (bool, "'{}' is not a Boolean"),
               "String": (str, "String values must be double-quoted")}


def _parse_cell(text: str, declared: Optional[TypeRef], model: ResolvedModel,
                where: str, read: Callable[[str], ValueTerm]) -> Slot:
    """A cell or event value as a model file writes it: ``--`` or one literal
    of the port's type.  ``read`` is :func:`parse_value`, cached: cells repeat."""
    text = text.strip()
    try:
        term = read(text)
    except (LexError, ParseError) as exc:
        raise _UsageError(f"{where}: {exc.message}") from None
    if isinstance(term, NoData):
        return ABSENT
    if isinstance(declared, BuiltinType):
        python_type, mismatch = _CELL_TYPES[declared.name]
        if isinstance(term, ELit) and type(term.value) is python_type:
            return term.value
        raise _UsageError(f"{where}: " + mismatch.format(text))
    if isinstance(declared, EnumType):
        enum = model.enums.get(declared.qname)
        if enum is None or not isinstance(term, ERef) or term.name not in enum.literals:
            raise _UsageError(f"{where}: '{text}' is not a literal of {declared.qname}")
        return EnumValue(declared.qname, term.name)
    raise _UsageError(f"{where}: port has no concrete type")


def _load_stimulus(path: str, model: ResolvedModel, main: str) -> list[dict[str, Slot]]:
    rc = model.components[main]
    read = functools.cache(parse_value)
    rows: list[dict[str, Slot]] = []
    header: Optional[list[str]] = None
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if header is None:
            header = [c.strip() for c in cells]
            for i, name in enumerate(header):
                if name not in rc.in_ports:
                    raise _UsageError(
                        f"{path}:{lineno}: '{name}' is not an in-port of '{main}'")
                if name in header[:i]:
                    raise _UsageError(f"{path}:{lineno}: column '{name}' appears twice")
            continue
        if len(cells) > len(header):
            raise _UsageError(f"{path}:{lineno}: more cells than header columns")
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
        raise _UsageError(f"main component '{main}' is ambiguous ({', '.join(matches)})")
    if not matches:
        raise _UsageError(f"unknown main component '{main}'")
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
    model, code = _checked_model(args, "ts")
    if model is None:
        return code
    main = _resolve_main(model, args.main)
    rc = model.components[main]
    stimulus = _load_stimulus(args.stimulus, model, main) if args.stimulus else []
    if args.cycles < 1:
        raise _UsageError("--cycles must be at least 1")

    header = "\t".join(["cycle", *(f"in:{p}" for p in rc.in_ports),
                        *(f"out:{p}" for p in rc.out_ports), "state"])
    try:
        if args.enumerate_all or args.policy == "enumerate":
            traces = enumerate_ts(model, main, stimulus, args.cycles, args.bound)
            blocks = ["\n".join([header, *(_row(r, rc.in_ports, rc.out_ports)
                                            for r in trace.records)]) for trace in traces]
            print("\n\n".join(blocks))
            print(f"traces: {len(traces)}")
            return EXIT_OK
        # each row is written as its cycle completes, so an error keeps those before it
        for record in iter_ts(model, main, stimulus, args.cycles, _policy_from(args)):
            if record.index == 1:
                print(header)
            print(_row(record, rc.in_ports, rc.out_ports))
    except EnumerationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except SimulationError as exc:
        sys.stdout.flush()
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# sim-ed
# ---------------------------------------------------------------------------

def _load_script(path: str, model: ResolvedModel, main: str) -> list[Event]:
    rc = model.components[main]
    read = functools.cache(parse_value)
    events: list[Event] = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        if len(parts) != 2:
            raise _UsageError(f"{path}:{lineno}: expected '<port> <value>'")
        port, text = parts
        if port not in rc.in_ports:
            raise _UsageError(f"{path}:{lineno}: '{port}' is not an in-port of '{main}'")
        value = _parse_cell(text, rc.binding(port)[1], model, f"{path}:{lineno}", read)
        if value is ABSENT:
            raise _UsageError(f"{path}:{lineno}: events cannot carry '--'")
        events.append(Event(port, value))
    return events


def _cmd_sim_ed(args) -> int:
    model, code = _checked_model(args, "ed")
    if model is None:
        return code
    main = _resolve_main(model, args.main)
    script = _load_script(args.script, model, main)
    try:
        trace = run_ed(model, main, script, _policy_from(args))
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    blocks: list[str] = []
    if trace.initial_emissions:
        lines = [f"emit {port}={format_value(v)}"
                 for port, values in trace.initial_emissions for v in values]
        lines.append(f"state {trace.initial_state or '-'}")
        blocks.append("\n".join(lines))
    for step in trace.steps:
        lines = [f"recv {step.event.port}={format_value(step.event.value)}"]
        for port, values in step.emissions:
            lines.extend(f"emit {port}={format_value(v)}" for v in values)
        lines.append(f"state {step.state.state or '-'}")
        blocks.append("\n".join(lines))
    if blocks:
        print("\n\n".join(blocks))
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-ir
# ---------------------------------------------------------------------------

def _cmd_export_ir(args) -> int:
    units, tunits, syn = _load(args.paths, args.types)
    if syn:
        _print_diagnostics(sort_diagnostics(syn), sys.stderr)
        return EXIT_CHECK
    model, rdiags = resolve(units, tunits)
    if has_errors(rdiags):
        _print_diagnostics(sort_diagnostics(rdiags), sys.stderr)
        return EXIT_CHECK
    document = export_ir(model)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise _UsageError(f"cannot write '{args.out}': {exc.strerror}") from None
    else:
        sys.stdout.write(document)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
