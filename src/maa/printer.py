"""Canonical text form of parsed models.

The printed form always writes optional braces around input/output blocks and
always spells out transition targets, so printing normalizes but never loses
structure: reparsing the output yields an AST equal to the input.
"""

from __future__ import annotations

from .syntax import (
    PRECEDENCE,
    UNARY_PRECEDENCE,
    Automaton,
    CompilationUnit,
    ComponentType,
    EBinary,
    ELit,
    ERef,
    EUnary,
    Expr,
    Guard,
    NoData,
    PortRef,
    SequenceValue,
    Transition,
    ValueTerm,
    format_literal,
)


def pretty_print(unit: CompilationUnit) -> str:
    """Render a compilation unit in canonical form."""
    out: list[str] = []
    if unit.package:
        out.append(f"package {unit.package};")
        out.append("")
    for imp in unit.imports:
        out.append(f"import {imp.name};")
    if unit.imports:
        out.append("")
    out.extend(_component(unit.component))
    return "\n".join(out) + "\n"


def _component(comp: ComponentType) -> list[str]:
    params = f"<{', '.join(comp.generic_params)}>" if comp.generic_params else ""
    out = [f"component {comp.name}{params} {{"]
    if comp.ports:
        out.append("  port")
        for i, port in enumerate(comp.ports):
            sep = "," if i + 1 < len(comp.ports) else ";"
            out.append(f"    {port.direction} {port.type_name} {port.name}{sep}")
    for var in comp.variables:
        init = f" = {format_value(var.initial)}" if var.initial is not None else ""
        out.append(f"  {var.type_name} {var.name}{init};")
    for sub in comp.subcomponents:
        args = f"<{', '.join(sub.type_args)}>" if sub.type_args else ""
        out.append(f"  component {sub.type_name}{args} {sub.instance};")
    for conn in comp.connectors:
        out.append(f"  connect {format_port_ref(conn.source)} -> {format_port_ref(conn.target)};")
    for automaton in comp.automata:
        out.extend(_automaton(automaton))
    out.append("}")
    return out


def _automaton(auto: Automaton) -> list[str]:
    stereos = "".join(f"<<{s}>> " for s in auto.stereotypes)
    name = f" {auto.name}" if auto.name else ""
    out = [f"  {stereos}automaton{name} {{"]
    if auto.states:
        decls = ", ".join(
            "".join(f"<<{st}>> " for st in state.stereotypes) + state.name
            for state in auto.states
        )
        out.append(f"    state {decls};")
    for init in auto.initials:
        output = f" / {_block(init.output)}" if init.output is not None else ""
        out.append(f"    initial {init.state}{output};")
    for trans in auto.transitions:
        out.append(f"    {_transition(trans)}")
    out.append("  }")
    return out


def _transition(t: Transition) -> str:
    parts = [f"{t.source} -> {t.target}"]
    if t.guard is not None:
        parts.append(_guard(t.guard))
    if t.input is not None:
        parts.append(_block(t.input))
    text = " ".join(parts)
    if t.output is not None:
        text += f" / {_block(t.output)}"
    return text + ";"


def _guard(g: Guard) -> str:
    kind = f"{g.kind}: " if g.kind else ""
    return f"[{kind}{format_expr(g.expr)}]"


def _block(entries) -> str:
    """An input or output block: ``{name = alt | alt, ...}``, names optional."""
    return "{" + ", ".join(
        (f"{e.target} = " if e.target is not None else "")
        + " | ".join(format_value(a) for a in e.alternatives)
        for e in entries) + "}"


def format_port_ref(ref: PortRef) -> str:
    """A connector end: ``port``, or ``instance.port`` for a subcomponent's."""
    return f"{ref.instance}.{ref.port}" if ref.instance else ref.port


def format_value(term: ValueTerm) -> str:
    if isinstance(term, NoData):
        return "--"
    if isinstance(term, SequenceValue):
        return "[" + ", ".join(format_value(e) for e in term.elements) + "]"
    return format_expr(term)


def format_expr(expr: Expr, parent_prec: int = 0, right: bool = False) -> str:
    if isinstance(expr, ELit):
        return format_literal(expr.value)
    if isinstance(expr, ERef):
        return expr.name
    if isinstance(expr, EUnary):
        inner = format_expr(expr.operand, UNARY_PRECEDENCE)
        # "--" would lex as absence and "-1" as a negative literal
        if expr.op == "-" and (inner[0] == "-" or inner[0].isdigit()):
            inner = f"({inner})"
        return f"{expr.op}{inner}"
    if isinstance(expr, EBinary):
        prec = PRECEDENCE[expr.op]
        text = (f"{format_expr(expr.left, prec)} {expr.op} "
                f"{format_expr(expr.right, prec, right=True)}")
        if prec < parent_prec or (prec == parent_prec and right):
            return f"({text})"
        return text
    raise TypeError(f"not an expression: {expr!r}")
