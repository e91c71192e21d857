"""A reference IR export, for tests: the document built as a dict tree and
written by ``json.dumps(..., sort_keys=True, indent=2)``.

It shares no code with ``maa.ir``, which writes the same bytes in one pass;
the two agree only if the emitter's fixed key order, indentation, escapes and
``null``/``[]`` spelling are those of the standard encoder.  Only the
printer's ``format_expr`` and ``format_value`` are common to both.
"""

from __future__ import annotations

import json

from maa.printer import format_expr, format_value
from maa.resolution import ResolvedModel
from maa.syntax import Assignment, Automaton, ComponentType, Match


def reference_ir(model: ResolvedModel) -> str:
    doc = {
        "profile": "generic",
        "enums": [
            {"name": enum.qname, "literals": list(enum.literals)}
            for enum in sorted(model.enums.values(), key=lambda e: e.qname)
        ],
        "components": [
            _component(model.components[qname].ast, qname)
            for qname in sorted(model.components)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _component(comp: ComponentType, qname: str) -> dict:
    return {
        "name": qname,
        "genericParams": list(comp.generic_params),
        "ports": [
            {"name": p.name, "direction": p.direction, "type": p.type_name}
            for p in comp.ports
        ],
        "variables": [
            {"name": v.name, "type": v.type_name,
             "initial": format_value(v.initial) if v.initial is not None else None}
            for v in comp.variables
        ],
        "subcomponents": [
            {"instance": s.instance, "type": s.type_name, "typeArgs": list(s.type_args)}
            for s in comp.subcomponents
        ],
        "connectors": [
            {"source": _port_ref(c.source), "target": _port_ref(c.target)}
            for c in comp.connectors
        ],
        "automata": [_automaton(a) for a in comp.automata],
    }


def _port_ref(ref) -> str:
    return f"{ref.instance}.{ref.port}" if ref.instance else ref.port


def _automaton(auto: Automaton) -> dict:
    return {
        "name": auto.name,
        "stereotypes": list(auto.stereotypes),
        "states": [
            {"name": s.name, "stereotypes": list(s.stereotypes)} for s in auto.states
        ],
        "initials": [
            {"state": i.state,
             "output": [_valuation(a) for a in i.output] if i.output is not None else None}
            for i in auto.initials
        ],
        "transitions": [
            {
                "source": t.source,
                "target": t.target,
                "guard": ({"kind": t.guard.kind, "expr": format_expr(t.guard.expr)}
                          if t.guard is not None else None),
                "inputs": [_valuation(m) for m in t.input] if t.input is not None else None,
                "outputs": [_valuation(a) for a in t.output] if t.output is not None else None,
            }
            for t in auto.transitions
        ],
    }


def _valuation(entry: Match | Assignment) -> dict:
    return {
        "target": entry.target,
        "alternatives": [format_value(a) for a in entry.alternatives],
    }
