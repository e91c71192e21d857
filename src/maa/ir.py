"""Neutral JSON export of a resolved model.

The document is loss-free with respect to the model's semantic content
(stereotypes included, comments excluded) and deterministic: keys are sorted
and array orders follow declaration order, so exporting the same model twice
yields identical bytes.

The IR has one fixed shape, so it is written in one pass straight from the
AST rather than built as a tree and serialised.  Each object's keys are
constants written in sorted order; each writer takes the indentation of the
line its value starts on.  Every string goes through
``json.encoder.encode_basestring_ascii``, the C function behind
``json.dumps(ensure_ascii=True)``, absent fields are written ``null`` and
empty arrays ``[]``: the bytes are those of ``json.dumps(tree,
sort_keys=True, indent=2)`` plus a newline.  Transitions and their block
entries, nearly all of a large automaton's bytes, are single templates.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

from .printer import format_expr, format_port_ref, format_value
from .resolution import ResolvedModel
from .syntax import Automaton, ComponentType, Transition

_STEP = "  "


def export_ir(model: ResolvedModel) -> str:
    item = _STEP * 2
    enums = [
        _object(item, [("literals", _strings(item + _STEP, enum.literals)),
                       ("name", _string(enum.qname))])
        for enum in sorted(model.enums.values(), key=lambda e: e.qname)
    ]
    components = [
        _component(item, model.components[qname].ast, qname)
        for qname in sorted(model.components)
    ]
    return _object("", [("components", _array(_STEP, components)),
                        ("enums", _array(_STEP, enums)),
                        ("profile", '"generic"')]) + "\n"


def _optional(text: str | None) -> str:
    return "null" if text is None else _string(text)


def _array(indent: str, items: list[str]) -> str:
    """A JSON array of already written ``items`` whose opening bracket sits on
    a line indented by ``indent``."""
    if not items:
        return "[]"
    inner = indent + _STEP
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _strings(indent: str, values) -> str:
    return _array(indent, [_string(v) for v in values])


def _object(indent: str, pairs: list[tuple[str, str]]) -> str:
    """A JSON object of already written values, keys given in sorted order."""
    inner = indent + _STEP
    return "{\n" + ",\n".join(f'{inner}"{key}": {value}' for key, value in pairs) + f"\n{indent}}}"


def _component(indent: str, comp: ComponentType, qname: str) -> str:
    inner = indent + _STEP
    item = inner + _STEP
    ports = [
        _object(item, [("direction", _string(p.direction)), ("name", _string(p.name)),
                       ("type", _string(p.type_name))])
        for p in comp.ports
    ]
    variables = [
        _object(item, [("initial", "null" if v.initial is None
                        else _string(format_value(v.initial))),
                       ("name", _string(v.name)), ("type", _string(v.type_name))])
        for v in comp.variables
    ]
    subcomponents = [
        _object(item, [("instance", _string(s.instance)), ("type", _string(s.type_name)),
                       ("typeArgs", _strings(item + _STEP, s.type_args))])
        for s in comp.subcomponents
    ]
    connectors = [
        _object(item, [("source", _string(format_port_ref(c.source))),
                       ("target", _string(format_port_ref(c.target)))])
        for c in comp.connectors
    ]
    return _object(indent, [
        ("automata", _array(inner, [_automaton(item, a) for a in comp.automata])),
        ("connectors", _array(inner, connectors)),
        ("genericParams", _strings(inner, comp.generic_params)),
        ("name", _string(qname)),
        ("ports", _array(inner, ports)),
        ("subcomponents", _array(inner, subcomponents)),
        ("variables", _array(inner, variables)),
    ])


def _automaton(indent: str, auto: Automaton) -> str:
    inner = indent + _STEP
    item = inner + _STEP
    states = [
        _object(item, [("name", _string(s.name)),
                       ("stereotypes", _strings(item + _STEP, s.stereotypes))])
        for s in auto.states
    ]
    initials = [
        _object(item, [("output", _entries(item + _STEP, i.output)),
                       ("state", _string(i.state))])
        for i in auto.initials
    ]
    return _object(indent, [
        ("initials", _array(inner, initials)),
        ("name", _optional(auto.name)),
        ("states", _array(inner, states)),
        ("stereotypes", _strings(inner, auto.stereotypes)),
        ("transitions", _array(inner, [_transition(item, t) for t in auto.transitions])),
    ])


def _transition(indent: str, t: Transition) -> str:
    i1 = indent + _STEP
    if t.guard is None:
        guard = "null"
    else:
        i2 = i1 + _STEP
        guard = (f'{{\n{i2}"expr": {_string(format_expr(t.guard.expr))},\n'
                 f'{i2}"kind": {_optional(t.guard.kind)}\n{i1}}}')
    return (f'{{\n{i1}"guard": {guard},\n'
            f'{i1}"inputs": {_entries(i1, t.input)},\n'
            f'{i1}"outputs": {_entries(i1, t.output)},\n'
            f'{i1}"source": {_string(t.source)},\n'
            f'{i1}"target": {_string(t.target)}\n{indent}}}')


def _entries(indent: str, entries) -> str:
    """An input or output block, or ``null`` where the text has none: one
    ``{"alternatives": [...], "target": ...}`` object per entry."""
    if entries is None:
        return "null"
    i1 = indent + _STEP
    i2 = i1 + _STEP
    return _array(indent, [
        f'{{\n{i2}"alternatives": '
        f'{_array(i2, [_string(format_value(a)) for a in e.alternatives])},\n'
        f'{i2}"target": {_optional(e.target)}\n{i1}}}'
        for e in entries
    ])
