"""Name and type resolution across compilation units.

Builds the symbol table (components and enums by qualified name), resolves
imports, binds every bare name inside automata to a port, variable, or enum
literal, performs type-based target inference for unnamed matches and
assignments, and substitutes generic type parameters.

Resolution is total: unresolved names are annotated as such and reported later
by the well-formedness rules (R2 family); only structural failures that have no
rule of their own (dangling imports, unknown types, bad wiring) are reported
here under the code ``R0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import Diagnostic, SourceLoc
from .syntax import (
    Assignment,
    Automaton,
    BoolLit,
    CompilationUnit,
    ComponentType,
    ERef,
    EBinary,
    EUnary,
    Expr,
    IntLit,
    Match,
    NameValue,
    NoData,
    SequenceValue,
    StringLit,
    TypeDeclUnit,
    ValueTerm,
)

# ---------------------------------------------------------------------------
# Type references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuiltinType:
    name: str  # Integer | Boolean | String

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class EnumType:
    qname: str

    def __str__(self) -> str:
        return self.qname


@dataclass(frozen=True)
class ParamType:
    name: str

    def __str__(self) -> str:
        return self.name


TypeRef = Union[BuiltinType, EnumType, ParamType]

INTEGER = BuiltinType("Integer")
BOOLEAN = BuiltinType("Boolean")
STRING = BuiltinType("String")
BUILTINS = {"Integer": INTEGER, "Boolean": BOOLEAN, "String": STRING}


@dataclass(frozen=True)
class SeqType:
    """Type of a sequence value; ``element`` is None for the empty sequence."""

    element: Optional[TypeRef]


class _NoDataType:
    def __repr__(self) -> str:
        return "NODATA"


NODATA_TYPE = _NoDataType()


def conforms(a: TypeRef, b: TypeRef) -> bool:
    """Nominal, exact type conformance: each type conforms only to itself."""
    return a == b


# ---------------------------------------------------------------------------
# Resolved symbols
# ---------------------------------------------------------------------------

@dataclass
class EnumInfo:
    qname: str
    name: str
    literals: list[str]


@dataclass
class ResolvedSub:
    instance: str
    target_qname: str
    arg_types: list[TypeRef]
    port_dir: dict[str, str] = field(default_factory=dict)
    port_type: dict[str, TypeRef] = field(default_factory=dict)
    loc: Optional[SourceLoc] = None


@dataclass
class ResolvedComponent:
    """One component with every name bound and every declaration typed."""

    unit: CompilationUnit
    ast: ComponentType
    qname: str
    package: str
    port_dir: dict[str, str] = field(default_factory=dict)
    port_type: dict[str, Optional[TypeRef]] = field(default_factory=dict)
    var_type: dict[str, Optional[TypeRef]] = field(default_factory=dict)
    visible_enums: dict[str, list[EnumInfo]] = field(default_factory=dict)
    literal_index: dict[str, list[EnumInfo]] = field(default_factory=dict)
    subcomponents: dict[str, ResolvedSub] = field(default_factory=dict)

    @property
    def in_ports(self) -> list[str]:
        return [p.name for p in self.ast.ports if p.direction == "in"]

    @property
    def out_ports(self) -> list[str]:
        return [p.name for p in self.ast.ports if p.direction == "out"]

    def lookup(self, name: str):
        """Binding for a declared port or variable: ("in"|"out"|"var", type)."""
        if name in self.port_dir:
            return (self.port_dir[name], self.port_type.get(name))
        if name in self.var_type:
            return ("var", self.var_type[name])
        return None


@dataclass
class ResolvedModel:
    components: dict[str, ResolvedComponent] = field(default_factory=dict)
    enums: dict[str, EnumInfo] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def resolve(units: list[CompilationUnit],
            types: list[TypeDeclUnit]) -> tuple[ResolvedModel, list[Diagnostic]]:
    """Resolve a set of model and type units into one model."""
    model = ResolvedModel()
    diags: list[Diagnostic] = []

    for tu in types:
        for enum in tu.enums:
            qname = f"{tu.package}.{enum.name}" if tu.package else enum.name
            if qname in model.enums:
                diags.append(Diagnostic.at("R0", enum.loc, f"enum '{qname}' declared twice"))
                continue
            model.enums[qname] = EnumInfo(qname, enum.name, list(enum.literals))

    resolved: list[ResolvedComponent] = []
    for unit in units:
        comp = unit.component
        qname = f"{unit.package}.{comp.name}" if unit.package else comp.name
        if qname in model.components:
            diags.append(Diagnostic.at("R0", comp.loc, f"component '{qname}' declared twice"))
            continue
        rc = ResolvedComponent(unit, comp, qname, unit.package)
        model.components[qname] = rc
        resolved.append(rc)

    known_packages = ({e.qname.rsplit(".", 1)[0] for e in model.enums.values() if "." in e.qname}
                      | {c.qname.rsplit(".", 1)[0] for c in model.components.values()
                         if "." in c.qname})

    # Pass 1: per-component environments (imports, port/variable types, name
    # bindings inside automata).
    for rc in resolved:
        _resolve_imports(rc, model, known_packages, diags)
        _resolve_declarations(rc, model, diags)
        for automaton in rc.ast.automata:
            _bind_automaton(automaton, rc)
            _infer_automaton_targets(automaton, rc)

    # Pass 2: structure (subcomponents, generics, connectors) needs the other
    # components' resolved interfaces.
    for rc in resolved:
        _resolve_structure(rc, model, diags)

    return model, diags


def _resolve_imports(rc: ResolvedComponent, model: ResolvedModel,
                     known_packages: set[str], diags: list[Diagnostic]) -> None:
    visible: dict[str, list[EnumInfo]] = {}

    def add(enum: EnumInfo):
        visible.setdefault(enum.name, [])
        if enum not in visible[enum.name]:
            visible[enum.name].append(enum)

    for enum in model.enums.values():
        pkg = enum.qname.rsplit(".", 1)[0] if "." in enum.qname else ""
        if pkg == rc.package:
            add(enum)

    for imp in rc.unit.imports:
        if imp.name.endswith(".*"):
            pkg = imp.name[:-2]
            if pkg not in known_packages:
                diags.append(Diagnostic.at("R0", imp.loc, f"unresolved import '{imp.name}'"))
                continue
            for enum in model.enums.values():
                if enum.qname.rsplit(".", 1)[0] == pkg:
                    add(enum)
        else:
            if imp.name in model.enums:
                add(model.enums[imp.name])
            elif imp.name not in model.components:
                diags.append(Diagnostic.at("R0", imp.loc, f"unresolved import '{imp.name}'"))

    rc.visible_enums = visible
    index: dict[str, list[EnumInfo]] = {}
    for enums in visible.values():
        for enum in enums:
            for lit in enum.literals:
                index.setdefault(lit, [])
                if enum not in index[lit]:
                    index[lit].append(enum)
    rc.literal_index = index


def _resolve_type_name(rc: ResolvedComponent, model: ResolvedModel,
                       name: str) -> Optional[TypeRef]:
    if name in BUILTINS:
        return BUILTINS[name]
    if name in rc.ast.generic_params:
        return ParamType(name)
    if "." in name:
        return EnumType(name) if name in model.enums else None
    candidates = rc.visible_enums.get(name, [])
    if len(candidates) == 1:
        return EnumType(candidates[0].qname)
    return None


def _resolve_declarations(rc: ResolvedComponent, model: ResolvedModel,
                          diags: list[Diagnostic]) -> None:
    def resolve_type(name: str, loc: SourceLoc, what: str) -> Optional[TypeRef]:
        ref = _resolve_type_name(rc, model, name)
        if ref is not None:
            return ref
        candidates = rc.visible_enums.get(name, [])
        if len(candidates) > 1:
            names = ", ".join(sorted(e.qname for e in candidates))
            diags.append(Diagnostic.at("R0", loc, f"ambiguous type '{name}' ({names})"))
        else:
            diags.append(Diagnostic.at("R0", loc, f"unresolved {what} type '{name}'"))
        return None

    for port in rc.ast.ports:
        rc.port_dir[port.name] = port.direction
        if port.name not in rc.port_type:
            rc.port_type[port.name] = resolve_type(port.type_name, port.loc, "port")
    for var in rc.ast.variables:
        if var.name not in rc.var_type:
            rc.var_type[var.name] = resolve_type(var.type_name, var.loc, "variable")
    for var in rc.ast.variables:
        if var.initial is not None:
            _bind_value(var.initial, rc)


def _bind_value(term: ValueTerm, rc: ResolvedComponent) -> None:
    if isinstance(term, NameValue):
        bound = rc.lookup(term.name)
        if bound is not None:
            term.binding = bound
            return
        enums = rc.literal_index.get(term.name, [])
        if len(enums) == 1:
            term.binding = ("enum", enums[0])
        elif len(enums) > 1:
            term.binding = ("ambiguous-enum", enums)
        else:
            term.binding = None
    elif isinstance(term, SequenceValue):
        for element in term.elements:
            _bind_value(element, rc)


def _bind_expr(expr: Expr, rc: ResolvedComponent) -> None:
    if isinstance(expr, ERef):
        bound = rc.lookup(expr.name)
        if bound is not None:
            expr.binding = bound
            return
        enums = rc.literal_index.get(expr.name, [])
        if len(enums) == 1:
            expr.binding = ("enum", enums[0])
        elif len(enums) > 1:
            expr.binding = ("ambiguous-enum", enums)
        else:
            expr.binding = None
    elif isinstance(expr, EUnary):
        _bind_expr(expr.operand, rc)
    elif isinstance(expr, EBinary):
        _bind_expr(expr.left, rc)
        _bind_expr(expr.right, rc)


def _bind_automaton(automaton: Automaton, rc: ResolvedComponent) -> None:
    for init in automaton.initials:
        for assign in init.output or []:
            for alt in assign.alternatives:
                _bind_value(alt, rc)
    for trans in automaton.transitions:
        if trans.guard is not None:
            _bind_expr(trans.guard.expr, rc)
        for match in trans.input or []:
            for alt in match.alternatives:
                _bind_value(alt, rc)
        for assign in trans.output or []:
            for alt in assign.alternatives:
                _bind_value(alt, rc)


# ---------------------------------------------------------------------------
# Typing and inference
# ---------------------------------------------------------------------------

def type_of(term: ValueTerm, env: ResolvedComponent):
    """Type of a value term in a component's name environment.

    Returns a :data:`TypeRef`, a :class:`SeqType`, :data:`NODATA_TYPE`, or
    ``None`` when the term is untypable (unresolved or ambiguous name,
    heterogeneous sequence).
    """
    if isinstance(term, IntLit):
        return INTEGER
    if isinstance(term, BoolLit):
        return BOOLEAN
    if isinstance(term, StringLit):
        return STRING
    if isinstance(term, NoData):
        return NODATA_TYPE
    if isinstance(term, NameValue):
        if term.binding is None and term.name:
            _bind_value(term, env)
        binding = term.binding
        if binding is None or binding[0] == "ambiguous-enum":
            return None
        if binding[0] == "enum":
            return EnumType(binding[1].qname)
        return binding[1]
    if isinstance(term, SequenceValue):
        if not term.elements:
            return SeqType(None)
        element_types = [type_of(e, env) for e in term.elements]
        first = element_types[0]
        if first is None or isinstance(first, (SeqType, _NoDataType)):
            return None
        if all(t == first for t in element_types):
            return SeqType(first)
        return None
    raise TypeError(f"not a value term: {term!r}")


def admits(kind: str, declared: Optional[TypeRef], term: ValueTerm,
           env: ResolvedComponent) -> bool:
    """Whether a port/variable of the given kind and type can take the term.

    ``kind`` is "in", "out", or "var".  ``--`` is admitted by any port and by
    no variable; sequences are admitted by ports whose type matches every
    element, and never by variables.
    """
    if declared is None:
        return False
    if isinstance(term, NoData):
        return kind != "var"
    if isinstance(term, SequenceValue):
        if kind == "var":
            return False
        return all(admits(kind, declared, e, env) for e in term.elements)
    t = type_of(term, env)
    if t is None or isinstance(t, (SeqType, _NoDataType)):
        return False
    return conforms(t, declared)


@dataclass(frozen=True)
class Inference:
    status: str  # "ok" | "ambiguous" | "none"
    name: Optional[str]
    candidates: tuple[str, ...] = ()


def match_candidates(rc: ResolvedComponent) -> tuple[list[tuple[str, Optional[TypeRef]]], dict[str, str]]:
    """Inference candidates for input blocks: in-ports and variables."""
    cands = [(p, rc.port_type.get(p)) for p in rc.in_ports]
    cands += [(v, rc.var_type[v]) for v in rc.var_type]
    kinds = {p: "in" for p in rc.in_ports}
    kinds.update({v: "var" for v in rc.var_type})
    return cands, kinds


def assign_candidates(rc: ResolvedComponent) -> tuple[list[tuple[str, Optional[TypeRef]]], dict[str, str]]:
    """Inference candidates for output blocks: out-ports and variables."""
    cands = [(p, rc.port_type.get(p)) for p in rc.out_ports]
    cands += [(v, rc.var_type[v]) for v in rc.var_type]
    kinds = {p: "out" for p in rc.out_ports}
    kinds.update({v: "var" for v in rc.var_type})
    return cands, kinds


def infer_block_target(alternatives: list[ValueTerm],
                       candidates: list[tuple[str, Optional[TypeRef]]],
                       kinds: dict[str, str], env: ResolvedComponent) -> Inference:
    """Inference over a whole alternative list: the target must admit them all."""
    admitting = []
    for name, declared in candidates:
        kind = kinds.get(name, "in")
        if all(admits(kind, declared, alt, env) for alt in alternatives):
            admitting.append(name)
    if len(admitting) == 1:
        return Inference("ok", admitting[0], tuple(admitting))
    if not admitting:
        return Inference("none", None)
    return Inference("ambiguous", None, tuple(admitting))


def _infer_automaton_targets(automaton: Automaton, rc: ResolvedComponent) -> None:
    in_cands, in_kinds = match_candidates(rc)
    out_cands, out_kinds = assign_candidates(rc)

    def resolve_match(match: Match):
        if match.target is not None:
            if rc.lookup(match.target) is not None:
                match.resolved_target = match.target
            return
        result = infer_block_target(match.alternatives, in_cands, in_kinds, rc)
        match.resolved_target = result.name

    def resolve_assign(assign: Assignment):
        if assign.target is not None:
            if rc.lookup(assign.target) is not None:
                assign.resolved_target = assign.target
            return
        result = infer_block_target(assign.alternatives, out_cands, out_kinds, rc)
        assign.resolved_target = result.name

    for init in automaton.initials:
        for assign in init.output or []:
            resolve_assign(assign)
    for trans in automaton.transitions:
        for match in trans.input or []:
            resolve_match(match)
        for assign in trans.output or []:
            resolve_assign(assign)


# ---------------------------------------------------------------------------
# Structure: subcomponents, generics, connectors
# ---------------------------------------------------------------------------

def _visible_components(rc: ResolvedComponent, model: ResolvedModel) -> dict[str, list[str]]:
    visible: dict[str, list[str]] = {}

    def add(qname: str):
        simple = qname.rsplit(".", 1)[-1]
        visible.setdefault(simple, [])
        if qname not in visible[simple]:
            visible[simple].append(qname)

    for qname, comp in model.components.items():
        if comp.package == rc.package:
            add(qname)
    for imp in rc.unit.imports:
        if imp.name.endswith(".*"):
            pkg = imp.name[:-2]
            for qname, comp in model.components.items():
                if comp.package == pkg:
                    add(qname)
        elif imp.name in model.components:
            add(imp.name)
    return visible


def substitute_type(ref: Optional[TypeRef], bindings: dict[str, TypeRef]) -> Optional[TypeRef]:
    if isinstance(ref, ParamType) and ref.name in bindings:
        return bindings[ref.name]
    return ref


def _resolve_structure(rc: ResolvedComponent, model: ResolvedModel,
                       diags: list[Diagnostic]) -> None:
    comp = rc.ast
    if comp.subcomponents and comp.automata:
        diags.append(Diagnostic.at(
            "R0", comp.loc,
            f"component '{comp.name}' mixes subcomponents and automaton behavior"))

    visible = _visible_components(rc, model)
    for sub in comp.subcomponents:
        if "." in sub.type_name:
            target = sub.type_name if sub.type_name in model.components else None
        else:
            matches = visible.get(sub.type_name, [])
            if len(matches) > 1:
                diags.append(Diagnostic.at(
                    "R0", sub.loc, f"ambiguous component type '{sub.type_name}'"))
                continue
            target = matches[0] if matches else None
        if target is None:
            diags.append(Diagnostic.at(
                "R0", sub.loc, f"unresolved component type '{sub.type_name}'"))
            continue
        target_rc = model.components[target]
        params = target_rc.ast.generic_params
        args: list[TypeRef] = []
        ok = True
        for arg in sub.type_args:
            ref = _resolve_type_name(rc, model, arg)
            if ref is None:
                diags.append(Diagnostic.at("R0", sub.loc, f"unresolved type argument '{arg}'"))
                ok = False
                continue
            args.append(ref)
        if len(sub.type_args) != len(params):
            diags.append(Diagnostic.at(
                "R0", sub.loc,
                f"component '{sub.type_name}' expects {len(params)} type argument(s), "
                f"got {len(sub.type_args)}"))
            ok = False
        if not ok:
            continue
        bindings = dict(zip(params, args))
        resolved_sub = ResolvedSub(sub.instance, target, args, loc=sub.loc)
        for port in target_rc.ast.ports:
            resolved_sub.port_dir[port.name] = port.direction
            resolved_sub.port_type[port.name] = substitute_type(
                target_rc.port_type.get(port.name), bindings)
        if sub.instance in rc.subcomponents:
            diags.append(Diagnostic.at(
                "R0", sub.loc, f"subcomponent instance '{sub.instance}' declared twice"))
            continue
        rc.subcomponents[sub.instance] = resolved_sub

    fed: dict[tuple[Optional[str], str], SourceLoc] = {}
    for conn in comp.connectors:
        src = _resolve_endpoint(rc, conn.source, diags, is_source=True)
        dst = _resolve_endpoint(rc, conn.target, diags, is_source=False)
        if src is None or dst is None:
            continue
        src_type, dst_type = src[2], dst[2]
        if src_type is not None and dst_type is not None and not conforms(src_type, dst_type):
            diags.append(Diagnostic.at(
                "R0", conn.loc,
                f"connector type mismatch: {src_type} -> {dst_type}"))
        key = (conn.target.instance, conn.target.port)
        if key in fed:
            diags.append(Diagnostic.at(
                "R0", conn.loc,
                f"port '{conn.target.port}' receives more than one connector"))
        fed[key] = conn.loc


def _resolve_endpoint(rc: ResolvedComponent, ref, diags: list[Diagnostic],
                      is_source: bool):
    """Returns (instance, port, type) or None; checks existence and direction.

    A source must be an own in-port or a subcomponent out-port; a target must
    be an own out-port or a subcomponent in-port.
    """
    if ref.instance is None:
        direction = rc.port_dir.get(ref.port)
        if direction is None:
            diags.append(Diagnostic.at("R0", ref.loc, f"unknown port '{ref.port}'"))
            return None
        expected = "in" if is_source else "out"
        if direction != expected:
            role = "source" if is_source else "target"
            diags.append(Diagnostic.at(
                "R0", ref.loc,
                f"own port '{ref.port}' is '{direction}' and cannot be a connector {role}"))
            return None
        return (None, ref.port, rc.port_type.get(ref.port))
    sub = rc.subcomponents.get(ref.instance)
    if sub is None:
        diags.append(Diagnostic.at("R0", ref.loc, f"unknown subcomponent '{ref.instance}'"))
        return None
    direction = sub.port_dir.get(ref.port)
    if direction is None:
        diags.append(Diagnostic.at(
            "R0", ref.loc, f"subcomponent '{ref.instance}' has no port '{ref.port}'"))
        return None
    expected = "out" if is_source else "in"
    if direction != expected:
        role = "source" if is_source else "target"
        diags.append(Diagnostic.at(
            "R0", ref.loc,
            f"port '{ref.instance}.{ref.port}' is '{direction}' and cannot be a "
            f"connector {role}"))
        return None
    return (ref.instance, ref.port, sub.port_type.get(ref.port))
