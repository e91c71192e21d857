"""Name and type resolution across compilation units.

Builds the symbol table (components and enums by qualified name), resolves
imports, types every port and variable, and substitutes generic type
parameters.  The parsed tree is only read: a :class:`ResolvedComponent`
answers on demand what a bare name denotes (:meth:`~ResolvedComponent.binding`)
and which port or variable an input or output entry targets, named or
inferred from its type (:meth:`~ResolvedComponent.target`).  So one parsed
unit can be resolved into any number of models.

Resolution is total: unresolved names bind to nothing and are reported later
by the well-formedness rules (R2 family); only structural failures that have no
rule of their own (dangling imports, unknown types, bad wiring) are reported
here under the code ``R0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .diagnostics import Diagnostic, SourceLoc
from .syntax import (
    Assignment,
    CompilationUnit,
    ComponentType,
    ELit,
    ERef,
    Match,
    NoData,
    SequenceValue,
    Transition,
    TypeDeclUnit,
    ValueTerm,
    expr_refs,
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
_LITERAL_TYPES = {int: INTEGER, bool: BOOLEAN, str: STRING}


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
    """One component with every declaration typed, and the one place that
    answers what its names denote."""

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
    in_ports: list[str] = field(default_factory=list)  # in declaration order
    out_ports: list[str] = field(default_factory=list)
    # id of an unnamed input or output entry -> (the entry, its target);
    # holding the entry keeps its id from being reused
    _targets: dict[int, tuple] = field(default_factory=dict, repr=False, compare=False)

    def binding(self, name: str):
        """What a bare name denotes in this component.

        ("in"|"out"|"var", type) for a declared port or variable, ("enum",
        EnumInfo) for the literal of one visible enum, ("ambiguous-enum",
        [EnumInfo, ...]) for a literal of several, or None.  Ports and
        variables shadow enum literals.
        """
        if name in self.port_dir:
            return (self.port_dir[name], self.port_type.get(name))
        if name in self.var_type:
            return ("var", self.var_type[name])
        enums = self.literal_index.get(name, [])
        if len(enums) == 1:
            return ("enum", enums[0])
        if enums:
            return ("ambiguous-enum", enums)
        return None

    def target(self, entry: Union[Match, Assignment]) -> Inference:
        """The port or variable an input (Match) or output (Assignment) entry targets.

        A named entry targets its name if a port or variable is declared so.
        An unnamed one targets the only in-port (out-port for an output) or
        variable that admits every alternative; that is inferred once per
        entry, since nothing writes the AST after parsing.
        """
        if entry.target is not None:
            if entry.target in self.port_dir or entry.target in self.var_type:
                return Inference("ok", entry.target, (entry.target,))
            return Inference("none", None)
        memo = self._targets.get(id(entry))
        if memo is None:
            direction = "in" if isinstance(entry, Match) else "out"
            ports = self.in_ports if direction == "in" else self.out_ports
            candidates = ([(p, self.port_type.get(p)) for p in ports]
                          + list(self.var_type.items()))
            kinds = {p: direction for p in ports} | {v: "var" for v in self.var_type}
            memo = self._targets[id(entry)] = (
                entry, infer_block_target(entry.alternatives, candidates, kinds, self))
        return memo[1]

    def ports_read(self, trans: Transition) -> tuple[set[str], set[str]]:
        """The in-ports a transition's guard reads, and all the in-ports it
        reads: those and the ones its input block matches.

        The event-driven profile allows one (rule S2ED), and a transition
        reacts only to events on that port.
        """
        guard: set[str] = set()
        if trans.guard is not None:
            guard = {ref.name for ref in expr_refs(trans.guard.expr)
                     if self.port_dir.get(ref.name) == "in"}
        reads = set(guard)
        for match in trans.input or []:
            name = self.target(match).name
            if self.port_dir.get(name) == "in":
                reads.add(name)
        return guard, reads


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

    # Pass 1: per-component environments (imports, port and variable types).
    for rc in resolved:
        _resolve_imports(rc, model, known_packages, diags)
        _resolve_declarations(rc, model, diags)

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
        (rc.in_ports if port.direction == "in" else rc.out_ports).append(port.name)
        if port.name not in rc.port_type:
            rc.port_type[port.name] = resolve_type(port.type_name, port.loc, "port")
    for var in rc.ast.variables:
        if var.name not in rc.var_type:
            rc.var_type[var.name] = resolve_type(var.type_name, var.loc, "variable")


# ---------------------------------------------------------------------------
# Typing and inference
# ---------------------------------------------------------------------------

def type_of(term: ValueTerm, env: ResolvedComponent):
    """Type of a value term, or of a guard's literal or name, in a component's
    name environment.

    Returns a :data:`TypeRef`, a :class:`SeqType`, :data:`NODATA_TYPE`, or
    ``None`` when the term is untypable (unresolved or ambiguous name,
    heterogeneous sequence).
    """
    if isinstance(term, ELit):
        return _LITERAL_TYPES[type(term.value)]
    if isinstance(term, ERef):
        binding = env.binding(term.name)
        if binding is None or binding[0] == "ambiguous-enum":
            return None
        if binding[0] == "enum":
            return EnumType(binding[1].qname)
        return binding[1]
    if isinstance(term, NoData):
        return NODATA_TYPE
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


class Inference(NamedTuple):
    status: str  # "ok" | "ambiguous" | "none"
    name: Optional[str]
    candidates: tuple[str, ...] = ()


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
