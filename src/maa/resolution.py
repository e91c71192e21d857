"""Name and type resolution across compilation units.

Builds the symbol table (components and enums by qualified name), with one
visibility rule (own package, star and single imports) for enums and
components, and gives each component one name table
(:attr:`ResolvedComponent.names`): what each bare name denotes, a typed port,
a typed variable or a visible enum literal.  A name declared twice (rule U3)
denotes its first declaration, ports before variables; both shadow enum
literals.  The checker, the engine and the CLI read the table through
:meth:`~ResolvedComponent.binding` and ask
:meth:`~ResolvedComponent.target` which port or variable an input or output
entry targets; none decides on its own what a name is.  The parsed tree is
only read, so one parsed unit can be resolved into any number of models.

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


@dataclass
class ResolvedComponent:
    """One component with every declaration typed, and the one place that
    answers what its names denote."""

    unit: CompilationUnit
    ast: ComponentType
    qname: str
    package: str
    # bare name -> what it denotes; see binding()
    names: dict[str, tuple] = field(default_factory=dict)
    visible_enums: dict[str, list[str]] = field(default_factory=dict)  # name -> qnames
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
        [EnumInfo, ...]) for a literal of several, or None.  A name declared
        twice denotes its first declaration, ports before variables; ports
        and variables shadow enum literals.
        """
        return self.names.get(name)

    def kind(self, name: str) -> Optional[str]:
        """The first element of :meth:`binding`, or None."""
        return self.names.get(name, (None,))[0]

    def target(self, entry: Union[Match, Assignment]) -> Inference:
        """The port or variable an input (Match) or output (Assignment) entry targets.

        A named entry targets its name if a port or variable is declared so.
        An unnamed one targets the only in-port (out-port for an output) or
        variable that admits every alternative; that is inferred once per
        entry, since nothing writes the AST after parsing.
        """
        if entry.target is not None:
            if self.kind(entry.target) in ("in", "out", "var"):
                return Inference("ok", entry.target, (entry.target,))
            return Inference("none", None)
        memo = self._targets.get(id(entry))
        if memo is None:
            kinds = ("in" if isinstance(entry, Match) else "out", "var")
            candidates = {name: denoted for name, denoted in self.names.items()
                          if denoted[0] in kinds}
            memo = self._targets[id(entry)] = (
                entry, infer_block_target(entry.alternatives, candidates, self))
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
                     if self.kind(ref.name) == "in"}
        reads = set(guard)
        for match in trans.input or []:
            name = self.target(match).name
            if self.kind(name) == "in":
                reads.add(name)
        return guard, reads


@dataclass
class ResolvedModel:
    components: dict[str, ResolvedComponent] = field(default_factory=dict)
    enums: dict[str, EnumInfo] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)  # what resolve reported
    # every rule's diagnostics under every profile, sorted; filled by checks.check
    _checked: Optional[list[Diagnostic]] = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def resolve(units: list[CompilationUnit],
            types: list[TypeDeclUnit]) -> tuple[ResolvedModel, list[Diagnostic]]:
    """Resolve model and type units into one model, which keeps the diagnostics."""
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

    known_packages = {_package(q) for q in [*model.enums, *model.components] if "." in q}

    # Pass 1: per-component name tables (imports, port and variable types).
    for rc in resolved:
        _resolve_names(rc, model, known_packages, diags)

    # Pass 2: structure (subcomponents, generics, connectors) needs the other
    # components' name tables.
    for rc in resolved:
        _resolve_structure(rc, model, diags)

    model.diagnostics = list(diags)
    return model, diags


def _package(qname: str) -> str:
    return qname.rsplit(".", 1)[0] if "." in qname else ""


def _visible(rc: ResolvedComponent, qnames) -> dict[str, list[str]]:
    """Simple name -> the names among ``qnames`` visible in ``rc``: those of
    its own package, of each star-imported package, and each single import."""
    visible: dict[str, list[str]] = {}
    for imp in [None, *rc.unit.imports]:
        if imp is None or imp.name.endswith(".*"):
            package = rc.package if imp is None else imp.name[:-2]
            chosen = [q for q in qnames if _package(q) == package]
        else:
            chosen = [imp.name] if imp.name in qnames else []
        for qname in chosen:
            same = visible.setdefault(qname.rsplit(".", 1)[-1], [])
            if qname not in same:
                same.append(qname)
    return visible


def _resolve_names(rc: ResolvedComponent, model: ResolvedModel,
                   known_packages: set[str], diags: list[Diagnostic]) -> None:
    """Fill ``rc.names``: ports, then variables, then the visible enum
    literals; the first declaration of a name wins."""
    for imp in rc.unit.imports:
        if imp.name.endswith(".*"):
            known = imp.name[:-2] in known_packages
        else:
            known = imp.name in model.enums or imp.name in model.components
        if not known:
            diags.append(Diagnostic.at("R0", imp.loc, f"unresolved import '{imp.name}'"))
    rc.visible_enums = _visible(rc, model.enums)

    def resolve_type(name: str, loc: SourceLoc, what: str) -> Optional[TypeRef]:
        ref = _resolve_type_name(rc, model, name)
        if ref is not None:
            return ref
        candidates = rc.visible_enums.get(name, [])
        if len(candidates) > 1:
            names = ", ".join(sorted(candidates))
            diags.append(Diagnostic.at("R0", loc, f"ambiguous type '{name}' ({names})"))
        else:
            diags.append(Diagnostic.at("R0", loc, f"unresolved {what} type '{name}'"))
        return None

    for port in rc.ast.ports:
        if port.name not in rc.names:
            rc.names[port.name] = (port.direction, resolve_type(port.type_name, port.loc, "port"))
            (rc.in_ports if port.direction == "in" else rc.out_ports).append(port.name)
    for var in rc.ast.variables:
        if var.name not in rc.names:
            rc.names[var.name] = ("var", resolve_type(var.type_name, var.loc, "variable"))
    literals: dict[str, list[EnumInfo]] = {}
    for qnames in rc.visible_enums.values():
        for enum in (model.enums[q] for q in qnames):
            for lit in dict.fromkeys(enum.literals):
                literals.setdefault(lit, []).append(enum)
    for lit, enums in literals.items():
        if lit not in rc.names:
            rc.names[lit] = ("enum", enums[0]) if len(enums) == 1 else ("ambiguous-enum", enums)


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
        return EnumType(candidates[0])
    return None


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


def infer_block_target(alternatives: list[ValueTerm], candidates: dict[str, tuple],
                       env: ResolvedComponent) -> Inference:
    """Inference over a whole alternative list: the target must admit them all.

    ``candidates`` maps each port or variable that may be the target to its
    (kind, type), as :meth:`ResolvedComponent.binding` gives them.
    """
    admitting = [name for name, (kind, declared) in candidates.items()
                 if all(admits(kind, declared, alt, env) for alt in alternatives)]
    if len(admitting) == 1:
        return Inference("ok", admitting[0], tuple(admitting))
    if not admitting:
        return Inference("none", None)
    return Inference("ambiguous", None, tuple(admitting))


# ---------------------------------------------------------------------------
# Structure: subcomponents, generics, connectors
# ---------------------------------------------------------------------------

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

    visible = _visible(rc, model.components)
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
        params = model.components[target].ast.generic_params
        args = [_resolve_type_name(rc, model, arg) for arg in sub.type_args]
        for arg, ref in zip(sub.type_args, args):
            if ref is None:
                diags.append(Diagnostic.at("R0", sub.loc, f"unresolved type argument '{arg}'"))
        if len(args) != len(params):
            diags.append(Diagnostic.at(
                "R0", sub.loc,
                f"component '{sub.type_name}' expects {len(params)} type argument(s), "
                f"got {len(args)}"))
        if None in args or len(args) != len(params):
            continue
        if sub.instance in rc.subcomponents:
            diags.append(Diagnostic.at(
                "R0", sub.loc, f"subcomponent instance '{sub.instance}' declared twice"))
            continue
        rc.subcomponents[sub.instance] = ResolvedSub(sub.instance, target, args)

    fed: dict[tuple[Optional[str], str], SourceLoc] = {}
    for conn in comp.connectors:
        src = _resolve_endpoint(rc, model, conn.source, diags, is_source=True)
        dst = _resolve_endpoint(rc, model, conn.target, diags, is_source=False)
        if src is None or dst is None:
            continue
        (src_type,), (dst_type,) = src, dst
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


def _resolve_endpoint(rc: ResolvedComponent, model: ResolvedModel, ref,
                      diags: list[Diagnostic], is_source: bool):
    """Returns (type,), the port's type with generics substituted, or None
    after reporting why the port cannot be this end of a connector.

    A source must be an own in-port or a subcomponent out-port; a target must
    be an own out-port or a subcomponent in-port.
    """
    expected = "in" if is_source == (ref.instance is None) else "out"
    if ref.instance is None:
        owner, bindings = rc, {}
        unknown, port = f"unknown port '{ref.port}'", f"own port '{ref.port}'"
    else:
        sub = rc.subcomponents.get(ref.instance)
        if sub is None:
            diags.append(Diagnostic.at("R0", ref.loc, f"unknown subcomponent '{ref.instance}'"))
            return None
        owner = model.components[sub.target_qname]
        bindings = dict(zip(owner.ast.generic_params, sub.arg_types))
        unknown = f"subcomponent '{ref.instance}' has no port '{ref.port}'"
        port = f"port '{ref.instance}.{ref.port}'"
    direction, declared = owner.binding(ref.port) or (None, None)
    if direction not in ("in", "out"):
        diags.append(Diagnostic.at("R0", ref.loc, unknown))
        return None
    if direction != expected:
        role = "source" if is_source else "target"
        diags.append(Diagnostic.at(
            "R0", ref.loc, f"{port} is '{direction}' and cannot be a connector {role}"))
        return None
    return (substitute_type(declared, bindings),)
