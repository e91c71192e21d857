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
rule of their own (dangling imports, unknown types, bad wiring, a component
that contains itself, a cycle of connectors that passes no atomic instance)
are reported here under the code ``R0``.  One strongly-connected-components
routine finds both kinds of cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, TypeVar, Union

from .diagnostics import Diagnostic, SourceLoc
from .printer import format_port_ref
from .syntax import (
    Assignment,
    CompilationUnit,
    ComponentType,
    ConnectorDecl,
    ELit,
    ERef,
    Match,
    NoData,
    PortDecl,
    PortRef,
    SequenceValue,
    Transition,
    TypeDeclUnit,
    ValueTerm,
    VariableDecl,
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
PYTHON_TYPES = {INTEGER: int, BOOLEAN: bool, STRING: str}  # the values of each builtin type
_LITERAL_TYPES = {python: builtin for builtin, python in PYTHON_TYPES.items()}


# ---------------------------------------------------------------------------
# Resolved symbols
# ---------------------------------------------------------------------------

@dataclass
class EnumInfo:
    qname: str
    literals: list[str]


@dataclass
class ResolvedSub:
    instance: str
    target_qname: str
    arg_types: list[TypeRef]
    at: int  # the offset of the declaration


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
    subcomponents: dict[str, ResolvedSub] = field(default_factory=dict)
    in_ports: list[str] = field(default_factory=list)  # in declaration order
    out_ports: list[str] = field(default_factory=list)
    # an unnamed input or output entry -> its target
    _targets: dict[Union[Match, Assignment], Inference] = field(
        default_factory=dict, repr=False, compare=False)
    # id of a transition -> (it, ports_read's answer)
    _reads: dict[int, tuple] = field(default_factory=dict, repr=False, compare=False)
    # each distinct answer of ports_read -> itself, so that equal ones are one object
    _read_sets: dict[tuple, tuple] = field(default_factory=dict, repr=False, compare=False)

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
        distinct entry, since equal entries of one class infer alike.
        """
        if entry.target is not None:
            if self.kind(entry.target) in ("in", "out", "var"):
                return Inference("ok", entry.target, (entry.target,))
            return Inference("none", None)
        found = self._targets.get(entry)
        if found is None:
            kinds = ("in" if isinstance(entry, Match) else "out", "var")
            candidates = {name: denoted for name, denoted in self.names.items()
                          if denoted[0] in kinds}
            found = self._targets[entry] = infer_block_target(entry.alternatives, candidates, self)
        return found

    def ports_read(self, trans: Transition) -> tuple[frozenset[str], frozenset[str]]:
        """The in-ports a transition's guard reads, and all the in-ports it
        reads: those and the ones its input block matches.

        The event-driven profile allows one (rule S2ED), and a transition
        reacts only to events on that port.  Computed once per transition,
        since the checker and the engine both ask; equal answers are shared.
        """
        found = self._reads.get(id(trans))
        if found is None or found[0] is not trans:
            answer = self._read_ports(trans)
            found = self._reads[id(trans)] = (trans, self._read_sets.setdefault(answer, answer))
        return found[1]

    def _read_ports(self, trans: Transition) -> tuple[frozenset[str], frozenset[str]]:
        guard: set[str] = set()
        if trans.guard is not None:
            guard = {ref.name for ref in expr_refs(trans.guard.expr)
                     if self.kind(ref.name) == "in"}
        reads = set(guard)
        for match in trans.input or []:
            name = self.target(match).name
            if self.kind(name) == "in":
                reads.add(name)
        return frozenset(guard), frozenset(reads)


@dataclass
class ResolvedModel:
    components: dict[str, ResolvedComponent] = field(default_factory=dict)
    enums: dict[str, EnumInfo] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)  # what resolve reported
    # filled by the first checks.check: "all", "ts", "ed" -> the findings of
    # the rules of that profile
    _checked: Optional[dict[str, list]] = field(default=None, repr=False, compare=False)


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
                diags.append(Diagnostic.at(
                    "R0", tu.locator.loc(enum.at), f"enum '{qname}' declared twice"))
                continue
            model.enums[qname] = EnumInfo(qname, list(enum.literals))

    resolved: list[ResolvedComponent] = []
    for unit in units:
        comp = unit.component
        qname = f"{unit.package}.{comp.name}" if unit.package else comp.name
        if qname in model.components:
            diags.append(Diagnostic.at(
                "R0", unit.locator.loc(comp.at), f"component '{qname}' declared twice"))
            continue
        rc = ResolvedComponent(unit, comp, qname, unit.package)
        model.components[qname] = rc
        resolved.append(rc)

    enums, components = _index(model.enums), _index(model.components)

    # Pass 1: per-component name tables (imports, port and variable types).
    for rc in resolved:
        _resolve_names(rc, model, enums, components, diags)

    # Pass 2: structure (subcomponents, generics, connectors) needs the other
    # components' name tables.
    connectors = {rc.qname: _resolve_structure(rc, model, enums, components, diags)
                  for rc in resolved}
    _cycles(model, connectors, diags)

    model.diagnostics = list(diags)
    return model, diags


def _where(rc: ResolvedComponent, node) -> SourceLoc:
    """Where ``node``, parsed from the file of ``rc``, starts."""
    return rc.unit.locator.loc(node.at)


def _package(qname: str) -> str:
    return qname.rsplit(".", 1)[0] if "." in qname else ""


def _index(qnames) -> dict[str, dict[str, str]]:
    """Package -> simple name -> the qualified name, over ``qnames``."""
    index: dict[str, dict[str, str]] = {}
    for qname in qnames:
        index.setdefault(_package(qname), {})[qname.rsplit(".", 1)[-1]] = qname
    return index


def _scopes(rc: ResolvedComponent, index: dict[str, dict[str, str]]):
    """The maps, simple name -> qualified name, of the names in ``index``
    visible in ``rc``, in order: its own package, then each star-imported
    package and each single import."""
    for imp in [None, *rc.unit.imports]:
        if imp is None or imp.name.endswith(".*"):
            yield index.get(rc.package if imp is None else imp.name[:-2], {})
        else:
            package, _, name = imp.name.rpartition(".")
            if index.get(package, {}).get(name) == imp.name:
                yield {name: imp.name}


def _visible(rc: ResolvedComponent, index: dict[str, dict[str, str]], name: str) -> list[str]:
    """The qualified names in ``index`` that ``name`` can denote in ``rc``,
    each once: a qualified name denotes itself if it is declared, a simple
    name what :func:`_scopes` make visible under it.  Several make the name
    ambiguous."""
    if "." in name:
        package, _, simple = name.rpartition(".")
        return [name] if index.get(package, {}).get(simple) == name else []
    return list(dict.fromkeys([scope[name] for scope in _scopes(rc, index) if name in scope]))


def _resolve_names(rc: ResolvedComponent, model: ResolvedModel, enums: dict,
                   components: dict, diags: list[Diagnostic]) -> None:
    """Fill ``rc.names``: ports, then variables, then the visible enum
    literals; the first declaration of a name wins.  ``enums`` and
    ``components`` are the model's indexes of each kind."""
    for imp in rc.unit.imports:
        if imp.name.endswith(".*"):
            known = imp.name[:-2] in enums or imp.name[:-2] in components
        else:
            known = imp.name in model.enums or imp.name in model.components
        if not known:
            diags.append(Diagnostic.at("R0", _where(rc, imp), f"unresolved import '{imp.name}'"))

    def resolve_type(name: str, decl: Union[PortDecl, VariableDecl],
                     what: str) -> Optional[TypeRef]:
        ref = _resolve_type_name(rc, enums, name)
        if ref is not None:
            return ref
        candidates = _visible(rc, enums, name)
        if len(candidates) > 1:
            names = ", ".join(sorted(candidates))
            diags.append(Diagnostic.at(
                "R0", _where(rc, decl), f"ambiguous type '{name}' ({names})"))
        else:
            diags.append(Diagnostic.at(
                "R0", _where(rc, decl), f"unresolved {what} type '{name}'"))
        return None

    for port in rc.ast.ports:
        if port.name not in rc.names:
            rc.names[port.name] = (port.direction, resolve_type(port.type_name, port, "port"))
            (rc.in_ports if port.direction == "in" else rc.out_ports).append(port.name)
    for var in rc.ast.variables:
        if var.name not in rc.names:
            declared = resolve_type(var.type_name, var, "variable")
            rc.names[var.name] = ("var", declared)
            if (var.initial is None and isinstance(declared, EnumType)
                    and not model.enums[declared.qname].literals):
                diags.append(Diagnostic.at(
                    "R0", _where(rc, var),
                    f"enum '{declared.qname}' has no literals to default to"))
    literals: dict[str, list[EnumInfo]] = {}
    for qname in dict.fromkeys([q for scope in _scopes(rc, enums) for q in scope.values()]):
        for lit in dict.fromkeys(model.enums[qname].literals):
            literals.setdefault(lit, []).append(model.enums[qname])
    for lit, infos in literals.items():
        if lit not in rc.names:
            rc.names[lit] = ("enum", infos[0]) if len(infos) == 1 else ("ambiguous-enum", infos)


def _resolve_type_name(rc: ResolvedComponent, enums: dict, name: str) -> Optional[TypeRef]:
    """The type ``name`` denotes in ``rc``: a builtin, a type parameter or
    the one enum that ``enums``, the model's enum index, makes visible."""
    if name in BUILTINS:
        return BUILTINS[name]
    if name in rc.ast.generic_params:
        return ParamType(name)
    found = _visible(rc, enums, name)
    return EnumType(found[0]) if len(found) == 1 else None


# ---------------------------------------------------------------------------
# Typing and inference
# ---------------------------------------------------------------------------

def type_of(term: Union[ELit, ERef], env: ResolvedComponent) -> Optional[TypeRef]:
    """Type of a literal or a name in a component's name environment, or
    ``None`` for a name that is unresolved, ambiguous or of no resolved type."""
    if isinstance(term, ELit):
        return _LITERAL_TYPES[type(term.value)]
    binding = env.binding(term.name)
    if binding is None or binding[0] == "ambiguous-enum":
        return None
    if binding[0] == "enum":
        return EnumType(binding[1].qname)
    return binding[1]


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
    return type_of(term, env) == declared


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

N = TypeVar("N")
End = tuple[Optional[str], str]  # a connector end: (instance, port), or (None, own port)


def substitute_type(ref: Optional[TypeRef], bindings: dict[str, TypeRef]) -> Optional[TypeRef]:
    if isinstance(ref, ParamType) and ref.name in bindings:
        return bindings[ref.name]
    return ref


def _resolve_structure(rc: ResolvedComponent, model: ResolvedModel, enums: dict,
                       components: dict, diags: list[Diagnostic]) -> list[ConnectorDecl]:
    """Resolve the subcomponents and connectors of ``rc``; returns the
    connectors whose two ends resolved."""
    comp = rc.ast
    if comp.composed and comp.automata:
        parts = "subcomponents" if comp.subcomponents else "connectors"
        diags.append(Diagnostic.at(
            "R0", _where(rc, comp),
            f"component '{comp.name}' mixes {parts} and automaton behavior"))

    for sub in comp.subcomponents:
        matches = _visible(rc, components, sub.type_name)
        if len(matches) != 1:
            problem = "ambiguous" if matches else "unresolved"
            diags.append(Diagnostic.at(
                "R0", _where(rc, sub), f"{problem} component type '{sub.type_name}'"))
            continue
        target = matches[0]
        params = model.components[target].ast.generic_params
        args = [_resolve_type_name(rc, enums, arg) for arg in sub.type_args]
        for arg, ref in zip(sub.type_args, args):
            if ref is None:
                diags.append(Diagnostic.at(
                    "R0", _where(rc, sub), f"unresolved type argument '{arg}'"))
        if len(args) != len(params):
            diags.append(Diagnostic.at(
                "R0", _where(rc, sub),
                f"component '{sub.type_name}' expects {len(params)} type argument(s), "
                f"got {len(args)}"))
        if None in args or len(args) != len(params):
            continue
        if sub.instance in rc.subcomponents:
            diags.append(Diagnostic.at(
                "R0", _where(rc, sub), f"subcomponent instance '{sub.instance}' declared twice"))
            continue
        rc.subcomponents[sub.instance] = ResolvedSub(sub.instance, target, args, sub.at)

    fed: set[End] = set()
    resolved = []
    for conn in comp.connectors:
        src = _resolve_endpoint(rc, model, conn.source, diags, is_source=True)
        dst = _resolve_endpoint(rc, model, conn.target, diags, is_source=False)
        if src is None or dst is None:
            continue
        resolved.append(conn)
        (src_type,), (dst_type,) = src, dst
        if src_type is not None and dst_type is not None and src_type != dst_type:
            diags.append(Diagnostic.at(
                "R0", _where(rc, conn),
                f"connector type mismatch: {src_type} -> {dst_type}"))
        key = _end(conn.target)
        if key in fed:
            diags.append(Diagnostic.at(
                "R0", _where(rc, conn),
                f"port '{conn.target.port}' receives more than one connector"))
        fed.add(key)
    return resolved


def _end(ref: PortRef) -> End:
    return ref.instance, ref.port


def _strongly_connected(nodes: Iterable[N], successors: Callable[[N], Iterable[N]]
                        ) -> list[list[N]]:
    """The strongly connected components of the graph over ``nodes`` whose
    edges lead from a node to each of its ``successors``, in completion
    order: every component after each component it reaches.  Tarjan's
    algorithm over an explicit stack, so no depth exhausts Python's stack."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    placed: set[N] = set()  # the nodes of the components found
    path: list[N] = []  # visited, no component found yet
    work: list[tuple] = []  # (node, iterator over its successors), depth first
    found: list[list[N]] = []

    def visit(node: N) -> None:
        index[node] = low[node] = len(index)
        path.append(node)
        work.append((node, iter(successors(node))))

    for start in nodes:
        if start not in index:
            visit(start)
        while work:
            node, targets = work[-1]
            for target in targets:
                if target not in index:
                    visit(target)
                    break
                if target not in placed:  # still on the path
                    low[node] = min(low[node], index[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = [path.pop()]
                    while component[-1] != node:
                        component.append(path.pop())
                    placed.update(component)
                    found.append(component)
    return found


def _cycles(model: ResolvedModel, connectors: dict[str, list[ConnectorDecl]],
            diags: list[Diagnostic]) -> None:
    """Report every subcomponent declaration on a containment cycle, which
    no instantiation could finish: one whose component and target lie in one
    strongly connected component of the containment graph.  Then report, in
    each composed component after its subcomponents, every connector on a
    cycle of connectors (see :func:`_connector_cycles`); ``connectors`` holds
    each component's connectors whose two ends resolved."""
    order = _strongly_connected(model.components, lambda qname: [
        sub.target_qname for sub in model.components[qname].subcomponents.values()])
    scc_of = {qname: k for k, component in enumerate(order) for qname in component}
    for rc in model.components.values():
        for sub in rc.subcomponents.values():
            if scc_of[sub.target_qname] == scc_of[rc.qname]:
                diags.append(Diagnostic.at(
                    "R0", _where(rc, sub),
                    f"component '{rc.qname}' contains itself through subcomponent "
                    f"'{sub.instance}'"))
    passes: dict[str, dict[str, str]] = {}
    for component in order:
        for qname in component:
            rc = model.components[qname]
            if rc.ast.composed:
                passes[qname] = _connector_cycles(rc, connectors[qname], passes, diags)


def _connector_cycles(rc: ResolvedComponent, connectors: list[ConnectorDecl],
                      passes: dict[str, dict[str, str]], diags: list[Diagnostic]
                      ) -> dict[str, str]:
    """Report every connector of ``rc`` on a cycle, which passes no atomic
    instance and so no delay.  A connector reads another in the same cycle
    when its source is an out-port of a composed subcomponent that, as
    ``passes`` says, passes on to it the in-port the other feeds; a
    connector is on a cycle when it reads itself or lies in one strongly
    connected component of that relation with another.  Returns what ``rc``
    passes on: each own out-port whose chain of connectors starts at an own
    in-port, to that in-port."""
    feeding = {_end(conn.target): k for k, conn in enumerate(connectors)}
    reads: list[list[int]] = []  # per connector, the one it reads in the same cycle, if any
    for conn in connectors:
        instance, port = _end(conn.source)
        passed = (None if instance is None else
                  passes.get(rc.subcomponents[instance].target_qname, {}).get(port))
        reads.append([feeding[instance, passed]] if (instance, passed) in feeding else [])
    order = _strongly_connected(range(len(connectors)), reads.__getitem__)
    looped = {k for component in order for k in component
              if len(component) > 1 or k in reads[k]}
    for k, conn in enumerate(connectors):
        if k in looped:
            ends = f"{format_port_ref(conn.source)} -> {format_port_ref(conn.target)}"
            diags.append(Diagnostic.at(
                "R0", _where(rc, conn),
                f"connector '{ends}' is on a cycle that passes no atomic instance"))
    origin: dict[int, Optional[str]] = {}  # connector -> the own in-port its chain starts at
    for component in order:  # each connector after the one it reads
        for k in component:
            source = connectors[k].source
            if k in looped:
                origin[k] = None
            elif reads[k]:
                origin[k] = origin[reads[k][0]]
            else:
                origin[k] = source.port if source.instance is None else None
    return {conn.target.port: origin[k] for k, conn in enumerate(connectors)
            if conn.target.instance is None and origin[k] is not None}


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
            diags.append(Diagnostic.at(
                "R0", _where(rc, ref), f"unknown subcomponent '{ref.instance}'"))
            return None
        owner = model.components[sub.target_qname]
        bindings = dict(zip(owner.ast.generic_params, sub.arg_types))
        unknown = f"subcomponent '{ref.instance}' has no port '{ref.port}'"
        port = f"port '{ref.instance}.{ref.port}'"
    direction, declared = owner.binding(ref.port) or (None, None)
    if direction not in ("in", "out"):
        diags.append(Diagnostic.at("R0", _where(rc, ref), unknown))
        return None
    if direction != expected:
        role = "source" if is_source else "target"
        diags.append(Diagnostic.at(
            "R0", _where(rc, ref), f"{port} is '{direction}' and cannot be a connector {role}"))
        return None
    return (substitute_type(declared, bindings),)
