"""Well-formedness rules, evaluated against a resolved model under a profile.

Rule families:

* U1-U3   uniqueness of automata, state, and port/variable names
* C1-C4   naming and structure conventions (warnings)
* R0-R3   referential integrity (R0 is emitted by resolution)
* T1-T7   type correctness and direction of use
* S1TS-S3TS  restrictions of the time-synchronous profile
* S1ED-S3ED  restrictions of the event-driven profile

Every rule fires once per offending site.  Type rules skip terms that contain
unresolved names: those are already reported as R2 and would only cascade.
The rules of every profile run in one pass per model, whose result the model
keeps; a profile selects its rules from that list by the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, severity_of, sort_diagnostics
from .printer import format_value
from .resolution import (
    BOOLEAN,
    INTEGER,
    ResolvedComponent,
    ResolvedModel,
    SeqType,
    conforms,
    type_of,
)
from .syntax import (
    Assignment,
    Automaton,
    EBinary,
    ELit,
    ERef,
    EUnary,
    Expr,
    Match,
    NoData,
    SequenceValue,
    Transition,
    expr_refs,
)

PROFILES = ("generic", "ts", "ed")


@dataclass(frozen=True)
class RuleInfo:
    code: str
    profile: str  # "all", "ts", or "ed"
    description: str

    @property
    def severity(self) -> str:
        return severity_of(self.code)


_CATALOG = [
    RuleInfo("U1", "all", "Automata within a component have unique names"),
    RuleInfo("U2", "all", "State names are unique within an automaton"),
    RuleInfo("U3", "all", "Names of variables and ports are unique within a component"),
    RuleInfo("C1", "all", "An automaton has at least one initial state"),
    RuleInfo("C2", "all", "Names of variables and ports start with lowercase letters"),
    RuleInfo("C3", "all", "Names of automata start with uppercase letters"),
    RuleInfo("C4", "all", "Names of states start with uppercase letters"),
    RuleInfo("R0", "all", "Imports, types, and structure must resolve"),
    RuleInfo("R1", "all", "States referenced by a transition must be declared"),
    RuleInfo("R2", "all", "Ports and variables referenced on transitions must be declared"),
    RuleInfo("R3", "all", "Variable declarations may not reference ports"),
    RuleInfo("T1", "all", "Messages and values must conform to port and variable types"),
    RuleInfo("T2", "all", "Initial values of variables must conform to their types"),
    RuleInfo("T3", "all", "Referenced ports and variables must conform to the target type"),
    RuleInfo("T4", "all", "The absence value -- cannot be used with variables"),
    RuleInfo("T5", "all", "Sequences cannot be read from or assigned to variables"),
    RuleInfo("T6", "all", "The direction of ports has to be respected"),
    RuleInfo("T7", "all", "Output ports must not be used as part of messages"),
    RuleInfo("S1TS", "ts", "An atomic component contains at most one automaton"),
    RuleInfo("S2TS", "ts", "Ports must not be used in initial state outputs"),
    RuleInfo("S3TS", "ts", "At most one message per port is sent in a cycle"),
    RuleInfo("S1ED", "ed", "An atomic component contains at most one automaton"),
    RuleInfo("S2ED", "ed", "Transitions process one single message at a time"),
    RuleInfo("S3ED", "ed", "The -- symbol may not be used as input"),
]


_PROFILE_OF = {rule.code: rule.profile for rule in _CATALOG}


def rule_catalog() -> list[RuleInfo]:
    """All implemented rules in stable order."""
    return list(_CATALOG)


def check(model: ResolvedModel, profile: str = "generic") -> list[Diagnostic]:
    """A fresh list of the diagnostics of the profile's rules, sorted by
    location; the first call on a model runs every profile's rules at once."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if model._checked is None:
        diags: list[Diagnostic] = []
        for rc in model.components.values():
            _Checker(rc, diags).run()
        model._checked = sort_diagnostics(diags)
    return [d for d in model._checked if _PROFILE_OF[d.code] in ("all", profile)]


class _Checker:
    def __init__(self, rc: ResolvedComponent, diags: list[Diagnostic]):
        self.rc = rc
        self.diags = diags

    def emit(self, code: str, loc, message: str) -> None:
        self.diags.append(Diagnostic.at(code, loc, message))

    def run(self) -> None:
        self.check_uniqueness()
        self.check_conventions()
        self.check_variable_declarations()
        for automaton in self.rc.ast.automata:
            self.check_automaton(automaton)
        for automaton in self.rc.ast.automata[1:]:
            for code in ("S1TS", "S1ED"):
                self.emit(code, automaton.loc, "multiple automata are not allowed in this profile")

    # -- U family -----------------------------------------------------------

    def check_uniqueness(self) -> None:
        seen_automata: set[str] = set()
        for automaton in self.rc.ast.automata:
            if automaton.name is None:
                continue
            if automaton.name in seen_automata:
                self.emit("U1", automaton.loc,
                          f"automaton '{automaton.name}' is defined more than once")
            seen_automata.add(automaton.name)

        for automaton in self.rc.ast.automata:
            seen_states: set[str] = set()
            for state in automaton.states:
                if state.name in seen_states:
                    self.emit("U2", state.loc, f"state '{state.name}' is declared more than once")
                seen_states.add(state.name)

        decls = [(p.name, p.loc) for p in self.rc.ast.ports]
        decls += [(v.name, v.loc) for v in self.rc.ast.variables]
        decls.sort(key=lambda d: (d[1].line, d[1].column))
        seen: set[str] = set()
        for name, loc in decls:
            if name in seen:
                self.emit("U3", loc, f"the name '{name}' is already used by a port or variable")
            seen.add(name)

    # -- C family -----------------------------------------------------------

    def check_conventions(self) -> None:
        for automaton in self.rc.ast.automata:
            if not automaton.initials:
                self.emit("C1", automaton.loc, "automaton has no initial state")
        for port in self.rc.ast.ports:
            if port.name[:1].isupper():
                self.emit("C2", port.loc, f"port name '{port.name}' should start lowercase")
        for var in self.rc.ast.variables:
            if var.name[:1].isupper():
                self.emit("C2", var.loc, f"variable name '{var.name}' should start lowercase")
        for automaton in self.rc.ast.automata:
            if automaton.name and automaton.name[:1].islower():
                self.emit("C3", automaton.loc,
                          f"automaton name '{automaton.name}' should start uppercase")
            for state in automaton.states:
                if state.name[:1].islower():
                    self.emit("C4", state.loc, f"state name '{state.name}' should start uppercase")

    # -- variable declarations (R3, T2, T4, T5) ------------------------------

    def check_variable_declarations(self) -> None:
        for var in self.rc.ast.variables:
            if var.initial is None:
                continue
            kind, declared = self.rc.binding(var.name)
            term = var.initial
            if isinstance(term, NoData):
                self.emit("T4", term.loc,
                          f"cannot assign -- to variable '{var.name}'")
                continue
            if isinstance(term, SequenceValue):
                self.emit("T5", term.loc,
                          f"cannot assign a sequence to variable '{var.name}'")
                continue
            if self._report_names([term]):
                continue
            if isinstance(term, ERef) and self.rc.binding(term.name)[0] in ("in", "out"):
                self.emit("R3", term.loc,
                          f"variable declaration of '{var.name}' references port '{term.name}'")
                continue
            if kind != "var" or declared is None:
                continue  # the name denotes a port (U3), or its type did not resolve
            t = type_of(term, self.rc)
            if t is None or not conforms(t, declared):
                self.emit("T2", term.loc,
                          f"initial value of variable '{var.name}' is no {declared}")

    # -- automaton-level rules -----------------------------------------------

    def check_automaton(self, automaton: Automaton) -> None:
        declared = {s.name for s in automaton.states}
        for init in automaton.initials:
            if init.state not in declared:
                self.emit("R1", init.loc, f"state '{init.state}' is undefined")
            for assign in init.output or []:
                self.check_assignment(assign, initial_output=True)
        for trans in automaton.transitions:
            self.check_transition(trans, declared)

    def check_transition(self, trans: Transition, declared: set[str]) -> None:
        if trans.source not in declared:
            self.emit("R1", trans.source_loc, f"state '{trans.source}' is undefined")
        if trans.target_loc is not trans.source_loc and trans.target not in declared:
            self.emit("R1", trans.target_loc, f"state '{trans.target}' is undefined")
        if trans.guard is not None:
            self.check_guard(trans.guard)
        for match in trans.input or []:
            self.check_match(match)
        for assign in trans.output or []:
            self.check_assignment(assign)
        _, ports = self.rc.ports_read(trans)
        if len(ports) > 1:
            names = ", ".join(sorted(ports))
            self.emit("S2ED", trans.loc, f"transition reads more than one port ({names})")

    # -- input blocks ---------------------------------------------------------

    def check_match(self, match: Match) -> None:
        unresolved = self._report_names(match.alternatives)
        target = self._target(match, unresolved)
        if target is None:
            return
        kind, declared = self.rc.binding(target)
        if kind == "out":
            self.emit("T6", match.target_loc or match.loc,
                      f"cannot receive from output port '{target}'")
            return
        for alt in match.alternatives:
            if isinstance(alt, NoData):
                if kind == "var":
                    self.emit("T4", alt.loc, f"cannot read -- from variable '{target}'")
                else:
                    self.emit("S3ED", alt.loc, "a transition cannot be triggered by absence (--)")
                continue
            if isinstance(alt, SequenceValue):
                if kind == "var":
                    self.emit("T5", alt.loc, f"cannot read a sequence from variable '{target}'")
                else:
                    self.emit("T1", alt.loc,
                              f"input on port '{target}' must be a single message, not a sequence")
                continue
            self._check_single_value(alt, kind, declared, target, input_side=True)

    # -- output blocks ---------------------------------------------------------

    def check_assignment(self, assign: Assignment, initial_output: bool = False) -> None:
        unresolved = self._report_names(assign.alternatives)
        if initial_output:
            for alt in assign.alternatives:
                for ref in expr_refs(alt):
                    if self.rc.kind(ref.name) in ("in", "out"):
                        self.emit("S2TS", ref.loc,
                                  f"port '{ref.name}' must not be used in an initial output")
        target = self._target(assign, unresolved)
        if target is None:
            return
        kind, declared = self.rc.binding(target)
        if kind == "in":
            self.emit("T6", assign.target_loc or assign.loc,
                      f"cannot send to input port '{target}'")
            return
        for alt in assign.alternatives:
            if isinstance(alt, NoData):
                if kind == "var":
                    self.emit("T4", alt.loc, f"cannot assign -- to variable '{target}'")
                continue
            if isinstance(alt, SequenceValue):
                if kind == "var":
                    self.emit("T5", alt.loc, f"cannot assign a sequence to variable '{target}'")
                    continue
                self.emit("S3TS", alt.loc,
                          f"sending a sequence on port '{target}' exceeds one message per cycle")
                for element in alt.elements:
                    self._check_single_value(element, kind, declared, target, input_side=False)
                continue
            self._check_single_value(alt, kind, declared, target, input_side=False)

    # -- shared value checking --------------------------------------------------

    def _check_single_value(self, term, kind: str, declared, target: str,
                            input_side: bool) -> None:
        if isinstance(term, ERef):
            binding = self.rc.binding(term.name)
            if binding is None or binding[0] == "ambiguous-enum":
                return  # reported by the name walk
            if binding[0] == "out":
                self.emit("T7", term.loc,
                          f"output port '{term.name}' cannot be used as a value")
                return
            if binding[0] in ("in", "var"):
                if declared is None:
                    return
                ref_type = binding[1]
                if ref_type is not None and not conforms(ref_type, declared):
                    what = "port" if binding[0] == "in" else "variable"
                    self.emit("T3", term.loc,
                              f"{what} '{term.name}' is no {declared}")
                return
        if declared is None:
            return
        t = type_of(term, self.rc)
        if t is None or isinstance(t, SeqType) or not conforms(t, declared):
            self.emit("T1", term.loc, f"'{format_value(term)}' is no {declared}")

    def _report_names(self, terms) -> bool:
        """R2/R0 for unresolved or ambiguous names in value terms or guard
        expressions; True if any was found."""
        found = False
        for term in terms:
            for ref in expr_refs(term):
                binding = self.rc.binding(ref.name)
                if binding is None:
                    self.emit("R2", ref.loc, f"name '{ref.name}' is undefined")
                    found = True
                elif binding[0] == "ambiguous-enum":
                    self._ambiguous_enum(ref, binding)
                    found = True
        return found

    def _ambiguous_enum(self, ref, binding) -> None:
        enums = ", ".join(sorted(e.qname for e in binding[1]))
        self.emit("R0", ref.loc, f"enum literal '{ref.name}' is ambiguous ({enums})")

    def _target(self, entry, unresolved: bool):
        """The entry's target; None after reporting why it has none.

        An unnamed entry whose values hold unresolved names has already been
        reported by the name walk.
        """
        result = self.rc.target(entry)
        side = "input" if isinstance(entry, Match) else "output"
        if result.name is None and entry.target is not None:
            self.emit("R2", entry.target_loc, f"name '{entry.target}' is undefined")
        elif result.name is None and not unresolved:
            if result.status == "ambiguous":
                names = ", ".join(result.candidates)
                self.emit("T1", entry.loc,
                          f"{side} value matches more than one port or variable ({names}); "
                          "name the intended target")
            else:
                self.emit("T1", entry.loc,
                          f"no port or variable of a matching type admits this {side} value")
        return result.name

    # -- guards -------------------------------------------------------------

    def check_guard(self, guard) -> None:
        clean = not self._report_names([guard.expr])
        for ref in expr_refs(guard.expr):
            binding = self.rc.binding(ref.name)
            if binding is not None and binding[0] == "out":
                self.emit("T6", ref.loc,
                          f"cannot read output port '{ref.name}' in a guard")
                clean = False
        if clean:
            t = self._expr_type(guard.expr)
            if t is not None and t != BOOLEAN:
                self.emit("T1", guard.loc, "guard expression must be Boolean")

    def _expr_type(self, expr: Expr):
        """Expression type, or None when a subterm already failed (reported)."""
        if isinstance(expr, (ELit, ERef)):
            return type_of(expr, self.rc)
        if isinstance(expr, EUnary):
            t = self._expr_type(expr.operand)
            if t is None:
                return None
            wanted = BOOLEAN if expr.op == "!" else INTEGER
            if t != wanted:
                self.emit("T1", expr.loc, f"operand of '{expr.op}' must be {wanted}")
                return None
            return wanted
        if isinstance(expr, EBinary):
            lt = self._expr_type(expr.left)
            rt = self._expr_type(expr.right)
            if lt is None or rt is None:
                return None
            if expr.op in ("&&", "||"):
                if lt != BOOLEAN or rt != BOOLEAN:
                    self.emit("T1", expr.loc, f"operands of '{expr.op}' must be Boolean")
                    return None
                return BOOLEAN
            if expr.op in ("==", "!="):
                if lt != rt:
                    self.emit("T1", expr.loc, f"cannot compare {lt} with {rt}")
                    return None
                return BOOLEAN
            if expr.op in ("<", "<=", ">", ">="):
                if lt != INTEGER or rt != INTEGER:
                    self.emit("T1", expr.loc, f"operands of '{expr.op}' must be Integer")
                    return None
                return BOOLEAN
            if lt != INTEGER or rt != INTEGER:
                self.emit("T1", expr.loc, f"operands of '{expr.op}' must be Integer")
                return None
            return INTEGER
        raise TypeError(f"not an expression: {expr!r}")
