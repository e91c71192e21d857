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
The rules of every profile run in one pass per model, whose findings the model
keeps, filed by the profile of their rule.  Input and output entries take one
path, whose direction the entry's class picks; T4 and T5 serve entries and
variable initialisers alike; and each term's names are walked once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .diagnostics import Diagnostic, severity_of, sort_diagnostics
from .printer import format_value
from .resolution import (
    BOOLEAN,
    INTEGER,
    ResolvedComponent,
    ResolvedModel,
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

# What an entry's class decides: the kind of port it cannot target, the word
# for its values, the T6 message, and the verb of T4 and T5 on a variable.
_DIRECTIONS = {
    Match: ("out", "input", "cannot receive from output port", "read {} from"),
    Assignment: ("in", "output", "cannot send to input port", "assign {} to"),
}


def rule_catalog() -> list[RuleInfo]:
    """All implemented rules in stable order."""
    return list(_CATALOG)


def check(model: ResolvedModel, profile: str = "generic") -> list[Diagnostic]:
    """A fresh list of the diagnostics of the profile's rules, sorted by
    location; the first call on a model runs every profile's rules at once."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    found = model._checked
    if found is None:
        found = model._checked = {"all": [], "ts": [], "ed": []}
        for rc in model.components.values():
            _Checker(rc, found).run()
    return sort_diagnostics(found["all"] + found.get(profile, []))


def _repeats(decls):
    """Each declaration whose name an earlier one already has."""
    seen: set[str] = set()
    for decl in decls:
        if decl.name in seen:
            yield decl
        seen.add(decl.name)


class _Checker:
    def __init__(self, rc: ResolvedComponent, found: dict[str, list[Diagnostic]]):
        self.rc = rc
        self.found = found
        self.locator = rc.unit.locator

    def emit(self, code: str, at: int, message: str) -> None:
        """Report ``message`` at offset ``at`` of the component's file, filed
        under the profile of its rule."""
        self.found[_PROFILE_OF[code]].append(Diagnostic.at(code, self.locator.loc(at), message))

    def run(self) -> None:
        self.check_uniqueness()
        self.check_conventions()
        self.check_variable_declarations()
        for automaton in self.rc.ast.automata:
            self.check_automaton(automaton)
        for automaton in self.rc.ast.automata[1:]:
            for code in ("S1TS", "S1ED"):
                self.emit(code, automaton.at, "multiple automata are not allowed in this profile")

    # -- U family -----------------------------------------------------------

    def check_uniqueness(self) -> None:
        for automaton in _repeats(a for a in self.rc.ast.automata if a.name is not None):
            self.emit("U1", automaton.at,
                      f"automaton '{automaton.name}' is defined more than once")
        for automaton in self.rc.ast.automata:
            for state in _repeats(automaton.states):
                self.emit("U2", state.at, f"state '{state.name}' is declared more than once")
        decls = sorted([*self.rc.ast.ports, *self.rc.ast.variables],
                       key=lambda d: d.at)
        for decl in _repeats(decls):
            self.emit("U3", decl.at,
                      f"the name '{decl.name}' is already used by a port or variable")

    # -- C family -----------------------------------------------------------

    def check_conventions(self) -> None:
        for automaton in self.rc.ast.automata:
            if not automaton.initials:
                self.emit("C1", automaton.at, "automaton has no initial state")
        for port in self.rc.ast.ports:
            if port.name[:1].isupper():
                self.emit("C2", port.at, f"port name '{port.name}' should start lowercase")
        for var in self.rc.ast.variables:
            if var.name[:1].isupper():
                self.emit("C2", var.at, f"variable name '{var.name}' should start lowercase")
        for automaton in self.rc.ast.automata:
            if automaton.name and automaton.name[:1].islower():
                self.emit("C3", automaton.at,
                          f"automaton name '{automaton.name}' should start uppercase")
            for state in automaton.states:
                if state.name[:1].islower():
                    self.emit("C4", state.at, f"state name '{state.name}' should start uppercase")

    # -- variable declarations (R3, T2, T4, T5) ------------------------------

    def check_variable_declarations(self) -> None:
        assign = _DIRECTIONS[Assignment][3]  # an initialiser is given as an output is
        for var in self.rc.ast.variables:
            term = var.initial
            if term is None or self._variable_value(term, var.name, assign):
                continue
            if self._report_names([term])[0]:
                continue
            if isinstance(term, ERef) and self.rc.kind(term.name) in ("in", "out"):
                self.emit("R3", term.at,
                          f"variable declaration of '{var.name}' references port '{term.name}'")
                continue
            kind, declared = self.rc.binding(var.name)
            if kind != "var" or declared is None:
                continue  # the name denotes a port (U3), or its type did not resolve
            if type_of(term, self.rc) != declared:
                self.emit("T2", term.at,
                          f"initial value of variable '{var.name}' is no {declared}")

    # -- automaton-level rules -----------------------------------------------

    def check_automaton(self, automaton: Automaton) -> None:
        declared = {s.name for s in automaton.states}
        for init in automaton.initials:
            if init.state not in declared:
                self.emit("R1", init.at, f"state '{init.state}' is undefined")
            for assign in init.output or []:
                self.check_entry(assign, initial_output=True)
        for trans in automaton.transitions:
            self.check_transition(trans, declared)

    def check_transition(self, trans: Transition, declared: set[str]) -> None:
        if trans.source not in declared:
            self.emit("R1", trans.at, f"state '{trans.source}' is undefined")
        if trans.target_at is not None and trans.target not in declared:
            self.emit("R1", trans.target_at, f"state '{trans.target}' is undefined")
        if trans.guard is not None:
            self.check_guard(trans.guard)
        for entry in (*(trans.input or ()), *(trans.output or ())):
            self.check_entry(entry)
        _, ports = self.rc.ports_read(trans)
        if len(ports) > 1:
            names = ", ".join(sorted(ports))
            message = f"transition reads more than one port ({names})"
            self.emit("S2ED", trans.at, sys.intern(message))  # equal messages are one string

    # -- input and output entries ---------------------------------------------

    def check_entry(self, entry: Match | Assignment, initial_output: bool = False) -> None:
        """The rules of one input (Match) or output (Assignment) entry: its
        names, its target, then each alternative."""
        unresolved, bound = self._report_names(entry.alternatives)
        if initial_output:
            for ref, binding in bound:
                if binding[0] in ("in", "out"):
                    self.emit("S2TS", ref.at,
                              f"port '{ref.name}' must not be used in an initial output")
        wrong, side, t6, verb = _DIRECTIONS[type(entry)]
        inferred = self.rc.target(entry)
        target = inferred.name
        if target is None:
            if entry.target is not None:
                self.emit("R2", entry.target_at, f"name '{entry.target}' is undefined")
            elif not unresolved:  # else the name walk has reported why
                if inferred.status == "ambiguous":
                    names = ", ".join(inferred.candidates)
                    self.emit("T1", entry.at,
                              f"{side} value matches more than one port or variable ({names}); "
                              "name the intended target")
                else:
                    self.emit("T1", entry.at,
                              f"no port or variable of a matching type admits this {side} value")
            return
        kind, declared = self.rc.binding(target)
        if kind == wrong:
            at = entry.at if entry.target_at is None else entry.target_at
            self.emit("T6", at, f"{t6} '{target}'")
            return
        receiving = isinstance(entry, Match)
        named = {id(ref): binding for ref, binding in bound}
        for alt in entry.alternatives:
            if kind == "var":
                if not self._variable_value(alt, target, verb):
                    self._check_single_value(alt, declared, named.get(id(alt)))
            elif isinstance(alt, NoData):
                if receiving:
                    self.emit("S3ED", alt.at, "a transition cannot be triggered by absence (--)")
            elif not isinstance(alt, SequenceValue):
                self._check_single_value(alt, declared, named.get(id(alt)))
            elif receiving:
                self.emit("T1", alt.at,
                          f"input on port '{target}' must be a single message, not a sequence")
            else:
                self.emit("S3TS", alt.at,
                          f"sending a sequence on port '{target}' exceeds one message per cycle")
                for element in alt.elements:
                    self._check_single_value(element, declared, named.get(id(element)))

    def _variable_value(self, term, name: str, verb: str) -> bool:
        """T4 for --, T5 for a sequence, read from or given to the variable
        ``name``; whether either was reported."""
        if isinstance(term, NoData):
            self.emit("T4", term.at, f"cannot {verb.format('--')} variable '{name}'")
        elif isinstance(term, SequenceValue):
            self.emit("T5", term.at, f"cannot {verb.format('a sequence')} variable '{name}'")
        else:
            return False
        return True

    # -- shared value checking --------------------------------------------------

    def _check_single_value(self, term, declared, binding) -> None:
        """T7, T3 or T1 for one value of a port or variable of type
        ``declared``; ``binding`` is what the name walk found a name to
        denote, None where it reported the name."""
        if isinstance(term, ERef):
            if binding is None:
                return
            if binding[0] == "out":
                self.emit("T7", term.at,
                          f"output port '{term.name}' cannot be used as a value")
                return
            if binding[0] in ("in", "var"):
                if declared is None:
                    return
                ref_type = binding[1]
                if ref_type is not None and ref_type != declared:
                    what = "port" if binding[0] == "in" else "variable"
                    self.emit("T3", term.at,
                              f"{what} '{term.name}' is no {declared}")
                return
        if declared is None:
            return
        if type_of(term, self.rc) != declared:
            self.emit("T1", term.at, f"'{format_value(term)}' is no {declared}")

    def _report_names(self, terms) -> tuple[bool, list]:
        """R2/R0 for unresolved or ambiguous names in value terms or guard
        expressions.  Whether any was found, and (reference, binding) for
        every other name, left to right."""
        unresolved, bound = False, []
        for term in terms:
            for ref in expr_refs(term):
                binding = self.rc.binding(ref.name)
                if binding is None:
                    self.emit("R2", ref.at, f"name '{ref.name}' is undefined")
                    unresolved = True
                elif binding[0] == "ambiguous-enum":
                    enums = ", ".join(sorted(e.qname for e in binding[1]))
                    self.emit("R0", ref.at, f"enum literal '{ref.name}' is ambiguous ({enums})")
                    unresolved = True
                else:
                    bound.append((ref, binding))
        return unresolved, bound

    # -- guards -------------------------------------------------------------

    def check_guard(self, guard) -> None:
        unresolved, bound = self._report_names([guard.expr])
        clean = not unresolved
        for ref, binding in bound:
            if binding[0] == "out":
                self.emit("T6", ref.at, f"cannot read output port '{ref.name}' in a guard")
                clean = False
        if clean:
            t = self._expr_type(guard.expr)
            if t is not None and t != BOOLEAN:
                self.emit("T1", guard.at, "guard expression must be Boolean")

    def _expr_type(self, expr: Expr):
        """Expression type, or None when a subterm already failed (reported).
        ``==`` and ``!=`` compare operands of one type; ``!``, ``&&`` and
        ``||`` take Boolean operands, every other operator Integer ones."""
        if isinstance(expr, (ELit, ERef)):
            return type_of(expr, self.rc)
        operands = (expr.operand,) if isinstance(expr, EUnary) else (expr.left, expr.right)
        types = [self._expr_type(operand) for operand in operands]
        if None in types:
            return None
        if isinstance(expr, EBinary) and expr.op in ("==", "!="):
            if types[0] != types[1]:
                self.emit("T1", expr.at, f"cannot compare {types[0]} with {types[1]}")
                return None
            return BOOLEAN
        wanted = BOOLEAN if expr.op in ("!", "&&", "||") else INTEGER
        if any(t != wanted for t in types):
            noun = "operand" if len(types) == 1 else "operands"
            self.emit("T1", expr.at, f"{noun} of '{expr.op}' must be {wanted}")
            return None
        return BOOLEAN if expr.op in ("<", "<=", ">", ">=") else wanted
