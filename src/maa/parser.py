"""Recursive-descent parser for ``.maa`` model files and ``.types`` files.

The automaton body accepts ``state``, ``initial``, and transition statements in
any order and multiplicity.  A transition whose target is omitted loops on its
source state; the AST always stores an explicit target.  A leading ``[`` after
the source/target of a transition is read as a guard, never as an unnamed
sequence match (sequences in inputs are only reachable through named matches,
and are rejected later by the well-formedness rules anyway).
"""

from __future__ import annotations

from typing import Optional, Union

from .diagnostics import Diagnostic, SourceLoc
from .lexer import LexError, Token, tokenize
from .syntax import (
    Assignment,
    Automaton,
    BoolLit,
    CompilationUnit,
    ComponentType,
    ConnectorDecl,
    EBinary,
    ELit,
    ERef,
    EUnary,
    EnumDecl,
    Expr,
    Guard,
    ImportDecl,
    InitialDecl,
    IntLit,
    Match,
    NameValue,
    NoData,
    PortDecl,
    PortRef,
    SequenceValue,
    StateDecl,
    StringLit,
    SubcomponentDecl,
    Transition,
    TypeDeclUnit,
    ValueTerm,
    VariableDecl,
)

GUARD_KINDS = ("ocl", "java")

# Parentheses and unary operators nested deeper than this in one expression
# are a syntax error, so that no input exhausts the recursion of the parser
# or of the tree walks after it.
MAX_NESTING = 64


class ParseError(Exception):
    def __init__(self, loc: SourceLoc, message: str):
        super().__init__(f"{loc}: {message}")
        self.loc = loc
        self.message = message


def parse_component_file(text: str, origin: str) -> Union[CompilationUnit, list[Diagnostic]]:
    """Parse one model file; returns the unit or a list of SYN diagnostics."""
    try:
        tokens = tokenize(text, origin)
        return _Parser(tokens, origin).compilation_unit()
    except (LexError, ParseError) as exc:
        return [Diagnostic.at("SYN", exc.loc, exc.message)]


def parse_types_file(text: str, origin: str) -> Union[TypeDeclUnit, list[Diagnostic]]:
    """Parse one type-declaration file; returns the unit or SYN diagnostics."""
    try:
        tokens = tokenize(text, origin)
        return _Parser(tokens, origin).type_decl_unit()
    except (LexError, ParseError) as exc:
        return [Diagnostic.at("SYN", exc.loc, exc.message)]


class _Parser:
    def __init__(self, tokens: list[Token], origin: str):
        self._toks = tokens
        self._pos = 0
        self._origin = origin
        self._nesting = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._toks[min(self._pos + offset, len(self._toks) - 1)]

    def _at(self, text: str) -> bool:
        tok = self._peek()
        return tok.kind in ("SYMBOL", "KEYWORD") and tok.text == text

    def _at_kind(self, kind: str) -> bool:
        return self._peek().kind == kind

    def _next(self) -> Token:
        tok = self._toks[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        if not self._at(text):
            tok = self._peek()
            got = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError(tok.loc, f"expected '{text}', found {got!r}")
        return self._next()

    def _expect_name(self, what: str = "name") -> Token:
        if not self._at_kind("NAME"):
            tok = self._peek()
            got = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError(tok.loc, f"expected {what}, found {got!r}")
        return self._next()

    def _qname(self) -> str:
        parts = [self._expect_name("qualified name").text]
        while self._at(".") and self._peek(1).kind == "NAME":
            self._next()
            parts.append(self._expect_name().text)
        return ".".join(parts)

    # -- compilation units --------------------------------------------------

    def compilation_unit(self) -> CompilationUnit:
        package = ""
        if self._at("package"):
            self._next()
            package = self._qname()
            self._expect(";")
        imports = []
        while self._at("import"):
            loc = self._next().loc
            name = self._qname()
            if self._at("."):
                self._next()
                self._expect("*")
                name += ".*"
            self._expect(";")
            imports.append(ImportDecl(name, loc))
        component = self._component_def()
        if not self._at_kind("EOF"):
            tok = self._peek()
            if tok.text == "component" or (tok.kind == "SYMBOL" and tok.text == "<<"):
                raise ParseError(tok.loc, "only one top-level component per model file")
            raise ParseError(tok.loc, f"unexpected {tok.text!r} after component definition")
        return CompilationUnit(package, imports, component, origin=self._origin)

    def type_decl_unit(self) -> TypeDeclUnit:
        self._expect("package")
        package = self._qname()
        self._expect(";")
        enums: list[EnumDecl] = []
        seen: set[str] = set()
        while self._at("enum"):
            loc = self._next().loc
            name = self._expect_name("enum name").text
            if name in seen:
                raise ParseError(loc, f"enum '{name}' declared twice")
            seen.add(name)
            self._expect("{")
            literals: list[str] = []
            if not self._at("}"):
                while True:
                    lit = self._expect_name("enum literal")
                    if lit.text in literals:
                        raise ParseError(lit.loc, f"duplicate literal '{lit.text}' in enum '{name}'")
                    literals.append(lit.text)
                    if self._at(","):
                        self._next()
                        continue
                    break
            self._expect("}")
            enums.append(EnumDecl(name, literals, loc))
        if not self._at_kind("EOF"):
            tok = self._peek()
            raise ParseError(tok.loc, f"unexpected {tok.text!r} in type declarations")
        return TypeDeclUnit(package, enums, origin=self._origin)

    # -- components ---------------------------------------------------------

    def _component_def(self) -> ComponentType:
        loc = self._expect("component").loc
        name = self._expect_name("component name").text
        params: list[str] = []
        if self._at("<"):
            self._next()
            params.append(self._expect_name("type parameter").text)
            while self._at(","):
                self._next()
                params.append(self._expect_name("type parameter").text)
            self._expect(">")
        self._expect("{")
        ports: list[PortDecl] = []
        variables: list[VariableDecl] = []
        subcomponents: list[SubcomponentDecl] = []
        connectors: list[ConnectorDecl] = []
        automata: list[Automaton] = []
        while not self._at("}"):
            if self._at_kind("EOF"):
                raise ParseError(self._peek().loc, "unexpected end of input, missing '}'")
            if self._at("port"):
                ports.extend(self._port_section())
            elif self._at("connect"):
                connectors.append(self._connector())
            elif self._at("component"):
                subcomponents.append(self._subcomponent())
            elif self._at("automaton") or (self._at("<<") and self._stereo_precedes_automaton()):
                automata.append(self._automaton())
            elif self._at("var") or self._at_kind("NAME"):
                variables.extend(self._variable_decl())
            else:
                tok = self._peek()
                raise ParseError(tok.loc, f"unexpected {tok.text!r} in component body")
        self._expect("}")
        return ComponentType(name, params, ports, variables, subcomponents,
                             connectors, automata, loc)

    def _stereo_precedes_automaton(self) -> bool:
        # <<name>> may prefix an automaton declaration
        return (self._peek(1).kind == "NAME" and self._peek(2).text == ">>"
                and self._peek(3).text == "automaton")

    def _port_section(self) -> list[PortDecl]:
        self._expect("port")
        ports = []
        while True:
            if self._at("in") or self._at("out"):
                direction = self._next().text
            else:
                tok = self._peek()
                raise ParseError(tok.loc, f"expected 'in' or 'out', found {tok.text!r}")
            type_name = self._qname()
            name = self._expect_name("port name")
            ports.append(PortDecl(direction, type_name, name.text, name.loc))
            if self._at(","):
                self._next()
                continue
            break
        self._expect(";")
        return ports

    def _variable_decl(self) -> list[VariableDecl]:
        if self._at("var"):
            self._next()
        type_name = self._qname()
        decls = []
        while True:
            name = self._expect_name("variable name")
            initial: Optional[ValueTerm] = None
            if self._at("="):
                self._next()
                initial = self._opt_value_or_seq()
            decls.append(VariableDecl(type_name, name.text, initial, name.loc))
            if self._at(","):
                self._next()
                continue
            break
        self._expect(";")
        return decls

    def _subcomponent(self) -> SubcomponentDecl:
        loc = self._expect("component").loc
        type_name = self._qname()
        args: list[str] = []
        if self._at("<"):
            self._next()
            args.append(self._qname())
            while self._at(","):
                self._next()
                args.append(self._qname())
            self._expect(">")
        if self._at("{"):
            raise ParseError(self._peek().loc,
                             "nested component definitions are not supported; "
                             "declare a subcomponent instance instead")
        instance = self._expect_name("instance name").text
        self._expect(";")
        return SubcomponentDecl(type_name, args, instance, loc)

    def _connector(self) -> ConnectorDecl:
        loc = self._expect("connect").loc
        source = self._port_ref()
        self._expect("->")
        target = self._port_ref()
        self._expect(";")
        return ConnectorDecl(source, target, loc)

    def _port_ref(self) -> PortRef:
        first = self._expect_name("port reference")
        if self._at(".") and self._peek(1).kind == "NAME":
            self._next()
            port = self._expect_name("port name")
            return PortRef(first.text, port.text, first.loc)
        return PortRef(None, first.text, first.loc)

    # -- automata -----------------------------------------------------------

    def _stereotypes(self) -> list[str]:
        stereos = []
        while self._at("<<"):
            self._next()
            stereos.append(self._expect_name("stereotype name").text)
            self._expect(">>")
        return stereos

    def _automaton(self) -> Automaton:
        stereos = self._stereotypes()
        loc = self._expect("automaton").loc
        name = None
        if self._at_kind("NAME"):
            name = self._next().text
        self._expect("{")
        states: list[StateDecl] = []
        initials: list[InitialDecl] = []
        transitions: list[Transition] = []
        while not self._at("}"):
            if self._at_kind("EOF"):
                raise ParseError(self._peek().loc, "unexpected end of input, missing '}'")
            if self._at("state"):
                states.extend(self._state_decl())
            elif self._at("initial"):
                initials.extend(self._initial_decl())
            elif self._at_kind("NAME"):
                transitions.append(self._transition())
            else:
                tok = self._peek()
                raise ParseError(tok.loc, f"unexpected {tok.text!r} in automaton body")
        self._expect("}")
        return Automaton(name, stereos, states, initials, transitions, loc)

    def _state_decl(self) -> list[StateDecl]:
        self._expect("state")
        states = []
        while True:
            stereos = self._stereotypes()
            name = self._expect_name("state name")
            states.append(StateDecl(name.text, stereos, name.loc))
            if self._at(","):
                self._next()
                continue
            break
        self._expect(";")
        return states

    def _initial_decl(self) -> list[InitialDecl]:
        loc = self._expect("initial").loc
        names = [self._expect_name("state name")]
        while self._at(","):
            self._next()
            names.append(self._expect_name("state name"))
        output = None
        if self._at("/"):
            self._next()
            output = self._output_block()
        self._expect(";")
        return [InitialDecl(tok.text, output, tok.loc) for tok in names]

    def _transition(self) -> Transition:
        source = self._expect_name("state name")
        target = source
        if self._at("->"):
            self._next()
            target = self._expect_name("state name")
        guard = None
        if self._at("["):
            guard = self._guard()
        input_block = None
        if self._at("{") or self._starts_value():
            input_block = self._input_block()
        output_block = None
        if self._at("/"):
            self._next()
            output_block = self._output_block()
        self._expect(";")
        return Transition(source.text, target.text, guard, input_block, output_block,
                          source.loc, source_loc=source.loc, target_loc=target.loc)

    def _starts_value(self) -> bool:
        tok = self._peek()
        if tok.kind in ("INT", "STRING", "NAME"):
            return True
        if tok.kind == "KEYWORD" and tok.text in ("true", "false"):
            return True
        return tok.kind == "SYMBOL" and tok.text in ("--", "-")

    def _guard(self) -> Guard:
        loc = self._expect("[").loc
        kind = None
        if self._at_kind("NAME") and self._peek(1).text == ":":
            tok = self._next()
            if tok.text not in GUARD_KINDS:
                raise ParseError(tok.loc, f"unsupported guard kind {tok.text!r}")
            kind = tok.text
            self._next()
        expr = self._expr()
        self._expect("]")
        return Guard(kind, expr, loc)

    def _input_block(self) -> list[Match]:
        if self._at("{"):
            self._next()
            matches = self._match_list()
            self._expect("}")
            return matches
        return self._match_list()

    def _match_list(self) -> list[Match]:
        matches = [self._match()]
        while self._at(","):
            self._next()
            matches.append(self._match())
        return matches

    def _match(self) -> Match:
        target = None
        target_loc = None
        loc = self._peek().loc
        if self._at_kind("NAME") and self._peek(1).text == "=":
            tok = self._next()
            target, target_loc = tok.text, tok.loc
            self._next()
        alts = [self._opt_value_or_seq()]
        while self._at("|"):
            self._next()
            alts.append(self._opt_value_or_seq())
        return Match(target, alts, loc, target_loc=target_loc)

    def _output_block(self) -> list[Assignment]:
        if self._at("{"):
            self._next()
            assigns = self._assignment_list()
            self._expect("}")
            return assigns
        return self._assignment_list()

    def _assignment_list(self) -> list[Assignment]:
        assigns = [self._assignment()]
        while self._at(","):
            self._next()
            assigns.append(self._assignment())
        return assigns

    def _assignment(self) -> Assignment:
        target = None
        target_loc = None
        loc = self._peek().loc
        if self._at_kind("NAME") and self._peek(1).text == "=":
            tok = self._next()
            target, target_loc = tok.text, tok.loc
            self._next()
        alts = [self._opt_value_or_seq()]
        while self._at("|"):
            self._next()
            alts.append(self._opt_value_or_seq())
        return Assignment(target, alts, loc, target_loc=target_loc)

    # -- values -------------------------------------------------------------

    def _opt_value_or_seq(self) -> ValueTerm:
        if self._at("--"):
            return NoData(self._next().loc)
        if self._at("["):
            return self._sequence()
        return self._value()

    def _sequence(self) -> SequenceValue:
        loc = self._expect("[").loc
        elements: list[ValueTerm] = []
        if not self._at("]"):
            elements.append(self._value())
            while self._at(","):
                self._next()
                elements.append(self._value())
        self._expect("]")
        return SequenceValue(elements, loc)

    def _value(self) -> ValueTerm:
        tok = self._peek()
        if tok.kind == "INT":
            self._next()
            return IntLit(tok.value, tok.loc)
        if tok.kind == "SYMBOL" and tok.text == "-" and self._peek(1).kind == "INT":
            self._next()
            num = self._next()
            return IntLit(-num.value, tok.loc)
        if tok.kind == "STRING":
            self._next()
            return StringLit(tok.value, tok.loc)
        if tok.kind == "KEYWORD" and tok.text in ("true", "false"):
            self._next()
            return BoolLit(tok.value, tok.loc)
        if tok.kind == "NAME":
            self._next()
            return NameValue(tok.text, tok.loc)
        got = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(tok.loc, f"expected a value, found {got!r}")

    # -- guard expressions ---------------------------------------------------
    # Precedence, loosest first: ||, &&, comparisons, + -, *, unary ! -.

    def _expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._at("||"):
            loc = self._next().loc
            left = EBinary("||", left, self._and_expr(), loc)
        return left

    def _and_expr(self) -> Expr:
        left = self._cmp_expr()
        while self._at("&&"):
            loc = self._next().loc
            left = EBinary("&&", left, self._cmp_expr(), loc)
        return left

    _CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

    def _cmp_expr(self) -> Expr:
        left = self._add_expr()
        while self._peek().kind == "SYMBOL" and self._peek().text in self._CMP_OPS:
            op = self._next()
            left = EBinary(op.text, left, self._add_expr(), op.loc)
        return left

    def _add_expr(self) -> Expr:
        left = self._mul_expr()
        while self._peek().kind == "SYMBOL" and self._peek().text in ("+", "-"):
            op = self._next()
            left = EBinary(op.text, left, self._mul_expr(), op.loc)
        return left

    def _mul_expr(self) -> Expr:
        left = self._unary_expr()
        while self._at("*"):
            loc = self._next().loc
            left = EBinary("*", left, self._unary_expr(), loc)
        return left

    def _nest(self, tok: Token) -> None:
        """Enter one level of nesting at ``tok``; the caller leaves it."""
        if self._nesting == MAX_NESTING:
            raise ParseError(tok.loc, f"expression nested more than {MAX_NESTING} levels deep")
        self._nesting += 1

    def _unary_expr(self) -> Expr:
        if self._at("!") or (self._at("-") and self._peek(1).kind != "INT"):
            tok = self._next()
            self._nest(tok)
            expr = EUnary(tok.text, self._unary_expr(), tok.loc)
            self._nesting -= 1
            return expr
        return self._primary_expr()

    def _primary_expr(self) -> Expr:
        tok = self._peek()
        if self._at("("):
            self._nest(self._next())
            expr = self._expr()
            self._expect(")")
            self._nesting -= 1
            return expr
        if tok.kind == "INT":
            self._next()
            return ELit(tok.value, tok.loc)
        if tok.kind == "SYMBOL" and tok.text == "-" and self._peek(1).kind == "INT":
            self._next()
            num = self._next()
            return ELit(-num.value, tok.loc)
        if tok.kind == "STRING":
            self._next()
            return ELit(tok.value, tok.loc)
        if tok.kind == "KEYWORD" and tok.text in ("true", "false"):
            self._next()
            return ELit(tok.value, tok.loc)
        if tok.kind == "NAME":
            self._next()
            return ERef(tok.text, tok.loc)
        got = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(tok.loc, f"expected an expression, found {got!r}")
