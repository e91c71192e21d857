"""Recursive-descent parser for ``.maa`` model files and ``.types`` files.

The automaton body accepts ``state``, ``initial``, and transition statements in
any order and multiplicity.  A transition whose target is omitted loops on its
source state; the AST always stores an explicit target.  A leading ``[`` after
the source/target of a transition is read as a guard, never as an unnamed
sequence match (sequences in inputs are only reachable through named matches,
and are rejected later by the well-formedness rules anyway).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, TypeVar, Union

from .diagnostics import Diagnostic, SourceLoc
# Called through this module's attribute once per batch of tokens, so that
# wrapping ``parser.tokenize`` (as the benchmark does) times and counts every
# batch the parser reads.
from .lexer import LexError, Token, tokenize
from .syntax import (
    PRECEDENCE,
    Assignment,
    Automaton,
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
    Match,
    NoData,
    PortDecl,
    PortRef,
    SequenceValue,
    StateDecl,
    SubcomponentDecl,
    Transition,
    TypeDeclUnit,
    ValueTerm,
    VariableDecl,
)

GUARD_KINDS = ("ocl", "java")

# Parentheses and unary operators nested deeper than this in one expression
# are a syntax error, and so are more binary operators than this on one
# root-to-leaf path of its tree, so that no input exhausts the recursion of
# the parser or of the tree walks after it.
MAX_NESTING = 64
_TOO_DEEP = f"expression nested more than {MAX_NESTING} levels deep"

# A file is lexed this many tokens at a time, as the parser reaches them, so
# that its whole token list is never held.
BATCH = 256

T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, loc: SourceLoc, message: str):
        super().__init__(f"{loc}: {message}")
        self.loc = loc
        self.message = message


def parse_component_file(text: str, origin: str) -> Union[CompilationUnit, list[Diagnostic]]:
    """Parse one model file; returns the unit or a list of SYN diagnostics."""
    return _parse_file(text, origin, _Parser.compilation_unit)


def parse_types_file(text: str, origin: str) -> Union[TypeDeclUnit, list[Diagnostic]]:
    """Parse one type-declaration file; returns the unit or SYN diagnostics."""
    return _parse_file(text, origin, _Parser.type_decl_unit)


def _parse_file(text: str, origin: str,
                unit: Callable[["_Parser"], T]) -> Union[T, list[Diagnostic]]:
    """``unit`` read from the file in batches of tokens, or the file's one SYN
    diagnostic: its first lexical error if it has one, else the syntax error."""
    try:
        parser = _Parser(text, origin, BATCH)
        try:
            return unit(parser)
        except ParseError:
            parser.lex_rest()
            raise
    except (LexError, ParseError) as exc:
        return [Diagnostic.at("SYN", exc.loc, exc.message)]


def parse_value(text: str) -> Union[ELit, ERef, NoData]:
    """``--`` or one value as a block entry reads it, and nothing after it (a
    stimulus cell or an event's value); raises LexError or ParseError."""
    parser = _Parser(text, "", None)
    term = NoData(parser._next().loc) if parser._at("--") else parser._value()
    if not parser._at_kind("EOF"):
        raise parser._expected("end of value")
    return term


class _Parser:
    """Reads ``text`` through a window of tokens, lexed ``batch`` at a time
    (all at once for None) as the lookahead reaches past it."""

    def __init__(self, text: str, origin: str, batch: Optional[int]):
        self._text, self._origin, self._batch = text, origin, batch
        # The lexed tokens not yet consumed, the next one first; never empty,
        # since the EOF token is never consumed.
        self._window = deque(tokenize(text, origin, None, batch))
        self._nesting = 0

    def lex_rest(self) -> None:
        """Lex the text after the window, raising its first LexError."""
        last = self._window[-1]
        while last.kind != "EOF":
            last = self._lex_after(last)[-1]

    def _lex_after(self, tok: Token) -> list[Token]:
        """The batch of tokens just after ``tok``."""
        return tokenize(self._text, self._origin, tok, self._batch)

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        window = self._window
        while len(window) <= offset and window[-1].kind != "EOF":
            window.extend(self._lex_after(window[-1]))
        return window[min(offset, len(window) - 1)]

    def _at(self, text: str) -> bool:
        tok = self._window[0]
        return tok.text == text and tok.kind in ("SYMBOL", "KEYWORD")

    def _at_kind(self, kind: str) -> bool:
        return self._window[0].kind == kind

    def _next(self) -> Token:
        window = self._window
        tok = window[0]
        if tok.kind != "EOF":
            window.popleft()
            if not window:
                window.extend(self._lex_after(tok))
        return tok

    def _accept(self, text: str) -> bool:
        """Consume the next token if it is the symbol or keyword ``text``."""
        if self._at(text):
            self._next()
            return True
        return False

    def _expected(self, what: str) -> ParseError:
        tok = self._peek()
        found = tok.text if tok.kind != "EOF" else "end of input"
        return ParseError(tok.loc, f"expected {what}, found {found!r}")

    def _expect(self, text: str) -> Token:
        if not self._at(text):
            raise self._expected(f"'{text}'")
        return self._next()

    def _expect_name(self, what: str = "name") -> Token:
        if not self._at_kind("NAME"):
            raise self._expected(what)
        return self._next()

    def _list(self, item: Callable[[], T], sep: str = ",") -> list[T]:
        """One or more ``item``s separated by ``sep``."""
        items = [item()]
        while self._accept(sep):
            items.append(item())
        return items

    def _qname(self) -> str:
        parts = [self._expect_name("qualified name").text]
        while self._at(".") and self._peek(1).kind == "NAME":
            self._next()
            parts.append(self._expect_name().text)
        return ".".join(parts)

    # -- compilation units --------------------------------------------------

    def compilation_unit(self) -> CompilationUnit:
        package = ""
        if self._accept("package"):
            package = self._qname()
            self._expect(";")
        imports = []
        while self._at("import"):
            loc = self._next().loc
            name = self._qname()
            if self._accept("."):
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
        return CompilationUnit(package, imports, component)

    def type_decl_unit(self) -> TypeDeclUnit:
        self._expect("package")
        package = self._qname()
        self._expect(";")
        enums: list[EnumDecl] = []
        while self._at("enum"):
            loc = self._next().loc
            name = self._expect_name("enum name").text
            if any(enum.name == name for enum in enums):
                raise ParseError(loc, f"enum '{name}' declared twice")
            self._expect("{")
            literals: list[str] = []

            def literal() -> None:
                lit = self._expect_name("enum literal")
                if lit.text in literals:
                    raise ParseError(lit.loc, f"duplicate literal '{lit.text}' in enum '{name}'")
                literals.append(lit.text)

            if not self._at("}"):
                self._list(literal)
            self._expect("}")
            enums.append(EnumDecl(name, literals, loc))
        if not self._at_kind("EOF"):
            tok = self._peek()
            raise ParseError(tok.loc, f"unexpected {tok.text!r} in type declarations")
        return TypeDeclUnit(package, enums)

    # -- components ---------------------------------------------------------

    def _component_def(self) -> ComponentType:
        loc = self._expect("component").loc
        name = self._expect_name("component name").text
        params: list[str] = []
        if self._accept("<"):
            params = self._list(lambda: self._expect_name("type parameter").text)
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
            if self._accept("port"):
                ports.extend(self._list(self._port))
                self._expect(";")
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

    def _port(self) -> PortDecl:
        if not (self._at("in") or self._at("out")):
            raise self._expected("'in' or 'out'")
        direction = self._next().text
        type_name = self._qname()
        name = self._expect_name("port name")
        return PortDecl(direction, type_name, name.text, name.loc)

    def _variable_decl(self) -> list[VariableDecl]:
        self._accept("var")
        type_name = self._qname()

        def variable() -> VariableDecl:
            name = self._expect_name("variable name")
            initial = self._opt_value_or_seq() if self._accept("=") else None
            return VariableDecl(type_name, name.text, initial, name.loc)

        decls = self._list(variable)
        self._expect(";")
        return decls

    def _subcomponent(self) -> SubcomponentDecl:
        loc = self._expect("component").loc
        type_name = self._qname()
        args: list[str] = []
        if self._accept("<"):
            args = self._list(self._qname)
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
        while self._accept("<<"):
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
            if self._accept("state"):
                states.extend(self._list(self._state))
                self._expect(";")
            elif self._at("initial"):
                initials.extend(self._initial_decl())
            elif self._at_kind("NAME"):
                transitions.append(self._transition())
            else:
                tok = self._peek()
                raise ParseError(tok.loc, f"unexpected {tok.text!r} in automaton body")
        self._expect("}")
        return Automaton(name, stereos, states, initials, transitions, loc)

    def _state(self) -> StateDecl:
        stereos = self._stereotypes()
        name = self._expect_name("state name")
        return StateDecl(name.text, stereos, name.loc)

    def _initial_decl(self) -> list[InitialDecl]:
        self._expect("initial")
        names = self._list(lambda: self._expect_name("state name"))
        output = self._block(Assignment) if self._accept("/") else None
        self._expect(";")
        return [InitialDecl(tok.text, output, tok.loc) for tok in names]

    def _transition(self) -> Transition:
        source = self._expect_name("state name")
        target = self._expect_name("state name") if self._accept("->") else None
        guard = self._guard() if self._at("[") else None
        input_block = None
        if self._at("{") or self._starts_value():
            input_block = self._block(Match)
        output_block = self._block(Assignment) if self._accept("/") else None
        self._expect(";")
        return Transition(source.text, (target or source).text, guard, input_block,
                          output_block, source.loc, target_loc=target.loc if target else None)

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
        expr, _ = self._expr()
        self._expect("]")
        return Guard(kind, expr, loc)

    def _block(self, node: type[T]) -> list[T]:
        """An input (``Match``) or output (``Assignment``) block, braces optional."""
        braced = self._accept("{")
        entries = self._list(lambda: self._entry(node))
        if braced:
            self._expect("}")
        return entries

    def _entry(self, node: type[T]) -> T:
        """One ``name = alt | alt`` entry of a block; the name is optional."""
        target = target_loc = None
        loc = self._peek().loc
        if self._at_kind("NAME") and self._peek(1).text == "=":
            tok = self._next()
            target, target_loc = tok.text, tok.loc
            self._next()
        alts = self._list(self._opt_value_or_seq, "|")
        return node(target, alts, loc, target_loc=target_loc)

    # -- values -------------------------------------------------------------

    def _opt_value_or_seq(self) -> ValueTerm:
        if self._at("--"):
            return NoData(self._next().loc)
        if self._at("["):
            return self._sequence()
        return self._value()

    def _sequence(self) -> SequenceValue:
        loc = self._expect("[").loc
        elements = [] if self._at("]") else self._list(self._value)
        self._expect("]")
        return SequenceValue(elements, loc)

    def _value(self, what: str = "a value") -> Union[ELit, ERef]:
        """A literal, a negative integer literal or a name: a single value of
        a block, or a leaf of a guard."""
        tok = self._peek()
        if tok.kind in ("INT", "STRING") or tok.text in ("true", "false"):
            self._next()
            return ELit(tok.value, tok.loc)
        if tok.text == "-" and self._peek(1).kind == "INT":
            self._next()
            return ELit(-self._next().value, tok.loc)
        if tok.kind == "NAME":
            self._next()
            return ERef(tok.text, tok.loc)
        raise self._expected(what)

    # -- guard expressions ---------------------------------------------------

    def _expr(self, min_prec: int = 1) -> tuple[Expr, int]:
        """An expression whose binary operators bind at least ``min_prec``.

        Precedence climbing over ``PRECEDENCE``: every binary operator is
        left-associative, so its right operand binds one level tighter.  Also
        returns the expression's depth: the most binary operators on one
        root-to-leaf path of its tree.
        """
        left, depth = self._unary_expr()
        while PRECEDENCE.get(self._peek().text, 0) >= min_prec:
            op = self._next()
            right, right_depth = self._expr(PRECEDENCE[op.text] + 1)
            depth = max(depth, right_depth) + 1
            if depth > MAX_NESTING:
                raise ParseError(op.loc, _TOO_DEEP)
            left = EBinary(op.text, left, right, op.loc)
        return left, depth

    def _nest(self, tok: Token) -> None:
        """Enter one level of nesting at ``tok``; the caller leaves it."""
        if self._nesting == MAX_NESTING:
            raise ParseError(tok.loc, _TOO_DEEP)
        self._nesting += 1

    def _unary_expr(self) -> tuple[Expr, int]:
        if self._at("!") or (self._at("-") and self._peek(1).kind != "INT"):
            tok = self._next()
            self._nest(tok)
            operand, depth = self._unary_expr()
            self._nesting -= 1
            return EUnary(tok.text, operand, tok.loc), depth
        return self._primary_expr()

    def _primary_expr(self) -> tuple[Expr, int]:
        if self._at("("):
            self._nest(self._next())
            expr = self._expr()
            self._expect(")")
            self._nesting -= 1
            return expr
        return self._value("an expression"), 0
