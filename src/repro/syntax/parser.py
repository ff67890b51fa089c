"""Parser for FreezeML terms and types.

Terms are parsed by precedence climbing: one loop handles the binary
operators, application and ``@``; ``let ... in`` chains are consumed in
a loop too.  Only parentheses, brackets, bound terms and lambda bodies
recurse.  Types are parsed by recursive descent.

Term grammar (loosest to tightest)::

    term     ::= 'fun' param+ '->' term
               | 'let' ['rec'] bind '=' term 'in' term
               | cons
    bind     ::= IDENT | '(' IDENT ':' type ')'
    cons     ::= append ('::' cons)?               -- desugars to `::`
    append   ::= sum ('++' sum)*                   -- desugars to `++`
    sum      ::= app ('+' app)*                    -- desugars to `+`
    app      ::= postfix+
    postfix  ::= atom '@'*                         -- explicit instantiation
    atom     ::= IDENT | '~' IDENT | INT | 'true' | 'false' | STRING
               | '$' IDENT | '$' '(' term [':' type] ')'
               | '(' term [',' term] ')'           -- pairs desugar to `pair`
               | '[' [term (',' term)*] ']'        -- lists desugar to `::`/`[]`

Type grammar::

    type     ::= 'forall' IDENT+ '.' type | arrow
    arrow    ::= prod ('->' type)?
    prod     ::= tyapp (('*'|'×') prod)?
    tyapp    ::= UPPER tyatom*                     -- arity-checked
               | tyatom
    tyatom   ::= IDENT | UPPER | '(' type ')'

Lists, pairs and arithmetic are not term formers of the core calculus:
they parse to applications of the Figure 2 prelude constants ``::``,
``[]``, ``pair`` and ``+`` (see DESIGN.md).
"""

from __future__ import annotations

from ..core.terms import (
    App,
    BoolLit,
    FrozenVar,
    IntLit,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    StrLit,
    Term,
    Var,
    generalise,
    generalise_ann,
    instantiate,
)
from ..core.types import TCon, TForall, TVar, Type, constructor_arity, product
from ..diagnostics import Span
from ..errors import ParseError
from .lexer import Token, tokenize

CONS = "::"
APPEND = "++"
PLUS = "+"
NIL = "[]"
PAIR = "pair"


class SpanTable:
    """A side table mapping term nodes (by identity) to source spans.

    Terms are immutable value-comparable dataclasses, so the table keys
    on object identity: every node of one parse is a distinct object.
    The table keeps the parsed root alive (``root``) so the identity
    keys stay valid for its lifetime.
    """

    __slots__ = ("source", "root", "_spans")

    def __init__(self, source: str):
        self.source = source
        self.root: Term | None = None
        self._spans: dict[int, Span] = {}

    def record(self, node: Term, span: Span) -> None:
        # setdefault: inner productions note a node before outer ones
        # re-return it, and the innermost (tightest) span should win.
        self._spans.setdefault(id(node), span)

    def get(self, node: Term) -> Span | None:
        return self._spans.get(id(node))

    def absorb(self, other: "SpanTable", *, line: int, column: int) -> None:
        """Merge ``other``'s spans, relocated so its line 1, column 1
        sits at ``(line, column)`` of this table's source.

        Used by the program format: each ``def``/``main`` right-hand
        side is parsed standalone (so its spans start at 1:1) and then
        absorbed at the line/column where the text actually appears.
        Only line-1 columns shift -- later lines of a multi-line
        sub-source keep their own columns.  The caller must keep the
        other table's nodes alive (identity keys); embedding them in
        this table's ``root`` term does that.
        """
        for key, span in other._spans.items():
            self._spans[key] = Span(
                line + span.line - 1,
                column + span.column - 1 if span.line == 1 else span.column,
                line + span.end_line - 1,
                column + span.end_column - 1 if span.end_line == 1 else span.end_column,
            )

    def __len__(self) -> int:
        return len(self._spans)


#: Binary operators by token kind: (precedence, prelude constant).  All
#: are left-associative except ``::``, the loosest, which nests right.
_BINARY = {"DCOLON": (1, CONS), "DPLUS": (2, APPEND), "PLUS": (3, PLUS)}
_RIGHT_ASSOC = 1

_ATOM_START = frozenset(
    ("IDENT", "INT", "TRUE", "FALSE", "STRING", "TILDE", "DOLLAR", "LPAREN", "LBRACKET")
)


class _Parser:
    def __init__(self, tokens: list[Token], spans: SpanTable | None = None):
        self.tokens = tokens
        self.pos = 0
        self.spans = spans

    # -- plumbing -----------------------------------------------------------

    def peek(self) -> Token:
        # The EOF token is a sentinel: ``next`` never moves past it.
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.kind} {token.text!r}",
                token.line,
                token.column,
                token.end_line,
                token.end_column,
            )
        return self.next()

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def eat(self, kind: str) -> bool:
        if self.tokens[self.pos].kind == kind:
            self.next()
            return True
        return False

    def fail(self, message: str):
        token = self.tokens[self.pos]
        raise ParseError(
            message, token.line, token.column, token.end_line, token.end_column
        )

    def _note(self, node: Term, start: Token) -> Term:
        """Record ``node``'s span: from ``start`` to the last consumed token."""
        if self.spans is not None:
            end = self.tokens[self.pos - 1]
            self.spans.record(
                node,
                Span(start.line, start.column, end.line, end.column + len(end.text)),
            )
        return node

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        kind = self.tokens[self.pos].kind
        if kind == "FUN":
            return self.lambda_()
        if kind == "LET":
            return self.let()
        return self.operators()

    def lambda_(self) -> Term:
        start = self.expect("FUN")
        params: list[tuple[str, Type | None]] = [self.param()]
        while not self.at("ARROW"):
            params.append(self.param())
        self.expect("ARROW")
        body = self.term()
        for name, ann in reversed(params):
            body = Lam(name, body) if ann is None else LamAnn(name, ann, body)
            self._note(body, start)
        return body

    def param(self) -> tuple[str, Type | None]:
        if self.at("IDENT"):
            return self.next().text, None
        if self.eat("LPAREN"):
            name = self.expect("IDENT").text
            self.expect("COLON")
            ann = self.type()
            self.expect("RPAREN")
            return name, ann
        self.fail("expected a parameter")
        raise AssertionError  # pragma: no cover

    def let(self) -> Term:
        """A whole ``let ... in`` chain, consumed in a loop: only the
        bound terms and the final body recurse."""
        headers: list[tuple[Token, str, Type | None, Term]] = []
        while self.at("LET"):
            start = self.next()
            ann: Type | None = None
            if self.eat("LPAREN"):
                name = self.expect("IDENT").text
                self.expect("COLON")
                ann = self.type()
                self.expect("RPAREN")
            else:
                name = self.expect("IDENT").text
            self.expect("EQUALS")
            bound = self.term()
            self.expect("IN")
            headers.append((start, name, ann, bound))
        body = self.term()
        for start, name, ann, bound in reversed(headers):
            if ann is None:
                body = Let(name, bound, body)
            else:
                body = LetAnn(name, ann, bound, body)
            self._note(body, start)
        return body

    def operators(self) -> Term:
        """Precedence climbing over ``::``/``++``/``+`` operands, each an
        application of ``@``-postfixed atoms.

        ``operands`` pairs each pending operand with its first token (a
        node's span runs from its left operand's first token to the last
        token consumed when it is built); ``pending`` holds the
        operators not yet reduced, loosest at the bottom.
        """
        tokens = self.tokens
        operands: list[tuple[Token, Term]] = []
        pending: list[tuple[int, str]] = []
        while True:
            start = tokens[self.pos]
            fn: Term | None = None
            while True:
                atom_start = tokens[self.pos]
                arg = self.atom()
                while tokens[self.pos].kind == "AT":
                    self.pos += 1
                    arg = self._note(instantiate(arg), atom_start)
                fn = arg if fn is None else self._note(App(fn, arg), start)
                if tokens[self.pos].kind not in _ATOM_START:
                    break
            op = _BINARY.get(tokens[self.pos].kind)
            if op is None and not pending:
                return fn
            prec = op[0] if op is not None else 0
            operands.append((start, fn))
            while pending and (
                pending[-1][0] > prec
                or (pending[-1][0] == prec and prec != _RIGHT_ASSOC)
            ):
                self._reduce(operands, pending.pop()[1])
            if op is None:
                return operands[0][1]
            pending.append(op)
            self.pos += 1

    def _reduce(self, operands: list[tuple[Token, Term]], name: str) -> None:
        _, right = operands.pop()
        start, left = operands[-1]
        operands[-1] = (start, self._note(App(App(Var(name), left), right), start))

    def atom(self) -> Term:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "IDENT":
            self.pos += 1
            return self._note(Var(token.text), token)
        if kind == "INT":
            self.pos += 1
            return self._note(IntLit(int(token.text)), token)
        if kind == "TRUE" or kind == "FALSE":
            self.pos += 1
            return self._note(BoolLit(kind == "TRUE"), token)
        if kind == "STRING":
            self.pos += 1
            raw = token.text
            return self._note(
                StrLit(raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")), token
            )
        if kind == "TILDE":
            self.pos += 1
            return self._note(FrozenVar(self.expect("IDENT").text), token)
        if kind == "DOLLAR":
            self.pos += 1
            return self._note(self.dollar(), token)
        if kind == "LPAREN":
            self.pos += 1
            inner = self.term()
            if self.eat("COMMA"):
                second = self.term()
                self.expect("RPAREN")
                return self._note(App(App(Var(PAIR), inner), second), token)
            self.expect("RPAREN")
            return inner
        if kind == "LBRACKET":
            self.pos += 1
            elems: list[Term] = []
            if not self.at("RBRACKET"):
                elems.append(self.term())
                while self.eat("COMMA"):
                    elems.append(self.term())
            self.expect("RBRACKET")
            result: Term = Var(NIL)
            for elem in reversed(elems):
                result = App(App(Var(CONS), elem), result)
            return self._note(result, token)
        self.fail(f"expected a term, found {kind} {token.text!r}")
        raise AssertionError  # pragma: no cover

    def dollar(self) -> Term:
        """The body of a ``$`` generalisation: ``$x`` or ``$(M [: A])``."""
        if self.at("IDENT"):
            return generalise(Var(self.next().text))
        if self.eat("LPAREN"):
            inner = self.term()
            if self.eat("COLON"):
                ann = self.type()
                self.expect("RPAREN")
                return generalise_ann(ann, inner)
            self.expect("RPAREN")
            return generalise(inner)
        self.fail("expected a variable or parenthesised term after $")
        raise AssertionError  # pragma: no cover

    # -- types ----------------------------------------------------------------

    def type(self) -> Type:
        if self.eat("FORALL"):
            names = [self.expect("IDENT").text]
            while self.at("IDENT"):
                names.append(self.next().text)
            self.expect("DOT")
            body = self.type()
            for name in reversed(names):
                body = TForall(name, body)
            return body
        return self.arrow_type()

    def arrow_type(self) -> Type:
        left = self.product_type()
        if self.eat("ARROW"):
            right = self.type()
            return TCon("->", (left, right))
        return left

    def product_type(self) -> Type:
        left = self.type_application()
        if self.eat("STAR"):
            right = self.product_type()
            return product(left, right)
        return left

    def type_application(self) -> Type:
        if self.at("UPPER"):
            token = self.next()
            arity = constructor_arity(token.text)
            if arity is None:
                raise ParseError(
                    f"unknown type constructor {token.text}",
                    token.line,
                    token.column,
                    token.end_line,
                    token.end_column,
                )
            args = tuple(self.type_atom() for _ in range(arity))
            return TCon(token.text, args)
        return self.type_atom()

    def type_atom(self) -> Type:
        token = self.peek()
        if token.kind == "IDENT":
            return TVar(self.next().text)
        if token.kind == "UPPER":
            # A constructor in atom position must be nullary (or be
            # parenthesised with its arguments).
            name = self.next().text
            arity = constructor_arity(name)
            if arity is None:
                raise ParseError(
                    f"unknown type constructor {name}",
                    token.line,
                    token.column,
                    token.end_line,
                    token.end_column,
                )
            if arity != 0:
                raise ParseError(
                    f"type constructor {name} (arity {arity}) needs arguments; "
                    f"parenthesise the application",
                    token.line,
                    token.column,
                    token.end_line,
                    token.end_column,
                )
            return TCon(name)
        if token.kind == "LPAREN":
            self.next()
            inner = self.type()
            self.expect("RPAREN")
            return inner
        self.fail(f"expected a type, found {token.kind} {token.text!r}")
        raise AssertionError  # pragma: no cover


def parse_term(source: str) -> Term:
    """Parse a FreezeML term from surface syntax."""
    parser = _Parser(tokenize(source))
    term = parser.term()
    parser.expect("EOF")
    return term


def parse_term_spanned(source: str) -> tuple[Term, SpanTable]:
    """Parse a term and return it with the side table of node spans.

    Every node the parser builds is recorded against its source region,
    so downstream consumers (the ``repro.api`` diagnostics pipeline) can
    point errors at the offending subterm.  ``$``/``@`` sugar expansions
    are located at the operator that introduced them.
    """
    spans = SpanTable(source)
    parser = _Parser(tokenize(source), spans)
    term = parser.term()
    parser.expect("EOF")
    spans.root = term
    return term, spans


def parse_type(source: str) -> Type:
    """Parse a FreezeML/System F type from surface syntax."""
    parser = _Parser(tokenize(source))
    ty = parser.type()
    parser.expect("EOF")
    return ty
