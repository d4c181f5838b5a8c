"""Recursive-descent parser for the concrete syntax of mini-BSML.

Grammar (from loosest to tightest binding)::

    program   := definition* expr?            (top-level 'let' without 'in')
    definition:= 'let' IDENT IDENT* '=' expr
    expr      := 'fun' IDENT+ '->' expr
               | 'let' IDENT IDENT* '=' expr 'in' expr
               | 'if' expr ('at' expr)? 'then' expr 'else' expr
               | tuple
    tuple     := binary ( ',' binary )*       (2 items -> Pair, 3+ -> Tuple)
    binary    := unary ( OP unary )*          (precedence climbing, see below)
    unary     := '-' unary | app
    app       := atom atom+                   (left associative)
    atom      := INT | 'true' | 'false' | '(' ')' | IDENT | '(' expr ')'
               | '(' expr ':' type ')'     (type atoms: base names, TYVAR)

Binary operators, loosest first: ``:=`` (right associative), ``||``,
``&&``, the comparisons ``= <> < <= > >=`` (non-associative: ``a < b < c``
stops after ``a < b``), ``+ -``, then ``* / mod`` (all left associative).
Binary operators are sugar for the paper's pair-taking primitives:
``e1 + e2`` parses to ``App(Prim('+'), Pair(e1, e2))``.  Identifiers that
name primitives (``mkpar``, ``put``, ``fst``, ...) parse to :class:`Prim`
nodes and cannot be rebound.
"""

from __future__ import annotations

from typing import List, Optional, Tuple as TupleT

from repro.lang.ast import (
    UNIT,
    Annot,
    App,
    Case,
    Const,
    Expr,
    If,
    IfAt,
    Inl,
    Inr,
    Let,
    Loc,
    Pair,
    Prim,
    Tuple,
    Var,
    _with_loc,
    fun,
)
from repro.lang.errors import ParseError
from repro.lang.type_syntax import (
    BASE_TYPE_NAMES,
    TEArrow,
    TEBase,
    TEPar,
    TEProduct,
    TERef,
    TESum,
    TEVar,
    TypeExpr,
)
from repro.lang.limits import deep_recursion
from repro.lang.lexer import Token, TokenKind, tokenize

#: Identifiers that always denote primitive operations.
PRIMITIVE_NAMES = frozenset(
    (
        "fst",
        "snd",
        "fix",
        "nc",
        "isnc",
        "not",
        "mkpar",
        "apply",
        "put",
        "nproc",
        # imperative extension (paper section 6)
        "ref",
    )
)

#: Binary operator symbols, each of which is also a primitive name.
BINARY_OPERATORS = frozenset(
    ("+", "-", "*", "/", "mod", "=", "<>", "<", "<=", ">", ">=", "&&", "||", ":=")
)

_LEFT, _RIGHT, _NONASSOC = range(3)

#: Binding level (higher binds tighter) and associativity of each binary
#: operator.  Only symbol tokens can carry these texts.
_BINARY_LEVELS = {
    ":=": (0, _RIGHT),  # imperative extension
    "||": (1, _LEFT),
    "&&": (2, _LEFT),
    **dict.fromkeys(("=", "<>", "<", "<=", ">", ">="), (3, _NONASSOC)),
    **dict.fromkeys(("+", "-"), (4, _LEFT)),
    **dict.fromkeys(("*", "/", "mod"), (5, _LEFT)),
}
_TIGHTEST = max(level for level, _ in _BINARY_LEVELS.values())

#: Tokens that can begin an atom, used to decide when application stops.
_ATOM_STARTERS = (TokenKind.INT, TokenKind.IDENT)
_ATOM_STARTER_TEXTS = frozenset(("true", "false", "(", "!"))


class _Parser:
    def __init__(self, tokens: List[Token], filename: str) -> None:
        self.tokens = tokens
        self.filename = filename
        self.index = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # ``index`` never passes the EOF token, so only lookahead clamps.
        if offset:
            return self.tokens[min(self.index + offset, len(self.tokens) - 1)]
        return self.tokens[self.index]

    def _next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _at(self, text: str) -> bool:
        """Whether the next token is the keyword or symbol ``text``.

        No identifier, integer or EOF token can spell a keyword or a
        symbol, so the text alone decides.
        """
        return self.tokens[self.index].text == text

    def _expect(self, text: str) -> Token:
        token = self.tokens[self.index]
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token}", token.loc)
        self.index += 1
        return token

    def _expect_binder(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected an identifier, found {token}", token.loc)
        if token.text in PRIMITIVE_NAMES:
            raise ParseError(
                f"cannot rebind the primitive {token.text!r}", token.loc
            )
        return self._next()

    # -- expressions ------------------------------------------------------

    def parse_expr(self) -> Expr:
        expr = self._parse_nonseq()
        # Sequencing ``e1 ; e2`` (imperative extension) desugars to
        # ``let _ = e1 in e2``; right associative.
        if self._at(";"):
            loc = self._next().loc
            rest = self.parse_expr()
            return _with_loc(Let("_", expr, rest), loc)
        return expr

    def _parse_nonseq(self) -> Expr:
        text = self.tokens[self.index].text
        if text == "fun":
            return self._parse_fun()
        if text == "let":
            return self._parse_let()
        if text == "if":
            return self._parse_if()
        if text == "case":
            return self._parse_case()
        return self._parse_tuple()

    def _parse_case(self) -> Expr:
        """``case e of inl x -> e1 | inr y -> e2`` (sum-type extension)."""
        loc = self._expect("case").loc
        scrutinee = self.parse_expr()
        self._expect("of")
        self._expect("inl")
        left_name = self._expect_binder().text
        self._expect("->")
        left_body = self.parse_expr()
        self._expect("|")
        self._expect("inr")
        right_name = self._expect_binder().text
        self._expect("->")
        right_body = self.parse_expr()
        return _with_loc(
            Case(scrutinee, left_name, left_body, right_name, right_body), loc
        )

    def _parse_fun(self) -> Expr:
        loc = self._expect("fun").loc
        params = [self._expect_binder().text]
        while self._peek().kind is TokenKind.IDENT:
            params.append(self._expect_binder().text)
        self._expect("->")
        body = self.parse_expr()
        return _with_loc(fun(tuple(params), body), loc)

    def _parse_let(self) -> Expr:
        loc, name, bound = self._parse_binding()
        self._expect("in")
        return _with_loc(Let(name, bound, self.parse_expr()), loc)

    def _parse_binding(self) -> TupleT[Loc, str, Expr]:
        """``'let' IDENT IDENT* '=' expr``, shared by ``let … in`` and
        top-level definitions."""
        loc = self._expect("let").loc
        name = self._expect_binder().text
        params = []
        while self._peek().kind is TokenKind.IDENT:
            params.append(self._expect_binder().text)
        self._expect("=")
        bound = self.parse_expr()
        if params:
            bound = fun(tuple(params), bound)
        return loc, name, bound

    def _parse_if(self) -> Expr:
        loc = self._expect("if").loc
        cond = self.parse_expr()
        proc: Optional[Expr] = None
        if self._at("at"):
            self._next()
            proc = self.parse_expr()
        self._expect("then")
        then_branch = self.parse_expr()
        self._expect("else")
        else_branch = self.parse_expr()
        if proc is None:
            return _with_loc(If(cond, then_branch, else_branch), loc)
        return _with_loc(IfAt(cond, proc, then_branch, else_branch), loc)

    def _parse_tuple(self) -> Expr:
        first = self._parse_binary(0)
        if not self._at(","):
            return first
        items = [first]
        while self._at(","):
            self._next()
            items.append(self._parse_binary(0))
        if len(items) == 2:
            return Pair(items[0], items[1])
        return Tuple(tuple(items))

    def _binop(self, op: str, left: Expr, right: Expr, loc: Loc) -> Expr:
        return _with_loc(App(Prim(op), Pair(left, right)), loc)

    def _parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing over operators binding at ``min_level`` or tighter.

        After an operator at level ``L`` only operators at ``L`` or looser
        may follow (strictly looser after a non-associative one), so an
        operand that stopped early, as in ``x && a < b < c``, ends the
        whole chain at the same token a layered grammar would.
        """
        left = self._parse_unary()
        ceiling = _TIGHTEST
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            entry = _BINARY_LEVELS.get(token.text)
            if entry is None:
                return left
            level, assoc = entry
            if level < min_level or level > ceiling:
                return left
            self.index += 1
            right = self._parse_binary(level if assoc == _RIGHT else level + 1)
            left = self._binop(token.text, left, right, token.loc)
            ceiling = level - 1 if assoc == _NONASSOC else level

    def _parse_unary(self) -> Expr:
        if self._at("-"):
            token = self._next()
            operand = self._parse_unary()
            # A negated literal is a (negative) constant, so that pretty
            # printing Const(-6) as "-6" round-trips; anything else is the
            # usual 0 - e desugaring.
            if isinstance(operand, Const) and isinstance(operand.value, int) and not isinstance(operand.value, bool):
                return _with_loc(Const(-operand.value), token.loc)
            return self._binop("-", _with_loc(Const(0), token.loc), operand, token.loc)
        return self._parse_app()

    def _parse_app(self) -> Expr:
        expr = self._parse_atom()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            if (
                token.kind not in _ATOM_STARTERS
                and token.text not in _ATOM_STARTER_TEXTS
            ):
                return expr
            expr = App(expr, self._parse_atom())

    def _parse_atom(self) -> Expr:
        token = self.tokens[self.index]
        kind = token.kind
        if kind is TokenKind.IDENT:
            self.index += 1
            if token.text in PRIMITIVE_NAMES:
                return _with_loc(Prim(token.text), token.loc)
            return _with_loc(Var(token.text), token.loc)
        if kind is TokenKind.INT:
            self.index += 1
            return _with_loc(Const(int(token.text)), token.loc)
        text = token.text
        if text == "(":
            self.index += 1
            if self._at(")"):
                self.index += 1
                return _with_loc(Const(UNIT), token.loc)
            # Operator section ``(+)``: the operator as a first-class value.
            head = self.tokens[self.index]
            if (
                head.text in BINARY_OPERATORS or head.text == "!"
            ) and self._peek(1).text == ")":
                self.index += 2
                return _with_loc(Prim(head.text), token.loc)
            inner = self.parse_expr()
            if self._at(":"):
                self.index += 1
                annotation = self._parse_type()
                self._expect(")")
                return _with_loc(Annot(inner, annotation), token.loc)
            self._expect(")")
            return inner
        if text == "true" or text == "false":
            self.index += 1
            return _with_loc(Const(text == "true"), token.loc)
        if text == "!":
            self.index += 1
            target = self._parse_atom()
            return _with_loc(App(Prim("!"), target), token.loc)
        if text == "inl" or text == "inr":
            self.index += 1
            payload = self._parse_atom()
            node = Inl(payload) if text == "inl" else Inr(payload)
            return _with_loc(node, token.loc)
        raise ParseError(f"expected an expression, found {token}", token.loc)

    # -- types (ascriptions) ------------------------------------------------

    def _parse_type(self) -> TypeExpr:
        left = self._parse_type_product()
        if self._at("->"):
            self._next()
            return TEArrow(left, self._parse_type())
        return left

    def _parse_type_product(self) -> TypeExpr:
        items = [self._parse_type_postfix()]
        while self._at("*"):
            self._next()
            items.append(self._parse_type_postfix())
        if len(items) == 1:
            return items[0]
        return TEProduct(tuple(items))

    def _parse_type_postfix(self) -> TypeExpr:
        ty = self._parse_type_atom()
        while (
            self._peek().kind is TokenKind.IDENT
            and self._peek().text in ("par", "ref")
        ):
            word = self._next().text
            ty = TEPar(ty) if word == "par" else TERef(ty)
        return ty

    def _parse_type_atom(self) -> TypeExpr:
        token = self._peek()
        if token.kind is TokenKind.TYVAR:
            self._next()
            return TEVar(token.text[1:])
        if token.kind is TokenKind.IDENT:
            if token.text in BASE_TYPE_NAMES:
                self._next()
                return TEBase(token.text)
            raise ParseError(f"unknown type name {token}", token.loc)
        if self._at("("):
            self._next()
            first = self._parse_type()
            if self._at(","):
                self._next()
                second = self._parse_type()
                self._expect(")")
                word = self._peek()
                if word.kind is TokenKind.IDENT and word.text == "sum":
                    self._next()
                    return TESum(first, second)
                raise ParseError(
                    f"expected 'sum' after a type pair, found {word}", word.loc
                )
            self._expect(")")
            return first
        raise ParseError(f"expected a type, found {token}", token.loc)

    # -- programs ---------------------------------------------------------

    def parse_program(self) -> TupleT[List[TupleT[str, Expr]], Optional[Expr]]:
        """Parse top-level definitions followed by an optional expression.

        Definitions are ``let`` items without an ``in``.  An optional ``;;``
        terminates any top-level item; it is required between a definition
        and a following expression that could otherwise be read as more
        applied arguments (same rule as OCaml).
        """
        definitions: List[TupleT[str, Expr]] = []
        while True:
            while self._at(";;"):
                self._next()
            if self._peek().kind is TokenKind.EOF:
                return definitions, None
            if self._at("let"):
                # A definition unless ``in`` follows the bound, which is
                # parsed once either way.
                loc, name, bound = self._parse_binding()
                if not self._at("in"):
                    definitions.append((name, bound))
                    continue
                self._next()
                final = _with_loc(Let(name, bound, self.parse_expr()), loc)
            else:
                final = self.parse_expr()
            while self._at(";;"):
                self._next()
            self._expect_eof()
            return definitions, final

    def _expect_eof(self) -> None:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            raise ParseError(f"unexpected {token} after expression", token.loc)


def parse_expression(source: str, filename: str = "<input>") -> Expr:
    """Parse a single mini-BSML expression from ``source``."""
    with deep_recursion():
        parser = _Parser(tokenize(source, filename), filename)
        expr = parser.parse_expr()
        parser._expect_eof()
        return expr


def parse_toplevel(
    source: str, filename: str = "<input>"
) -> TupleT[List[TupleT[str, Expr]], Optional[Expr]]:
    """Parse top-level definitions and the optional final expression."""
    with deep_recursion():
        return _Parser(tokenize(source, filename), filename).parse_program()


def parse_definitions(
    source: str, filename: str = "<input>"
) -> List[TupleT[str, Expr]]:
    """Parse a sequence of top-level ``let`` definitions (no final expression)."""
    definitions, final = parse_toplevel(source, filename)
    if final is not None:
        raise ParseError(
            "expected only top-level definitions, found a trailing expression",
            None,
        )
    return definitions


def parse_program(source: str, filename: str = "<input>") -> Expr:
    """Parse definitions plus a final expression into one nested-let term."""
    definitions, final = parse_toplevel(source, filename)
    if final is None:
        raise ParseError("program has no final expression", None)
    result = final
    for name, bound in reversed(definitions):
        result = Let(name, bound, result)
    return result
