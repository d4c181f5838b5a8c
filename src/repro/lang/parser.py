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

The parser reads the flat token lists of one :class:`~repro.lang.lexer.Scan`
by index, so it allocates once per AST node and never once per token: a
node's :class:`~repro.lang.ast.Loc` is computed from its token's offset
when the node is built, and an error's when it is raised.  From
``parse_expr`` down to an atom is four calls: ``parse_expr`` (keyword
forms, tuples, ``;``), ``_parse_binary``, ``_parse_unary`` (negation and
application) and ``_parse_atom``.
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
from repro.lang.lexer import Scan, TokenKind

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

_IDENT = TokenKind.IDENT
_INT = TokenKind.INT

#: Tokens that can begin an atom, used to decide when application stops.
_ATOM_STARTERS = (_INT, _IDENT)
_ATOM_STARTER_TEXTS = frozenset(("true", "false", "(", "!"))


class _Parser:
    """Recursive descent over the flat token lists of a :class:`Scan`.

    The parser holds a token index, not tokens: it compares texts and
    kinds in place, and asks the scan for a location only when it
    builds a node that carries one or raises an error.
    """

    def __init__(self, scan: Scan) -> None:
        self.scan = scan
        self.kinds = scan.kinds
        self.texts = scan.texts
        self.loc = scan.loc
        self.index = 0

    # -- token plumbing ---------------------------------------------------

    def _at(self, text: str) -> bool:
        """Whether the next token is the keyword or symbol ``text``.

        No identifier, integer or EOF token can spell a keyword or a
        symbol, so the text alone decides.
        """
        return self.texts[self.index] == text

    def _unexpected(self, expected: str) -> ParseError:
        """``<expected>, found <next token>`` at the next token."""
        token = self.scan.token(self.index)
        return ParseError(f"{expected}, found {token}", token.loc)

    def _expect(self, text: str) -> int:
        """Consume the keyword or symbol ``text``; its token index."""
        index = self.index
        if self.texts[index] != text:
            raise self._unexpected(f"expected {text!r}")
        self.index = index + 1
        return index

    def _expect_binder(self) -> str:
        index = self.index
        if self.kinds[index] is not _IDENT:
            raise self._unexpected("expected an identifier")
        text = self.texts[index]
        if text in PRIMITIVE_NAMES:
            raise ParseError(f"cannot rebind the primitive {text!r}", self.loc(index))
        self.index = index + 1
        return text

    def _binders(self) -> List[str]:
        """``IDENT*``: the binders up to the next non-identifier."""
        names = []
        kinds = self.kinds
        while kinds[self.index] is _IDENT:
            names.append(self._expect_binder())
        return names

    # -- expressions ------------------------------------------------------

    def parse_expr(self) -> Expr:
        texts = self.texts
        keyword = _KEYWORD_EXPRS.get(texts[self.index])
        if keyword is not None:
            expr = keyword(self)
        else:
            expr = self._parse_binary(0)
            if texts[self.index] == ",":
                expr = self._parse_tuple(expr)
        # Sequencing ``e1 ; e2`` (imperative extension) desugars to
        # ``let _ = e1 in e2``; right associative.
        index = self.index
        if texts[index] == ";":
            self.index = index + 1
            rest = self.parse_expr()
            return _with_loc(Let("_", expr, rest), self.loc(index))
        return expr

    def _parse_case(self) -> Expr:
        """``case e of inl x -> e1 | inr y -> e2`` (sum-type extension)."""
        loc = self.loc(self._expect("case"))
        scrutinee = self.parse_expr()
        self._expect("of")
        self._expect("inl")
        left_name = self._expect_binder()
        self._expect("->")
        left_body = self.parse_expr()
        self._expect("|")
        self._expect("inr")
        right_name = self._expect_binder()
        self._expect("->")
        right_body = self.parse_expr()
        return _with_loc(
            Case(scrutinee, left_name, left_body, right_name, right_body), loc
        )

    def _parse_fun(self) -> Expr:
        loc = self.loc(self._expect("fun"))
        params = [self._expect_binder()]
        params += self._binders()
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
        loc = self.loc(self._expect("let"))
        name = self._expect_binder()
        params = self._binders()
        self._expect("=")
        bound = self.parse_expr()
        if params:
            bound = fun(tuple(params), bound)
        return loc, name, bound

    def _parse_if(self) -> Expr:
        loc = self.loc(self._expect("if"))
        cond = self.parse_expr()
        proc: Optional[Expr] = None
        if self._at("at"):
            self.index += 1
            proc = self.parse_expr()
        self._expect("then")
        then_branch = self.parse_expr()
        self._expect("else")
        else_branch = self.parse_expr()
        if proc is None:
            return _with_loc(If(cond, then_branch, else_branch), loc)
        return _with_loc(IfAt(cond, proc, then_branch, else_branch), loc)

    def _parse_tuple(self, first: Expr) -> Expr:
        """``first ( ',' binary )+``, the next token being a comma."""
        items = [first]
        while self._at(","):
            self.index += 1
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
        texts = self.texts
        while True:
            index = self.index
            op = texts[index]
            entry = _BINARY_LEVELS.get(op)
            if entry is None:
                return left
            level, assoc = entry
            if level < min_level or level > ceiling:
                return left
            self.index = index + 1
            right = self._parse_binary(level if assoc == _RIGHT else level + 1)
            left = self._binop(op, left, right, self.loc(index))
            ceiling = level - 1 if assoc == _NONASSOC else level

    def _parse_unary(self) -> Expr:
        """``'-' unary | app``, where ``app := atom atom*`` (left
        associative)."""
        index = self.index
        if self.texts[index] == "-":
            self.index = index + 1
            operand = self._parse_unary()
            loc = self.loc(index)
            # A negated literal is a (negative) constant, so that pretty
            # printing Const(-6) as "-6" round-trips; anything else is the
            # usual 0 - e desugaring.
            if isinstance(operand, Const) and isinstance(operand.value, int) and not isinstance(operand.value, bool):
                return _with_loc(Const(-operand.value), loc)
            return self._binop("-", _with_loc(Const(0), loc), operand, loc)
        expr = self._parse_atom()
        kinds, texts = self.kinds, self.texts
        while True:
            index = self.index
            if (
                kinds[index] not in _ATOM_STARTERS
                and texts[index] not in _ATOM_STARTER_TEXTS
            ):
                return expr
            expr = App(expr, self._parse_atom())

    def _parse_atom(self) -> Expr:
        index = self.index
        kind = self.kinds[index]
        text = self.texts[index]
        if kind is _IDENT:
            self.index = index + 1
            if text in PRIMITIVE_NAMES:
                return _with_loc(Prim(text), self.loc(index))
            return _with_loc(Var(text), self.loc(index))
        if kind is _INT:
            self.index = index + 1
            return _with_loc(Const(int(text)), self.loc(index))
        if text == "(":
            self.index = index + 1
            if self._at(")"):
                self.index += 1
                return _with_loc(Const(UNIT), self.loc(index))
            # Operator section ``(+)``: the operator as a first-class value.
            head = self.texts[index + 1]
            if (
                head in BINARY_OPERATORS or head == "!"
            ) and self.texts[index + 2] == ")":
                self.index += 2
                return _with_loc(Prim(head), self.loc(index))
            inner = self.parse_expr()
            if self._at(":"):
                self.index += 1
                annotation = self._parse_type()
                self._expect(")")
                return _with_loc(Annot(inner, annotation), self.loc(index))
            self._expect(")")
            return inner
        if text == "true" or text == "false":
            self.index = index + 1
            return _with_loc(Const(text == "true"), self.loc(index))
        if text == "!":
            self.index = index + 1
            target = self._parse_atom()
            return _with_loc(App(Prim("!"), target), self.loc(index))
        if text == "inl" or text == "inr":
            self.index = index + 1
            payload = self._parse_atom()
            node = Inl(payload) if text == "inl" else Inr(payload)
            return _with_loc(node, self.loc(index))
        raise self._unexpected("expected an expression")

    # -- types (ascriptions) ------------------------------------------------

    def _parse_type(self) -> TypeExpr:
        left = self._parse_type_product()
        if self._at("->"):
            self.index += 1
            return TEArrow(left, self._parse_type())
        return left

    def _parse_type_product(self) -> TypeExpr:
        items = [self._parse_type_postfix()]
        while self._at("*"):
            self.index += 1
            items.append(self._parse_type_postfix())
        if len(items) == 1:
            return items[0]
        return TEProduct(tuple(items))

    def _parse_type_postfix(self) -> TypeExpr:
        ty = self._parse_type_atom()
        # Only an identifier can spell ``par`` or ``ref``.
        while self.texts[self.index] in ("par", "ref"):
            word = self.texts[self.index]
            self.index += 1
            ty = TEPar(ty) if word == "par" else TERef(ty)
        return ty

    def _parse_type_atom(self) -> TypeExpr:
        index = self.index
        kind = self.kinds[index]
        text = self.texts[index]
        if kind is TokenKind.TYVAR:
            self.index = index + 1
            return TEVar(text[1:])
        if kind is _IDENT:
            if text in BASE_TYPE_NAMES:
                self.index = index + 1
                return TEBase(text)
            token = self.scan.token(index)
            raise ParseError(f"unknown type name {token}", token.loc)
        if text == "(":
            self.index = index + 1
            first = self._parse_type()
            if self._at(","):
                self.index += 1
                second = self._parse_type()
                self._expect(")")
                if self.texts[self.index] == "sum":
                    self.index += 1
                    return TESum(first, second)
                raise self._unexpected("expected 'sum' after a type pair")
            self._expect(")")
            return first
        raise self._unexpected("expected a type")

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
                self.index += 1
            if self.kinds[self.index] is TokenKind.EOF:
                return definitions, None
            if self._at("let"):
                # A definition unless ``in`` follows the bound, which is
                # parsed once either way.
                loc, name, bound = self._parse_binding()
                if not self._at("in"):
                    definitions.append((name, bound))
                    continue
                self.index += 1
                final = _with_loc(Let(name, bound, self.parse_expr()), loc)
            else:
                final = self.parse_expr()
            while self._at(";;"):
                self.index += 1
            self._expect_eof()
            return definitions, final

    def _expect_eof(self) -> None:
        if self.kinds[self.index] is not TokenKind.EOF:
            token = self.scan.token(self.index)
            raise ParseError(f"unexpected {token} after expression", token.loc)


#: The expression forms a keyword opens, by keyword.
_KEYWORD_EXPRS = {
    "fun": _Parser._parse_fun,
    "let": _Parser._parse_let,
    "if": _Parser._parse_if,
    "case": _Parser._parse_case,
}


def parse_expression(source: str, filename: str = "<input>") -> Expr:
    """Parse a single mini-BSML expression from ``source``."""
    with deep_recursion():
        parser = _Parser(Scan(source))
        expr = parser.parse_expr()
        parser._expect_eof()
        return expr


def parse_toplevel(
    source: str, filename: str = "<input>"
) -> TupleT[List[TupleT[str, Expr]], Optional[Expr]]:
    """Parse top-level definitions and the optional final expression."""
    with deep_recursion():
        return _Parser(Scan(source)).parse_program()


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
