"""Abstract syntax of mini-BSML (Figure 3 of the paper).

The expression grammar is::

    e ::= x                     variable
        | c                     constant (integers, booleans, ())
        | op                    primitive operation
        | fun x -> e            function abstraction
        | (e e)                 application
        | let x = e in e        local binding
        | (e, e)                pair
        | if e then e else e    conditional
        | if e at e then e else e   global (synchronous) conditional

The dynamic semantics additionally works on *extended expressions* which
include p-wide parallel vectors of expressions ``<e_0, ..., e_{p-1}>``
(written :class:`ParVec` here).  Parallel vectors never appear in source
programs; they are created by the evaluation rules for ``mkpar``.

As an extension (paper section 6, future work) the AST also supports n-ary
tuples via :class:`Tuple`; pairs remain their own node because the paper's
type algebra treats the pair type ``tau * tau`` primitively.

Every node carries an optional source :class:`Loc` used for diagnostics.
Locations are excluded from structural equality so that ASTs built
programmatically compare equal to parsed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Tuple as TupleT, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.lang.type_syntax import TypeExpr


class Loc(NamedTuple):
    """A position in a source file: 1-based line and column."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class UnitType:
    """The type of the unique unit value ``()``.

    A singleton: ``UNIT`` is the only instance ever created.
    """

    _instance: Optional["UnitType"] = None

    def __new__(cls) -> "UnitType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"

    def __hash__(self) -> int:
        return hash("unit-value")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnitType)


#: The unit value ``()``.
UNIT = UnitType()

#: Python payloads allowed inside :class:`Const`.
ConstValue = Union[int, bool, UnitType]


@dataclass(frozen=True)
class Expr:
    """Base class of all mini-BSML expressions."""

    def children(self) -> TupleT["Expr", ...]:
        """Immediate sub-expressions, in left-to-right evaluation order."""
        return ()

    def size(self) -> int:
        """Number of AST nodes in this expression (including itself)."""
        count = 0
        for _ in self.walk():
            count += 1
        return count

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every descendant, pre-order.

        Iterative, so arbitrarily deep programs can be traversed without
        recursion headroom.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    @property
    def loc(self) -> Optional[Loc]:
        return getattr(self, "_loc", None)


def _with_loc(expr: Expr, loc: Optional[Loc]) -> Expr:
    if loc is not None:
        object.__setattr__(expr, "_loc", loc)
    return expr


@dataclass(frozen=True)
class Var(Expr):
    """A variable occurrence ``x``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expr):
    """A constant: an integer, a boolean, or the unit value."""

    value: ConstValue

    def __post_init__(self) -> None:
        ok = isinstance(self.value, (bool, int, UnitType))
        if not ok:
            raise TypeError(f"unsupported constant payload: {self.value!r}")

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return str(self.value)


@dataclass(frozen=True)
class Prim(Expr):
    """A primitive operation such as ``+``, ``fst``, ``mkpar`` or ``put``.

    The set of valid names is defined by the initial typing environment
    (:mod:`repro.core.initial_env`) and the delta rules
    (:mod:`repro.semantics.delta` and :mod:`repro.semantics.delta_parallel`).
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Fun(Expr):
    """A function abstraction ``fun param -> body``."""

    param: str
    body: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.body,)


@dataclass(frozen=True)
class App(Expr):
    """An application ``(fn arg)``."""

    fn: Expr
    arg: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.fn, self.arg)


@dataclass(frozen=True)
class Let(Expr):
    """A local binding ``let name = bound in body``."""

    name: str
    bound: Expr
    body: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.bound, self.body)


@dataclass(frozen=True)
class Pair(Expr):
    """A pair ``(first, second)``."""

    first: Expr
    second: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.first, self.second)


@dataclass(frozen=True)
class Tuple(Expr):
    """An n-ary tuple with n >= 3 (extension beyond the paper's pairs)."""

    items: TupleT[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 3:
            raise ValueError("Tuple nodes need >= 3 items; use Pair for 2")

    def children(self) -> TupleT[Expr, ...]:
        return self.items


@dataclass(frozen=True)
class Annot(Expr):
    """A type ascription ``(expr : ty)`` (usability extension).

    ``annotation`` is a syntactic type (:mod:`repro.lang.type_syntax`);
    inference unifies the expression's type with it.  Operationally the
    annotation erases: ``(e : ty) -> e`` is a head reduction.
    """

    expr: Expr
    annotation: "TypeExpr"

    def children(self) -> TupleT[Expr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class Inl(Expr):
    """Left injection into a sum type (extension, paper section 6).

    The paper reports the extension to sum types as "investigated but not
    yet proved"; this reproduction implements it fully (syntax, dynamic
    semantics, typing) and property-tests its safety alongside the core.
    """

    value: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.value,)


@dataclass(frozen=True)
class Inr(Expr):
    """Right injection into a sum type (extension, paper section 6)."""

    value: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.value,)


@dataclass(frozen=True)
class Case(Expr):
    """Sum elimination (extension, paper section 6)::

        case scrutinee of inl left_name -> left_body
                        | inr right_name -> right_body
    """

    scrutinee: Expr
    left_name: str
    left_body: Expr
    right_name: str
    right_body: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.scrutinee, self.left_body, self.right_body)


@dataclass(frozen=True)
class If(Expr):
    """The (local) conditional ``if cond then then_branch else else_branch``."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.cond, self.then_branch, self.else_branch)


@dataclass(frozen=True)
class IfAt(Expr):
    """The global synchronous conditional ``if vec at proc then e1 else e2``.

    ``vec`` must evaluate to a ``bool par`` and ``proc`` to an ``int``; the
    boolean held at process ``proc`` decides which branch the whole machine
    takes.  This construct involves communication and a synchronization
    barrier (paper section 2).
    """

    vec: Expr
    proc: Expr
    then_branch: Expr
    else_branch: Expr

    def children(self) -> TupleT[Expr, ...]:
        return (self.vec, self.proc, self.then_branch, self.else_branch)


@dataclass(frozen=True)
class ParVec(Expr):
    """An extended expression: a p-wide parallel vector ``<e_0, ..., e_{p-1}>``.

    Only produced by evaluation (rule delta_mkpar), never by the parser.
    """

    items: TupleT[Expr, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("a parallel vector needs at least one component")

    def children(self) -> TupleT[Expr, ...]:
        return self.items

    @property
    def width(self) -> int:
        return len(self.items)


def const_int(n: int, loc: Optional[Loc] = None) -> Const:
    """Build an integer constant node."""
    return _with_loc(Const(n), loc)  # type: ignore[return-value]


def const_bool(b: bool, loc: Optional[Loc] = None) -> Const:
    """Build a boolean constant node."""
    return _with_loc(Const(bool(b)), loc)  # type: ignore[return-value]


def const_unit(loc: Optional[Loc] = None) -> Const:
    """Build the unit constant node ``()``."""
    return _with_loc(Const(UNIT), loc)  # type: ignore[return-value]


def app(fn: Expr, *args: Expr) -> Expr:
    """Left-nested application ``(((fn a1) a2) ...)``."""
    result = fn
    for arg in args:
        result = App(result, arg)
    return result


def fun(params: Union[str, TupleT[str, ...], list], body: Expr) -> Expr:
    """Curried abstraction ``fun p1 -> fun p2 -> ... -> body``."""
    if isinstance(params, str):
        params = (params,)
    result = body
    for param in reversed(list(params)):
        result = Fun(param, result)
    return result


def let_chain(bindings: list, body: Expr) -> Expr:
    """Nested lets: ``let n1 = e1 in ... let nk = ek in body``."""
    result = body
    for name, bound in reversed(bindings):
        result = Let(name, bound, result)
    return result


def is_value_syntax(expr: Expr) -> bool:
    """True when ``expr`` is syntactically a value (Figure 4).

    Local values are lambdas, constants, primitives and pairs/tuples of
    values; global values additionally include parallel vectors whose
    components are all values.  The applied constructor ``nc ()`` (the
    paper's stand-in for OCaml's ``None``) is also a value: no delta rule
    reduces it, it is only consumed by ``isnc``.
    """
    if isinstance(expr, Prim):
        # ``nproc`` reduces to the machine size p, so it is a redex.
        return expr.name != "nproc"
    if isinstance(expr, (Fun, Const)):
        return True
    if isinstance(expr, Pair):
        return is_value_syntax(expr.first) and is_value_syntax(expr.second)
    if isinstance(expr, (Inl, Inr)):
        return is_value_syntax(expr.value)
    if isinstance(expr, (Tuple, ParVec)):
        return all(is_value_syntax(item) for item in expr.items)
    if isinstance(expr, App):
        return is_nc_value(expr)
    return False


def is_nc_value(expr: Expr) -> bool:
    """True for the irreducible applied constructor ``nc ()``."""
    return (
        isinstance(expr, App)
        and isinstance(expr.fn, Prim)
        and expr.fn.name == "nc"
        and isinstance(expr.arg, Const)
        and isinstance(expr.arg.value, UnitType)
    )


#: The canonical ``nc ()`` value (the "no communication" / None marker).
NC = App(Prim("nc"), Const(UNIT))
