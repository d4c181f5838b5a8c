"""Runtime values of the big-step evaluator, and their size in words.

The small-step machine rewrites ASTs, which is faithful but slow; the
big-step evaluator (:mod:`repro.semantics.bigstep`) uses proper runtime
values with environment-carrying closures.  ``words`` measures a value's
communication size — the ``s`` of the paper's cost formula (1) — in
machine words: scalars weigh 1, pairs weigh the sum of their parts, and a
transmitted closure weighs one word per AST node of its body plus its
captured environment (a simple, documented serialization model).

``reify`` converts a runtime value back into a (closed) value expression
of the small-step syntax, which is how the test suite checks the two
evaluators agree and how Theorem 1's "the result retypes" is exercised on
big-step results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.lang.ast import (
    NC,
    UNIT,
    Inl as InlE,
    Inr as InrE,
    Const,
    Expr,
    Fun,
    If,
    App,
    Pair as PairE,
    ParVec,
    Prim,
    Tuple as TupleE,
    UnitType,
    Var,
)
from repro.lang.substitution import free_vars, substitute
from repro.semantics.errors import EvalError

#: Scalar runtime values are plain Python payloads.
Scalar = Union[int, bool, UnitType]


@dataclass(frozen=True)
class VPair:
    first: "Value"
    second: "Value"


@dataclass(frozen=True)
class VTuple:
    items: Tuple["Value", ...]


@dataclass(frozen=True)
class VInl:
    """A left injection (sum-type extension)."""

    value: "Value"


@dataclass(frozen=True)
class VInr:
    """A right injection (sum-type extension)."""

    value: "Value"


@dataclass(eq=False)
class VRef:
    """A mutable reference (imperative extension, paper section 6).

    Models SPMD replicated state: a reference created in replicated
    (global) context has one cell per process, all initially equal;
    assignments inside a parallel-vector component touch only that
    process's cell.  ``origin`` records the creating context (None for
    replicated, the pid for a component-local reference).  Identity
    equality, like OCaml refs.
    """

    cells: list
    origin: Optional[int]

    @property
    def coherent(self) -> bool:
        """True when every process replica still holds the same value."""
        first = self.cells[0]
        return all(cell == first for cell in self.cells[1:])


@dataclass(frozen=True)
class VNc:
    """The ``nc ()`` value — "no communication" (the paper's None)."""


@dataclass(frozen=True)
class VPrim:
    """An unapplied primitive, e.g. ``fst`` used as a first-class function."""

    name: str


@dataclass
class VClosure:
    """A function value: parameter, body, captured environment.

    Mutable (not frozen) because ``fix`` ties the knot by inserting the
    closure into its own captured environment.
    """

    param: str
    body: Expr
    env: Dict[str, "Value"]

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)


class VCompiledClosure:
    """A function value produced by the closure-compiling evaluator
    (:mod:`repro.semantics.compiled`).

    The source ``param``/``body`` are kept so the value weighs
    (:func:`words`) and reifies (:func:`reify`) exactly like the tree
    evaluator's :class:`VClosure` for the same program point.  ``code``
    is the compiled body: a callable ``code(rt, frame)`` running against
    a slot-indexed frame laid out ``[argument, *captured cells, *let
    slots]`` (``frame_size`` slots in total).  ``capture_names`` lists
    the captured free variables in slot order — exactly
    ``free_vars(body) - {param}`` restricted to the lexical scope — and
    ``cells`` holds their values, copied at closure creation.  ``cells``
    is a mutable list because ``fix`` ties the recursive knot by
    patching the self-capture after the fact.  Identity equality, like
    :class:`VClosure`.
    """

    __slots__ = ("param", "body", "code", "frame_size", "capture_names", "cells")

    def __init__(
        self,
        param: str,
        body: Expr,
        code,
        frame_size: int,
        capture_names: Tuple[str, ...],
        cells: list,
    ) -> None:
        self.param = param
        self.body = body
        self.code = code
        self.frame_size = frame_size
        self.capture_names = capture_names
        self.cells = cells

    def __repr__(self) -> str:
        return (
            f"VCompiledClosure(param={self.param!r}, "
            f"captures={self.capture_names!r})"
        )


@dataclass(frozen=True)
class VDelivered:
    """The delivered-messages function a ``put`` leaves on each process:
    maps a sender pid to the received value, ``nc ()`` when none came
    (and for indices outside ``0..p-1``, as in Figure 2's ``f_i``)."""

    messages: Tuple["Value", ...]

    def lookup(self, index: int) -> "Value":
        if 0 <= index < len(self.messages):
            return self.messages[index]
        return NC_VALUE


@dataclass(frozen=True)
class VParVec:
    """A p-wide parallel vector of per-process values."""

    items: Tuple["Value", ...]

    @property
    def width(self) -> int:
        return len(self.items)


Value = Union[
    Scalar, VPair, VTuple, VInl, VInr, VNc, VPrim, VClosure,
    VCompiledClosure, VDelivered, VParVec, VRef,
]

#: Singletons.
NC_VALUE = VNc()


def is_global_value(value: Value) -> bool:
    """True when a parallel vector occurs anywhere inside ``value``."""
    if isinstance(value, VParVec):
        return True
    if isinstance(value, VPair):
        return is_global_value(value.first) or is_global_value(value.second)
    if isinstance(value, VTuple):
        return any(is_global_value(item) for item in value.items)
    if isinstance(value, (VInl, VInr)):
        return is_global_value(value.value)
    return False


def words(value: Value) -> int:
    """Communication size of ``value`` in machine words (the ``s`` of
    formula (1)).  Parallel vectors are not transmissible."""
    if isinstance(value, bool) or isinstance(value, int):
        return 1
    if isinstance(value, UnitType):
        return 1
    if isinstance(value, (VNc, VPrim)):
        return 1
    if isinstance(value, VPair):
        return words(value.first) + words(value.second)
    if isinstance(value, VTuple):
        return sum(words(item) for item in value.items)
    if isinstance(value, (VInl, VInr)):
        return 1 + words(value.value)  # one tag word plus the payload
    if isinstance(value, VClosure):
        captured = sum(
            words(value.env[name])
            for name in free_vars(value.body) - {value.param}
            if name in value.env
        )
        return 1 + value.body.size() + captured
    if isinstance(value, VCompiledClosure):
        # The capture list is exactly the free variables a VClosure for
        # the same program point would weigh, so the two engines charge
        # identical communication sizes.
        return 1 + value.body.size() + sum(words(cell) for cell in value.cells)
    if isinstance(value, VDelivered):
        return sum(words(message) for message in value.messages)
    if isinstance(value, VParVec):
        raise EvalError("a parallel vector has no communication size")
    if isinstance(value, VRef):
        raise EvalError(
            "references are not transmissible (sending one would silently "
            "turn aliasing into copying; see DESIGN.md on the imperative "
            "extension)"
        )
    raise TypeError(f"words: unknown value {type(value).__name__}")


def reify(value: Value, _stack: Optional[set] = None) -> Expr:
    """Convert a runtime value back to a closed value expression.

    Closures reify by substituting their captured environment into their
    body; recursive closures (created by ``fix``) would reify into an
    infinite term and raise instead.
    """
    if _stack is None:
        _stack = set()
    if isinstance(value, bool):
        return Const(value)
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, UnitType):
        return Const(UNIT)
    if isinstance(value, VNc):
        return NC
    if isinstance(value, VPrim):
        return Prim(value.name)
    if isinstance(value, VPair):
        return PairE(reify(value.first, _stack), reify(value.second, _stack))
    if isinstance(value, VTuple):
        return TupleE(tuple(reify(item, _stack) for item in value.items))
    if isinstance(value, VInl):
        return InlE(reify(value.value, _stack))
    if isinstance(value, VInr):
        return InrE(reify(value.value, _stack))
    if isinstance(value, VParVec):
        return ParVec(tuple(reify(item, _stack) for item in value.items))
    if isinstance(value, VDelivered):
        # Rebuild Figure 2's f_i = fun x -> if x = 0 then v_0 else ... nc ()
        body: Expr = NC
        for j in reversed(range(len(value.messages))):
            condition = App(Prim("="), PairE(Var("x"), Const(j)))
            body = If(condition, reify(value.messages[j], _stack), body)
        return Fun("x", body)
    if isinstance(value, VRef):
        raise EvalError("cannot reify a mutable reference into a source term")
    if isinstance(value, VClosure):
        if id(value) in _stack:
            raise EvalError("cannot reify a recursive closure into a finite term")
        _stack = _stack | {id(value)}
        body = value.body
        for name in sorted(free_vars(value.body) - {value.param}):
            if name in value.env:
                body = substitute(body, name, reify(value.env[name], _stack))
        return Fun(value.param, body)
    if isinstance(value, VCompiledClosure):
        if id(value) in _stack:
            raise EvalError("cannot reify a recursive closure into a finite term")
        _stack = _stack | {id(value)}
        body = value.body
        # capture_names is sorted at compile time, matching the VClosure
        # branch's iteration order, so both engines reify to one term.
        for name, cell in zip(value.capture_names, value.cells):
            body = substitute(body, name, reify(cell, _stack))
        return Fun(value.param, body)
    raise TypeError(f"reify: unknown value {type(value).__name__}")


def to_python(value: Value):
    """Project a ground value to plain Python data (for tests/examples).

    Scalars map to themselves, pairs/tuples to Python tuples, ``nc ()`` to
    None, parallel vectors to a list; functions stay as-is.
    """
    if isinstance(value, (bool, int)):
        return value
    if isinstance(value, UnitType):
        return ()
    if isinstance(value, VNc):
        return None
    if isinstance(value, VPair):
        return (to_python(value.first), to_python(value.second))
    if isinstance(value, VInl):
        return ("inl", to_python(value.value))
    if isinstance(value, VInr):
        return ("inr", to_python(value.value))
    if isinstance(value, VTuple):
        return tuple(to_python(item) for item in value.items)
    if isinstance(value, VParVec):
        return [to_python(item) for item in value.items]
    return value
