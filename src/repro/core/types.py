"""The type algebra of the paper (section 4).

Simple types::

    tau ::= kappa            base type (bool, int, unit, ...)
          | alpha            type variable
          | tau1 -> tau2     function type
          | tau1 * tau2      pair type
          | (tau par)        parallel vector type

plus, as the extension sketched in the paper's conclusion, n-ary tuple
types ``tau1 * ... * taun`` for n >= 3 (:class:`TTuple`).

Types are immutable; substitution produces new types.  Display follows
OCaml conventions: variables print as ``'a``, ``'b``, ... in order of first
appearance.

Type nodes are **hash-consed**: the :class:`_InternMeta` metaclass keeps a
per-class pool so that structurally identical nodes are one object.  The
classes therefore use identity equality and identity hashing (``eq=False``)
— equality checks and dictionary/set operations on types are pointer-fast,
and the solver caches of :mod:`repro.core.constraints` can key directly on
nodes without ever hashing a deep structure.  The pools hold their entries
weakly, so types no longer referenced anywhere are reclaimed.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Tuple
from weakref import KeyedRef, WeakValueDictionary


#: Every class carrying a hash-cons pool, in definition order — the type
#: nodes below and the constraint nodes of :mod:`repro.core.constraints`.
#: :func:`intern_pool_stats` reports their live sizes.
_INTERNED_CLASSES: list = []


class _InternMeta(type):
    """Hash-consing metaclass: structurally equal nodes are one object.

    Nodes are deduplicated against a per-class weak pool keyed on their
    field values.  Children are interned before their parents, so pool
    lookups hash and compare child fields by identity — O(#fields), not
    O(size).

    The common call — positional arguments only, all hashable — looks
    the pool's underlying ``dict`` of weak references up by the argument
    tuple itself before building anything: a hit returns the pooled
    node without constructing a throwaway instance.  A miss builds the
    node (running ``__post_init__`` validation) and stores a
    ``KeyedRef`` to it straight into that ``dict`` under a per-class
    lock, looking the pool up again inside the lock, so two threads
    interning one structure concurrently always get the same object.
    Hits take no lock.  Whether the arguments themselves are the key —
    one per field and no ``__post_init__`` — is worked out once per
    class, on its first miss.  Keyword arguments, unhashable arguments
    and classes with ``__post_init__`` take the general path: build
    first, then key on the built node's field values.  The pool stays a
    ``WeakValueDictionary``: its callback drops a dead node's entry, so
    ``len`` counts live nodes.
    """

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        cls._intern_pool = WeakValueDictionary()
        cls._intern_refs = cls._intern_pool.data
        cls._intern_lock = threading.Lock()
        # Set on the first miss (dataclass fields do not exist yet):
        # the argument count that makes the arguments the pool key, or
        # -1 when ``__post_init__`` rules that out.
        cls._intern_arity = None
        _INTERNED_CLASSES.append(cls)
        return cls

    def __call__(cls, *args, **kwargs):
        if not kwargs:
            try:
                ref = cls._intern_refs.get(args)
            except TypeError:  # an unhashable argument
                pass
            else:
                if ref is not None:
                    node = ref()
                    if node is not None:
                        return node
                node = super().__call__(*args)
                arity = cls._intern_arity
                if arity is None:
                    arity = cls._intern_arity = (
                        -1
                        if hasattr(cls, "__post_init__")
                        else len(cls.__dataclass_fields__)
                    )
                return cls._intern(node, args if len(args) == arity else None)
        return cls._intern(super().__call__(*args, **kwargs))

    def _intern(cls, node, key=None):
        """Pool ``node`` under ``key`` (default: its field values) unless
        another thread pooled an equal node first; return the survivor."""
        if key is None:
            key = tuple(getattr(node, name) for name in cls.__dataclass_fields__)
        refs = cls._intern_refs
        with cls._intern_lock:
            ref = refs.get(key)
            if ref is not None:
                interned = ref()
                if interned is not None:
                    return interned
            refs[key] = KeyedRef(node, cls._intern_pool._remove, key)
        return node


@dataclass(frozen=True, eq=False)
class Type(metaclass=_InternMeta):
    """Base class of simple types.

    Instances are interned (see :class:`_InternMeta`): ``==`` and ``hash``
    are identity-based, which coincides with structural equality because
    every construction path yields the pooled representative.
    """

    #: The node's free variables (not a field: set by
    #: :func:`free_type_vars` on first use, invisible to equality,
    #: hashing and ``repr``).
    _fv = None

    def children(self) -> Tuple["Type", ...]:
        return ()

    def walk(self) -> Iterator["Type"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def __str__(self) -> str:
        return render_type(self)


@dataclass(frozen=True, eq=False)
class TBase(Type):
    """A base type ``kappa``: ``int``, ``bool`` or ``unit``."""

    name: str


@dataclass(frozen=True, eq=False)
class TVar(Type):
    """A type variable ``alpha``.

    Names are globally unique strings produced by :func:`fresh_tvar`; the
    pretty-printer maps them to ``'a``, ``'b``, ... for display.
    """

    name: str


@dataclass(frozen=True, eq=False)
class TArrow(Type):
    """A function type ``domain -> codomain``."""

    domain: Type
    codomain: Type

    def children(self) -> Tuple[Type, ...]:
        return (self.domain, self.codomain)


@dataclass(frozen=True, eq=False)
class TPair(Type):
    """A pair type ``first * second``."""

    first: Type
    second: Type

    def children(self) -> Tuple[Type, ...]:
        return (self.first, self.second)


@dataclass(frozen=True, eq=False)
class TTuple(Type):
    """An n-ary tuple type, n >= 3 (extension beyond the paper)."""

    items: Tuple[Type, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 3:
            raise ValueError("TTuple needs >= 3 items; use TPair for 2")

    def children(self) -> Tuple[Type, ...]:
        return self.items


@dataclass(frozen=True, eq=False)
class TSum(Type):
    """A binary sum type ``(left, right) sum`` (extension, paper sec. 6)."""

    left: Type
    right: Type

    def children(self) -> Tuple[Type, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class TRef(Type):
    """A mutable reference type ``content ref`` (imperative extension,
    paper section 6)."""

    content: Type

    def children(self) -> Tuple[Type, ...]:
        return (self.content,)


@dataclass(frozen=True, eq=False)
class TPar(Type):
    """A parallel vector type ``(content par)``."""

    content: Type

    def children(self) -> Tuple[Type, ...]:
        return (self.content,)


def intern_pool_stats() -> Dict[str, int]:
    """Live-entry counts of every hash-cons pool, keyed by class name.

    Covers every :class:`_InternMeta` class — the type nodes here and
    the constraint nodes of :mod:`repro.core.constraints`.  The pools
    hold entries weakly, so a count is the number of *live* nodes; the
    bounded solver caches (see :mod:`repro.perf.memo`) are what keeps
    these counts bounded over a server lifetime, and the service's
    ``/v1/stats`` endpoint reports them.
    """
    return {cls.__name__: len(cls._intern_pool) for cls in _INTERNED_CLASSES}


#: The base types of mini-BSML.
INT = TBase("int")
BOOL = TBase("bool")
UNIT_TYPE = TBase("unit")


_fresh_counter = itertools.count()


def fresh_tvar(hint: str = "t") -> TVar:
    """A globally fresh type variable; ``hint`` aids debugging only."""
    return TVar(f"{hint}{next(_fresh_counter)}")


def arrow(*types: Type) -> Type:
    """Right-nested arrows: ``arrow(a, b, c)`` is ``a -> (b -> c)``."""
    if not types:
        raise ValueError("arrow needs at least one type")
    result = types[-1]
    for ty in reversed(types[:-1]):
        result = TArrow(ty, result)
    return result


#: The free variables of every ground node: one shared empty set.
NO_VARS: FrozenSet[str] = frozenset()


def union_vars(sets: Iterable[FrozenSet[str]]) -> FrozenSet[str]:
    """The union of ``sets``, sharing an operand when it is the whole
    union (a single non-empty set, or none: :data:`NO_VARS`)."""
    result = NO_VARS
    for names in sets:
        if not names or names is result:
            continue
        result = names if not result else result | names
    return result


def free_type_vars(ty: Type) -> FrozenSet[str]:
    """Names of the type variables occurring in ``ty``.

    Computed once per interned node from its children's sets and
    stored on the node, so a repeat costs one attribute read.  The walk
    is iterative: it visits only the nodes not yet computed, children
    first.
    """
    fv = ty._fv
    if fv is not None:
        return fv
    stack = [ty]
    while stack:
        node = stack[-1]
        if node._fv is not None:
            stack.pop()
            continue
        if isinstance(node, TVar):
            fv = frozenset((node.name,))
        else:
            children = node.children()
            pending = [child for child in children if child._fv is None]
            if pending:
                stack.extend(pending)
                continue
            fv = union_vars(child._fv for child in children)
        object.__setattr__(node, "_fv", fv)
        stack.pop()
    return ty._fv


def apply_type_subst(mapping: Dict[str, Type], ty: Type) -> Type:
    """Apply a variable -> type mapping throughout ``ty``."""
    if isinstance(ty, TVar):
        return mapping.get(ty.name, ty)
    if isinstance(ty, TBase):
        return ty
    if isinstance(ty, TArrow):
        return TArrow(
            apply_type_subst(mapping, ty.domain),
            apply_type_subst(mapping, ty.codomain),
        )
    if isinstance(ty, TPair):
        return TPair(
            apply_type_subst(mapping, ty.first),
            apply_type_subst(mapping, ty.second),
        )
    if isinstance(ty, TTuple):
        return TTuple(tuple(apply_type_subst(mapping, item) for item in ty.items))
    if isinstance(ty, TSum):
        return TSum(
            apply_type_subst(mapping, ty.left),
            apply_type_subst(mapping, ty.right),
        )
    if isinstance(ty, TRef):
        return TRef(apply_type_subst(mapping, ty.content))
    if isinstance(ty, TPar):
        return TPar(apply_type_subst(mapping, ty.content))
    raise TypeError(f"apply_type_subst: unknown type node {type(ty).__name__}")


def occurs_in(var_name: str, ty: Type) -> bool:
    """True when the variable named ``var_name`` occurs in ``ty``."""
    return any(isinstance(node, TVar) and node.name == var_name for node in ty.walk())


def contains_par(ty: Type) -> bool:
    """True when a parallel vector type occurs anywhere in ``ty``."""
    return any(isinstance(node, TPar) for node in ty.walk())


def has_nested_par(ty: Type) -> bool:
    """True when a ``par`` occurs *inside* another ``par`` — the shape the
    paper's type system must never let a well-typed program produce."""
    def inside(node: Type, under_par: bool) -> bool:
        if isinstance(node, TPar):
            if under_par:
                return True
            under_par = True
        return any(inside(child, under_par) for child in node.children())

    return inside(ty, False)


# -- rendering -----------------------------------------------------------

_GREEK = "abcdefghijklmnopqrstuvwxyz"


def _variable_display_names(ty: Type) -> Dict[str, str]:
    names: Dict[str, str] = {}
    for node in ty.walk():
        if isinstance(node, TVar) and node.name not in names:
            index = len(names)
            if index < len(_GREEK):
                names[node.name] = f"'{_GREEK[index]}"
            else:
                names[node.name] = f"'a{index}"
    return names


def render_type(ty: Type, names: Dict[str, str] | None = None) -> str:
    """Render ``ty`` in OCaml style, e.g. ``('a -> 'b) par * int``.

    ``names`` optionally fixes the display name of each variable; by
    default variables display as ``'a``, ``'b``, ... in first-appearance
    order within ``ty``.
    """
    if names is None:
        names = _variable_display_names(ty)
    return _render(ty, names, 0)


# Precedence: arrow 1 (right assoc), pair/tuple 2, par 3, atom 4.


def _render(ty: Type, names: Dict[str, str], min_prec: int) -> str:
    if isinstance(ty, TBase):
        return ty.name
    if isinstance(ty, TVar):
        return names.get(ty.name, f"'{ty.name}")
    if isinstance(ty, TArrow):
        text = f"{_render(ty.domain, names, 2)} -> {_render(ty.codomain, names, 1)}"
        return f"({text})" if min_prec > 1 else text
    if isinstance(ty, TPair):
        text = f"{_render(ty.first, names, 3)} * {_render(ty.second, names, 3)}"
        return f"({text})" if min_prec > 2 else text
    if isinstance(ty, TTuple):
        text = " * ".join(_render(item, names, 3) for item in ty.items)
        return f"({text})" if min_prec > 2 else text
    if isinstance(ty, TSum):
        text = (
            f"({_render(ty.left, names, 0)}, {_render(ty.right, names, 0)}) sum"
        )
        return text
    if isinstance(ty, TRef):
        text = f"{_render(ty.content, names, 3)} ref"
        return f"({text})" if min_prec > 3 else text
    if isinstance(ty, TPar):
        # Postfix constructors chain without parentheses: ``int par par``.
        text = f"{_render(ty.content, names, 3)} par"
        return f"({text})" if min_prec > 3 else text
    raise TypeError(f"render_type: unknown type node {type(ty).__name__}")
