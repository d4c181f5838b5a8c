"""Free variables and capture-avoiding substitution on mini-BSML terms.

The small-step rules of the paper are all stated with the substitution
``e[x <- v]``; this module provides it, together with the free-variable
function ``F`` used as a side condition by the ``put`` rule (Figure 2) and
an alpha-equivalence test used throughout the test suite.
"""

from __future__ import annotations

from itertools import count
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator

from repro import perf

from repro.lang.ast import (
    Annot,
    App,
    Case,
    Const,
    Expr,
    Fun,
    If,
    IfAt,
    Inl,
    Inr,
    Let,
    Pair,
    ParVec,
    Prim,
    Tuple,
    Var,
)


def free_vars(expr: Expr) -> FrozenSet[str]:
    """The set of free variables of ``expr`` (the paper's ``F(e)``).

    Memoized on node identity: AST nodes are immutable (frozen
    dataclasses), so a node's free-variable set never changes, and the
    small-step machine asks for the same subterms' sets over and over
    while rewriting around them.  The cache rides on the node itself
    (an ``object.__setattr__`` side-channel, like source locations), so
    it lives exactly as long as the node and subterm sharing after
    substitution shares the cached sets too.  Hit rates surface as the
    ``lang.free_vars`` perf counters.
    """
    cached = getattr(expr, "_free_vars_cache", None)
    if cached is not None:
        perf.increment("lang.free_vars.hit")
        return cached
    perf.increment("lang.free_vars.miss")
    result = _free_vars_of(expr)
    object.__setattr__(expr, "_free_vars_cache", result)
    return result


def _free_vars_of(expr: Expr) -> FrozenSet[str]:
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, (Const, Prim)):
        return frozenset()
    if isinstance(expr, Fun):
        return free_vars(expr.body) - {expr.param}
    if isinstance(expr, Let):
        return free_vars(expr.bound) | (free_vars(expr.body) - {expr.name})
    if isinstance(expr, Case):
        return (
            free_vars(expr.scrutinee)
            | (free_vars(expr.left_body) - {expr.left_name})
            | (free_vars(expr.right_body) - {expr.right_name})
        )
    result: FrozenSet[str] = frozenset()
    for child in expr.children():
        result |= free_vars(child)
    return result


def _fresh_names(avoid: AbstractSet[str], base: str) -> Iterator[str]:
    """Yield names derived from ``base`` that are not in ``avoid``."""
    root = base.rstrip("0123456789'") or "x"
    for i in count(1):
        candidate = f"{root}'{i}"
        if candidate not in avoid:
            yield candidate


def fresh_name(avoid: AbstractSet[str], base: str = "x") -> str:
    """A single fresh name derived from ``base`` avoiding ``avoid``."""
    return next(_fresh_names(avoid, base))


def substitute(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-avoiding substitution ``expr[name <- replacement]``.

    Binders shadow: substitution stops below a ``fun`` or ``let`` that
    rebinds ``name``.  When a binder would capture a free variable of
    ``replacement``, the binder is alpha-renamed first.
    """
    repl_free = free_vars(replacement)
    return _subst(expr, name, replacement, repl_free)


def _subst(expr: Expr, name: str, repl: Expr, repl_free: AbstractSet[str]) -> Expr:
    if isinstance(expr, Var):
        return repl if expr.name == name else expr
    if isinstance(expr, (Const, Prim)):
        return expr
    if isinstance(expr, Fun):
        if expr.param == name:
            return expr
        if expr.param in repl_free and name in free_vars(expr.body):
            avoid = repl_free | free_vars(expr.body) | {name}
            renamed = fresh_name(avoid, expr.param)
            body = _subst(expr.body, expr.param, Var(renamed), frozenset((renamed,)))
            return Fun(renamed, _subst(body, name, repl, repl_free))
        return Fun(expr.param, _subst(expr.body, name, repl, repl_free))
    if isinstance(expr, Let):
        bound = _subst(expr.bound, name, repl, repl_free)
        if expr.name == name:
            return Let(expr.name, bound, expr.body)
        if expr.name in repl_free and name in free_vars(expr.body):
            avoid = repl_free | free_vars(expr.body) | {name}
            renamed = fresh_name(avoid, expr.name)
            body = _subst(expr.body, expr.name, Var(renamed), frozenset((renamed,)))
            return Let(renamed, bound, _subst(body, name, repl, repl_free))
        return Let(expr.name, bound, _subst(expr.body, name, repl, repl_free))
    if isinstance(expr, App):
        return App(
            _subst(expr.fn, name, repl, repl_free),
            _subst(expr.arg, name, repl, repl_free),
        )
    if isinstance(expr, Pair):
        return Pair(
            _subst(expr.first, name, repl, repl_free),
            _subst(expr.second, name, repl, repl_free),
        )
    if isinstance(expr, Tuple):
        return Tuple(tuple(_subst(item, name, repl, repl_free) for item in expr.items))
    if isinstance(expr, If):
        return If(
            _subst(expr.cond, name, repl, repl_free),
            _subst(expr.then_branch, name, repl, repl_free),
            _subst(expr.else_branch, name, repl, repl_free),
        )
    if isinstance(expr, IfAt):
        return IfAt(
            _subst(expr.vec, name, repl, repl_free),
            _subst(expr.proc, name, repl, repl_free),
            _subst(expr.then_branch, name, repl, repl_free),
            _subst(expr.else_branch, name, repl, repl_free),
        )
    if isinstance(expr, ParVec):
        return ParVec(tuple(_subst(item, name, repl, repl_free) for item in expr.items))
    if isinstance(expr, Annot):
        return Annot(_subst(expr.expr, name, repl, repl_free), expr.annotation)
    if isinstance(expr, Inl):
        return Inl(_subst(expr.value, name, repl, repl_free))
    if isinstance(expr, Inr):
        return Inr(_subst(expr.value, name, repl, repl_free))
    if isinstance(expr, Case):
        scrutinee = _subst(expr.scrutinee, name, repl, repl_free)
        left_name, left_body = _subst_branch(
            expr.left_name, expr.left_body, name, repl, repl_free
        )
        right_name, right_body = _subst_branch(
            expr.right_name, expr.right_body, name, repl, repl_free
        )
        return Case(scrutinee, left_name, left_body, right_name, right_body)
    raise TypeError(f"substitute: unknown expression node {type(expr).__name__}")


def _subst_branch(binder, body, name, repl, repl_free):
    """Substitute under one case branch, renaming its binder if needed."""
    if binder == name:
        return binder, body
    if binder in repl_free and name in free_vars(body):
        avoid = repl_free | free_vars(body) | {name}
        renamed = fresh_name(avoid, binder)
        body = _subst(body, binder, Var(renamed), frozenset((renamed,)))
        binder = renamed
    return binder, _subst(body, name, repl, repl_free)


def substitute_many(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Simultaneous substitution of several variables, applied sequentially.

    The mapping's replacements must be closed (no free variables), which is
    the only case the evaluator needs; this makes sequential application
    equivalent to simultaneous substitution.
    """
    for replacement in mapping.values():
        if free_vars(replacement):
            raise ValueError("substitute_many requires closed replacements")
    result = expr
    for name, replacement in mapping.items():
        result = substitute(result, name, replacement)
    return result


def alpha_equal(left: Expr, right: Expr) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha(left, right, {}, {})


def _alpha(
    left: Expr,
    right: Expr,
    left_env: Dict[str, int],
    right_env: Dict[str, int],
) -> bool:
    if isinstance(left, Var) and isinstance(right, Var):
        left_level = left_env.get(left.name)
        right_level = right_env.get(right.name)
        if left_level is None and right_level is None:
            return left.name == right.name
        return left_level == right_level
    if type(left) is not type(right):
        return False
    if isinstance(left, (Const, Prim)):
        return left == right
    if isinstance(left, Fun):
        assert isinstance(right, Fun)
        level = len(left_env) + len(right_env)
        return _alpha(
            left.body,
            right.body,
            {**left_env, left.param: level},
            {**right_env, right.param: level},
        )
    if isinstance(left, Let):
        assert isinstance(right, Let)
        if not _alpha(left.bound, right.bound, left_env, right_env):
            return False
        level = len(left_env) + len(right_env)
        return _alpha(
            left.body,
            right.body,
            {**left_env, left.name: level},
            {**right_env, right.name: level},
        )
    if isinstance(left, Annot):
        assert isinstance(right, Annot)
        if left.annotation != right.annotation:
            return False
        return _alpha(left.expr, right.expr, left_env, right_env)
    if isinstance(left, Case):
        assert isinstance(right, Case)
        if not _alpha(left.scrutinee, right.scrutinee, left_env, right_env):
            return False
        level = len(left_env) + len(right_env)
        return _alpha(
            left.left_body,
            right.left_body,
            {**left_env, left.left_name: level},
            {**right_env, right.left_name: level},
        ) and _alpha(
            left.right_body,
            right.right_body,
            {**left_env, left.right_name: level},
            {**right_env, right.right_name: level},
        )
    left_children = left.children()
    right_children = right.children()
    if len(left_children) != len(right_children):
        return False
    return all(
        _alpha(lc, rc, left_env, right_env)
        for lc, rc in zip(left_children, right_children)
    )


def bound_names(expr: Expr) -> FrozenSet[str]:
    """All names bound anywhere inside ``expr`` (by ``fun`` or ``let``)."""
    names: set = set()
    for node in expr.walk():
        if isinstance(node, Fun):
            names.add(node.param)
        elif isinstance(node, Let):
            names.add(node.name)
        elif isinstance(node, Case):
            names.add(node.left_name)
            names.add(node.right_name)
    return frozenset(names)


def rename_apart(expr: Expr, avoid: Iterable[str]) -> Expr:
    """Rename every binder of ``expr`` apart from ``avoid`` and each other.

    Useful before mixing terms from different sources into one program.
    """
    taken = set(avoid) | set(free_vars(expr))

    def go(node: Expr) -> Expr:
        if isinstance(node, Fun):
            new = node.param
            if new in taken:
                new = fresh_name(taken, node.param)
            taken.add(new)
            body = substitute(node.body, node.param, Var(new)) if new != node.param else node.body
            return Fun(new, go(body))
        if isinstance(node, Let):
            bound = go(node.bound)
            new = node.name
            if new in taken:
                new = fresh_name(taken, node.name)
            taken.add(new)
            body = substitute(node.body, node.name, Var(new)) if new != node.name else node.body
            return Let(new, bound, go(body))
        if isinstance(node, (Var, Const, Prim)):
            return node
        if isinstance(node, App):
            return App(go(node.fn), go(node.arg))
        if isinstance(node, Pair):
            return Pair(go(node.first), go(node.second))
        if isinstance(node, Tuple):
            return Tuple(tuple(go(item) for item in node.items))
        if isinstance(node, If):
            return If(go(node.cond), go(node.then_branch), go(node.else_branch))
        if isinstance(node, IfAt):
            return IfAt(go(node.vec), go(node.proc), go(node.then_branch), go(node.else_branch))
        if isinstance(node, ParVec):
            return ParVec(tuple(go(item) for item in node.items))
        if isinstance(node, Annot):
            return Annot(go(node.expr), node.annotation)
        if isinstance(node, Inl):
            return Inl(go(node.value))
        if isinstance(node, Inr):
            return Inr(go(node.value))
        if isinstance(node, Case):
            scrutinee = go(node.scrutinee)

            def branch(binder, body):
                new = binder
                if new in taken:
                    new = fresh_name(taken, binder)
                taken.add(new)
                if new != binder:
                    body = substitute(body, binder, Var(new))
                return new, go(body)

            left_name, left_body = branch(node.left_name, node.left_body)
            right_name, right_body = branch(node.right_name, node.right_body)
            return Case(scrutinee, left_name, left_body, right_name, right_body)
        raise TypeError(f"rename_apart: unknown node {type(node).__name__}")

    return go(expr)
