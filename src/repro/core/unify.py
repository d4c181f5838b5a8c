"""First-order unification over the simple-type algebra.

Standard Robinson unification with an occurs check.  Unification itself is
constraint-agnostic: locality constraints are pushed through the resulting
substitution by :meth:`repro.core.schemes.Subst.apply_constrained`
(Definition 1) at the call sites in the inference algorithm.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import obs, perf
from repro.core.errors import OccursCheckError, UnificationError
from repro.core.schemes import Subst
from repro.core.types import (
    TArrow,
    TBase,
    TPair,
    TPar,
    TRef,
    TSum,
    TTuple,
    TVar,
    Type,
    occurs_in,
)
from repro.lang.ast import Loc


def unify(left: Type, right: Type, loc: Optional[Loc] = None) -> Subst:
    """The most general unifier of ``left`` and ``right``.

    Raises :class:`UnificationError` on a constructor clash and
    :class:`OccursCheckError` on a cyclic solution.
    """
    tracing = obs.window_open()
    started = time.perf_counter() if tracing else 0.0
    subst = Subst.identity()
    stack = [(left, right)]
    steps = 0
    while stack:
        steps += 1
        a, b = stack.pop()
        a = subst.apply_type(a)
        b = subst.apply_type(b)
        if a == b:
            continue
        if isinstance(a, TVar):
            subst = _bind(a.name, b, subst, loc)
            continue
        if isinstance(b, TVar):
            subst = _bind(b.name, a, subst, loc)
            continue
        if isinstance(a, TBase) and isinstance(b, TBase):
            if a.name != b.name:
                raise UnificationError(a, b, loc)
            continue
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            stack.append((a.codomain, b.codomain))
            stack.append((a.domain, b.domain))
            continue
        if isinstance(a, TPair) and isinstance(b, TPair):
            stack.append((a.second, b.second))
            stack.append((a.first, b.first))
            continue
        if isinstance(a, TTuple) and isinstance(b, TTuple):
            if len(a.items) != len(b.items):
                raise UnificationError(a, b, loc)
            stack.extend(zip(a.items, b.items))
            continue
        if isinstance(a, TSum) and isinstance(b, TSum):
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
            continue
        if isinstance(a, TPar) and isinstance(b, TPar):
            stack.append((a.content, b.content))
            continue
        if isinstance(a, TRef) and isinstance(b, TRef):
            stack.append((a.content, b.content))
            continue
        raise UnificationError(a, b, loc)
    if perf.is_collecting():
        perf.increment("unify.calls")
        perf.increment("unify.steps", steps)
    if tracing:
        obs.record(
            "unify",
            obs.INFERENCE_TRACK,
            started,
            time.perf_counter() - started,
            steps=steps,
        )
    return subst


def _bind(var: str, ty: Type, subst: Subst, loc: Optional[Loc]) -> Subst:
    if isinstance(ty, TVar) and ty.name == var:
        return subst
    if occurs_in(var, ty):
        raise OccursCheckError(var, ty, loc)
    return Subst.single(var, ty).compose(subst)


def unifiable(left: Type, right: Type) -> bool:
    """True when the two types have a unifier."""
    try:
        unify(left, right)
        return True
    except (UnificationError, OccursCheckError):
        return False
