"""Constraint-accumulating type inference for mini-BSML (Figure 7).

This is the algorithm the paper mentions having "designed and implemented"
for its deductive system: an Algorithm-W-style traversal that, alongside
the usual unification, carries a locality constraint ``C`` and fails as
soon as ``Solve(C) = False`` (the rule's side condition).

Every application of a substitution to a constrained type goes through
:meth:`repro.core.schemes.Subst.apply_constrained`, i.e. Definition 1 —
atoms are rewritten to the locality formulas of the images *and* the
images' basic constraints are conjoined.  This is what makes the
instantiation ``fst : (int * int par) -> int`` carry
``L(int) => L(int par) = False`` and reject the fourth projection of
section 2.1.

The entry points also build :class:`Derivation` trees so the worked
judgements of Figures 8, 9 and 10 can be rendered verbatim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro import obs, perf
from repro.core.constraints import (
    FALSE,
    Constraint,
    basic_constraint,
    conj,
    imp,
    is_unsatisfiable,
    locality,
)
from repro.core.errors import (
    NestingError,
    TypingError,
    UnboundVariableError,
    UnknownPrimitiveError,
)
from repro.core.initial_env import constant_scheme, primitive_scheme
from repro.core.normalize import prune_constrained
from repro.core.schemes import (
    ConstrainedType,
    Subst,
    TypeEnv,
    TypeScheme,
    generalize,
    instantiate,
    mono,
)
from repro.core.types import (
    BOOL,
    INT,
    TArrow,
    TBase,
    TPair,
    TPar,
    TRef,
    TSum,
    TTuple,
    TVar,
    Type,
    fresh_tvar,
)
from repro.core.unify import unify
from repro.lang.limits import deep_recursion
from repro.lang.type_syntax import (
    TEArrow,
    TEBase,
    TEPar,
    TEProduct,
    TERef,
    TESum,
    TEVar,
    TypeExpr,
)
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
    Tuple as TupleE,
    Var,
)


@dataclass
class Derivation:
    """A node of a typing derivation (one rule application).

    ``conclusion`` is None when the rule's constraint was unsatisfiable —
    the paper writes those conclusions as ``?`` in Figures 8 and 10.
    The conclusions hold the types as known *at that point of inference*;
    :meth:`resolve` refines them with the final substitution so a finished
    tree displays fully solved types, like the paper's figures.
    """

    rule: str
    expr: Expr
    conclusion: Optional[ConstrainedType]
    premises: Tuple["Derivation", ...] = ()
    note: str = ""

    def resolve(self, subst: Subst) -> "Derivation":
        conclusion = (
            subst.apply_constrained(self.conclusion)
            if self.conclusion is not None
            else None
        )
        return Derivation(
            self.rule,
            self.expr,
            conclusion,
            tuple(premise.resolve(subst) for premise in self.premises),
            self.note,
        )


class Inferencer:
    """Shared state (the global substitution) of one inference run.

    ``prune=True`` existentially eliminates, at each ``let`` boundary,
    constraint atoms over variables that neither the type nor the
    environment can reach anymore (see :mod:`repro.core.normalize`).
    Pruning never changes which programs are accepted; it only keeps the
    carried constraints small.  The figure-rendering entry point disables
    it to match the paper's derivations literally.
    """

    def __init__(self, prune: bool = True) -> None:
        self.subst = Subst.identity()
        self.prune = prune

    # -- helpers ----------------------------------------------------------

    def _resolve(self, ct: ConstrainedType) -> ConstrainedType:
        return self.subst.apply_constrained(ct)

    def _unify(self, left: Type, right: Type, expr: Expr) -> None:
        extra = unify(self.subst.apply_type(left), self.subst.apply_type(right), expr.loc)
        self.subst = extra.compose(self.subst)

    def _check(
        self,
        rule: str,
        expr: Expr,
        ct: ConstrainedType,
        premises: Tuple[Derivation, ...],
        note: str = "",
    ) -> Tuple[ConstrainedType, Derivation]:
        """Fail the rule if its constraint is unsatisfiable (Solve = False)."""
        resolved = self._resolve(ct)
        if solve_fails(resolved.constraint):
            failure = Derivation(rule, expr, None, premises, note)
            raise_nesting(rule, expr, resolved, failure)
        return resolved, Derivation(rule, expr, resolved, premises, note)

    # -- the rules of Figure 7 --------------------------------------------

    def infer(self, env: TypeEnv, expr: Expr) -> Tuple[ConstrainedType, Derivation]:
        if obs.window_open():
            # One span per typing judgment inside a trace window, nested
            # by the recursion on the ``inference`` track; the applied
            # rule name is attached once the premise sub-derivations
            # have returned.  Counting windows derive infer.nodes from it.
            with obs.span(
                "judgment", obs.INFERENCE_TRACK, node=type(expr).__name__
            ) as extra:
                ct, derivation = self._infer_node(env, expr)
                extra["rule"] = derivation.rule
                return ct, derivation
        perf.increment("infer.nodes")
        return self._infer_node(env, expr)

    def _infer_node(
        self, env: TypeEnv, expr: Expr
    ) -> Tuple[ConstrainedType, Derivation]:
        if isinstance(expr, Var):
            scheme = env.lookup(expr.name)
            if scheme is None:
                raise UnboundVariableError(expr.name, expr.loc)
            return self._check("Var", expr, instantiate(scheme), ())
        if isinstance(expr, Const):
            return self._check("Const", expr, instantiate(constant_scheme(expr)), ())
        if isinstance(expr, Prim):
            scheme = primitive_scheme(expr.name)
            if scheme is None:
                raise UnknownPrimitiveError(expr.name, expr.loc)
            return self._check("Op", expr, instantiate(scheme), ())
        if isinstance(expr, Fun):
            return self._infer_fun(env, expr)
        if isinstance(expr, App):
            return self._infer_app(env, expr)
        if isinstance(expr, Let):
            return self._infer_let(env, expr)
        if isinstance(expr, Pair):
            return self._infer_pair(env, expr)
        if isinstance(expr, TupleE):
            return self._infer_tuple(env, expr)
        if isinstance(expr, If):
            return self._infer_if(env, expr)
        if isinstance(expr, IfAt):
            return self._infer_ifat(env, expr)
        if isinstance(expr, Annot):
            return self._infer_annot(env, expr)
        if isinstance(expr, Inl):
            return self._infer_injection(env, expr, left=True)
        if isinstance(expr, Inr):
            return self._infer_injection(env, expr, left=False)
        if isinstance(expr, Case):
            return self._infer_case(env, expr)
        if isinstance(expr, ParVec):
            return self._infer_parvec(env, expr)
        raise TypingError(f"cannot type expression node {type(expr).__name__}", expr.loc)

    def _infer_annot(self, env: TypeEnv, expr: Annot):
        """(Annot) — type ascription ``(e : ty)``: unify and carry the
        annotation's basic constraints (a malformed annotation such as
        ``int par par`` is itself rejected)."""
        inner_ct, inner_d = self.infer(env, expr.expr)
        annotation = type_expr_to_type(expr.annotation)
        self._unify(inner_ct.type, annotation, expr)
        inner_ct = self._resolve(inner_ct)
        ct = ConstrainedType(
            inner_ct.type,
            conj(
                inner_ct.constraint,
                basic_constraint(self.subst.apply_type(annotation)),
            ),
        )
        note = f"annotation: {expr.annotation}"
        return self._check("Annot", expr, ct, (inner_d,), note)

    def _infer_injection(self, env: TypeEnv, expr, left: bool):
        """(Inl)/(Inr) — sum-type extension (paper section 6).

        The payload's constraint is carried; the unknown side is a fresh
        variable, constrained later by unification like any other type.
        """
        value_ct, value_d = self.infer(env, expr.value)
        other = fresh_tvar("s")
        ty = TSum(value_ct.type, other) if left else TSum(other, value_ct.type)
        rule = "Inl" if left else "Inr"
        return self._check(rule, expr, ConstrainedType(ty, value_ct.constraint), (value_d,))

    def _infer_case(self, env: TypeEnv, expr: Case):
        """(Case) — sum elimination (extension).

        Mirrors (Let)'s protection: the conclusion conjoins
        ``L(tau_result) => L(tau_scrutinee)`` so a vector cannot be hidden
        in a discarded branch of the scrutinee (the ``snd (mkpar ..., 1)``
        situation transposed to sums).
        """
        left_ty = fresh_tvar("sl")
        right_ty = fresh_tvar("sr")
        scrut_ct, scrut_d = self.infer(env, expr.scrutinee)
        self._unify(scrut_ct.type, TSum(left_ty, right_ty), expr.scrutinee)
        left_env = env.apply(self.subst).extend(
            expr.left_name, mono(self.subst.apply_type(left_ty))
        )
        left_ct, left_d = self.infer(left_env, expr.left_body)
        right_env = env.apply(self.subst).extend(
            expr.right_name, mono(self.subst.apply_type(right_ty))
        )
        right_ct, right_d = self.infer(right_env, expr.right_body)
        self._unify(left_ct.type, right_ct.type, expr)
        scrut_ct = self._resolve(scrut_ct)
        left_ct = self._resolve(left_ct)
        right_ct = self._resolve(right_ct)
        ct = ConstrainedType(
            left_ct.type,
            conj(
                scrut_ct.constraint,
                left_ct.constraint,
                right_ct.constraint,
                imp(locality(left_ct.type), locality(scrut_ct.type)),
            ),
        )
        return self._check("Case", expr, ct, (scrut_d, left_d, right_d))

    def _infer_fun(self, env: TypeEnv, expr: Fun) -> Tuple[ConstrainedType, Derivation]:
        param_ty = fresh_tvar("p")
        body_ct, body_d = self.infer(env.extend(expr.param, mono(param_ty)), expr.body)
        arrow = TArrow(self.subst.apply_type(param_ty), body_ct.type)
        constraint = conj(basic_constraint(arrow), body_ct.constraint)
        return self._check("Fun", expr, ConstrainedType(arrow, constraint), (body_d,))

    def _infer_app(self, env: TypeEnv, expr: App) -> Tuple[ConstrainedType, Derivation]:
        fn_ct, fn_d = self.infer(env, expr.fn)
        arg_ct, arg_d = self.infer(env.apply(self.subst), expr.arg)
        result_ty = fresh_tvar("r")
        self._unify(fn_ct.type, TArrow(arg_ct.type, result_ty), expr)
        fn_ct = self._resolve(fn_ct)
        arg_ct = self._resolve(arg_ct)
        ct = ConstrainedType(
            self.subst.apply_type(result_ty),
            conj(fn_ct.constraint, arg_ct.constraint),
        )
        return self._check("App", expr, ct, (fn_d, arg_d))

    def _infer_let(self, env: TypeEnv, expr: Let) -> Tuple[ConstrainedType, Derivation]:
        bound_ct, bound_d = self.infer(env, expr.bound)
        bound_ct = self._resolve(bound_ct)
        inner_env = env.apply(self.subst)
        if self.prune:
            bound_ct = prune_constrained(bound_ct, inner_env.free_vars())
        scheme = generalize(bound_ct, inner_env)
        body_ct, body_d = self.infer(inner_env.extend(expr.name, scheme), expr.body)
        bound_ct = self._resolve(bound_ct)
        constraint = conj(
            bound_ct.constraint,
            body_ct.constraint,
            imp(locality(body_ct.type), locality(bound_ct.type)),
        )
        ct = ConstrainedType(body_ct.type, constraint)
        if self.prune:
            ct = prune_constrained(ct, inner_env.free_vars())
        note = f"{expr.name} : {scheme}"
        return self._check("Let", expr, ct, (bound_d, body_d), note)

    def _infer_pair(self, env: TypeEnv, expr: Pair) -> Tuple[ConstrainedType, Derivation]:
        first_ct, first_d = self.infer(env, expr.first)
        second_ct, second_d = self.infer(env.apply(self.subst), expr.second)
        first_ct = self._resolve(first_ct)
        ct = ConstrainedType(
            TPair(first_ct.type, second_ct.type),
            conj(first_ct.constraint, second_ct.constraint),
        )
        return self._check("Pair", expr, ct, (first_d, second_d))

    def _infer_tuple(self, env: TypeEnv, expr: TupleE) -> Tuple[ConstrainedType, Derivation]:
        premises = []
        types = []
        constraints = []
        for item in expr.items:
            item_ct, item_d = self.infer(env.apply(self.subst), item)
            premises.append(item_d)
            types.append(item_ct.type)
            constraints.append(item_ct.constraint)
        resolved = [self.subst.apply_type(ty) for ty in types]
        ct = ConstrainedType(TTuple(tuple(resolved)), conj(*constraints))
        return self._check("Tuple", expr, ct, tuple(premises))

    def _infer_if(self, env: TypeEnv, expr: If) -> Tuple[ConstrainedType, Derivation]:
        cond_ct, cond_d = self.infer(env, expr.cond)
        self._unify(cond_ct.type, BOOL, expr.cond)
        then_ct, then_d = self.infer(env.apply(self.subst), expr.then_branch)
        else_ct, else_d = self.infer(env.apply(self.subst), expr.else_branch)
        self._unify(then_ct.type, else_ct.type, expr)
        cond_ct = self._resolve(cond_ct)
        then_ct = self._resolve(then_ct)
        else_ct = self._resolve(else_ct)
        ct = ConstrainedType(
            then_ct.type,
            conj(cond_ct.constraint, then_ct.constraint, else_ct.constraint),
        )
        return self._check("Ifthenelse", expr, ct, (cond_d, then_d, else_d))

    def _infer_ifat(self, env: TypeEnv, expr: IfAt) -> Tuple[ConstrainedType, Derivation]:
        vec_ct, vec_d = self.infer(env, expr.vec)
        self._unify(vec_ct.type, TPar(BOOL), expr.vec)
        proc_ct, proc_d = self.infer(env.apply(self.subst), expr.proc)
        self._unify(proc_ct.type, INT, expr.proc)
        then_ct, then_d = self.infer(env.apply(self.subst), expr.then_branch)
        else_ct, else_d = self.infer(env.apply(self.subst), expr.else_branch)
        self._unify(then_ct.type, else_ct.type, expr)
        vec_ct = self._resolve(vec_ct)
        proc_ct = self._resolve(proc_ct)
        then_ct = self._resolve(then_ct)
        else_ct = self._resolve(else_ct)
        ct = ConstrainedType(
            then_ct.type,
            conj(
                vec_ct.constraint,
                proc_ct.constraint,
                then_ct.constraint,
                else_ct.constraint,
                imp(locality(then_ct.type), FALSE),
            ),
        )
        return self._check(
            "Ifat",
            expr,
            ct,
            (vec_d, proc_d, then_d, else_d),
            note="adds L(tau) => False: a synchronous conditional must return a global value",
        )

    def _infer_parvec(self, env: TypeEnv, expr: ParVec) -> Tuple[ConstrainedType, Derivation]:
        """Typing of extended expressions (parallel vectors of values).

        Not part of Figure 7 — vectors have no source syntax — but needed
        to state Theorem 1: the value a global expression reduces to must
        retype at the expression's type.  A vector types at ``tau par``
        when every component types at ``tau`` and ``tau`` is local.
        """
        premises = []
        constraints = []
        content_ty: Type = fresh_tvar("v")
        for item in expr.items:
            item_ct, item_d = self.infer(env.apply(self.subst), item)
            self._unify(item_ct.type, content_ty, item)
            premises.append(item_d)
            constraints.append(self._resolve(item_ct).constraint)
        content = self.subst.apply_type(content_ty)
        ct = ConstrainedType(
            TPar(content), conj(locality(content), *constraints)
        )
        return self._check("ParVec", expr, ct, tuple(premises))


def type_expr_to_type(
    annotation: TypeExpr,
    mapping: Optional[dict] = None,
    fresh: Callable[[str], TVar] = fresh_tvar,
) -> Type:
    """Convert a syntactic type to a semantic one.

    Each named type variable gets one variable drawn from ``fresh``,
    shared across the whole annotation (so ``'a -> 'a`` relates its two
    sides).
    """
    if mapping is None:
        mapping = {}
    if isinstance(annotation, TEBase):
        return TBase(annotation.name)
    if isinstance(annotation, TEVar):
        if annotation.name not in mapping:
            mapping[annotation.name] = fresh(f"u{annotation.name}")
        return mapping[annotation.name]
    if isinstance(annotation, TEArrow):
        return TArrow(
            type_expr_to_type(annotation.domain, mapping, fresh),
            type_expr_to_type(annotation.codomain, mapping, fresh),
        )
    if isinstance(annotation, TEProduct):
        items = tuple(
            type_expr_to_type(item, mapping, fresh) for item in annotation.items
        )
        if len(items) == 2:
            return TPair(items[0], items[1])
        return TTuple(items)
    if isinstance(annotation, TESum):
        return TSum(
            type_expr_to_type(annotation.left, mapping, fresh),
            type_expr_to_type(annotation.right, mapping, fresh),
        )
    if isinstance(annotation, TEPar):
        return TPar(type_expr_to_type(annotation.content, mapping, fresh))
    if isinstance(annotation, TERef):
        return TRef(type_expr_to_type(annotation.content, mapping, fresh))
    raise TypeError(f"type_expr_to_type: unknown node {type(annotation).__name__}")


def solve_fails(constraint: Constraint) -> bool:
    """The side condition of a typing rule: ``Solve(C) = False``.

    Each check reports once: inside a window (:func:`repro.obs.in_window`)
    it records a ``solve`` span on the inference track carrying the
    verdict, from which counting windows derive ``infer.solve_checks``.
    """
    if not obs.in_window():
        return is_unsatisfiable(constraint)
    started = time.perf_counter()
    unsat = is_unsatisfiable(constraint)
    obs.record(
        "solve",
        obs.INFERENCE_TRACK,
        started,
        time.perf_counter() - started,
        unsat=unsat,
    )
    return unsat


def raise_nesting(
    rule: str, expr: Expr, ct: ConstrainedType, derivation: Derivation
) -> None:
    """Raise a :class:`NestingError` annotated with its partial derivation."""
    error = NestingError(
        rule,
        ct.constraint,
        expr=expr,
        loc=expr.loc,
        detail=f"while typing at {ct.type}",
    )
    error.derivation = derivation
    raise error


# -- engine selection ------------------------------------------------------

#: Inference engines: ``w`` is this module's substitution-threading
#: Algorithm W (the Fig. 7 reference, kept as a test oracle); ``uf`` is
#: the union-find engine of :mod:`repro.core.uf` (the default — near-
#: linear, bit-identical output, held to conformance by the typing axis
#: of :func:`repro.testing.conform`).
INFER_ENGINES = ("w", "uf")


def _use_uf(engine: str) -> bool:
    if engine not in INFER_ENGINES:
        known = ", ".join(INFER_ENGINES)
        raise ValueError(f"unknown infer engine {engine!r} (known: {known})")
    return engine == "uf"


# -- public entry points ---------------------------------------------------


def infer(
    expr: Expr,
    env: Optional[TypeEnv] = None,
    prune: bool = True,
    engine: str = "uf",
) -> ConstrainedType:
    """Infer the constrained type of ``expr``.

    Raises a :class:`TypingError` subclass on failure; in particular
    :class:`NestingError` when a locality constraint becomes unsatisfiable
    (``Solve(C) = False``), which is the paper's static rejection of
    parallel-vector nesting.  With ``prune=True`` (the default) the
    returned constraint only mentions variables of the returned type and
    the environment; acceptance is unaffected (see
    :mod:`repro.core.normalize`).

    ``engine`` picks the implementation (:data:`INFER_ENGINES`); both
    produce bit-identical results — ``uf`` (the default) in near-linear
    time, ``w`` as the Fig. 7 reference the conformance sweeps compare
    against.
    """
    if _use_uf(engine):
        from repro.core import uf

        return uf.infer(expr, env, prune=prune)
    inferencer = Inferencer(prune=prune)
    with obs.span("infer", obs.INFERENCE_TRACK), deep_recursion():
        ct, _ = inferencer.infer(env or TypeEnv.empty(), expr)
        final = inferencer.subst.apply_constrained(ct)
    if prune:
        environment = env or TypeEnv.empty()
        final = prune_constrained(final, environment.apply(inferencer.subst).free_vars())
    perf.increment("infer.runs")
    return final


def infer_with_derivation(
    expr: Expr,
    env: Optional[TypeEnv] = None,
    prune: bool = False,
    engine: str = "uf",
) -> Tuple[ConstrainedType, Derivation]:
    """Like :func:`infer` but also returns the full derivation tree.

    Pruning defaults to off so the derivation shows exactly the
    constraints the paper's rules accumulate (Figures 8-10).
    """
    if _use_uf(engine):
        from repro.core import uf

        return uf.infer_with_derivation(expr, env, prune=prune)
    inferencer = Inferencer(prune=prune)
    with deep_recursion():
        ct, derivation = inferencer.infer(env or TypeEnv.empty(), expr)
        final = inferencer.subst.apply_constrained(ct)
        return final, derivation.resolve(inferencer.subst)


def infer_scheme(
    expr: Expr,
    env: Optional[TypeEnv] = None,
    prune: bool = True,
    engine: str = "uf",
) -> TypeScheme:
    """Infer and generalize over the (empty by default) environment."""
    environment = env or TypeEnv.empty()
    ct = infer(expr, environment, prune=prune, engine=engine)
    return generalize(ct, environment)


def typechecks(
    expr: Expr, env: Optional[TypeEnv] = None, engine: str = "uf"
) -> bool:
    """True when ``expr`` is accepted by the type system."""
    try:
        infer(expr, env, engine=engine)
        return True
    except TypingError:
        return False
