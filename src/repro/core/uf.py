"""Union-find constraint inference: the ``uf`` engine.

This is the second inference engine (the first being the substitution
threading :class:`repro.core.infer.Inferencer`), built for near-linear
scaling on large programs while producing **bit-identical** output:

* **Union-find unification** (:class:`UnionFind`): instead of composing
  an explicit substitution after every unification step — the O(n^2)
  behaviour of ``extra.compose(self.subst)`` — variables are linked to
  their representative in a mutable ``name -> Type`` table, with path
  compression on lookup.  The occurs check runs iteratively over the
  resolved structure during binding.

* **Mutable state lives outside the type layer.**  ``Type`` nodes are
  hash-consed and printable (:mod:`repro.core.types`); they never carry
  a mutable link field.  The union-find table is per-inference-run
  state, and resolved types are *frozen* back into interned nodes
  (:meth:`UnionFind.resolve`) wherever a pass checks ``Solve(C)``, so
  pretty-printing, :mod:`repro.core.normalize`, digests and the
  solver-memo keys of :mod:`repro.core.constraints` observe exactly the
  interned nodes the substitution engine would have produced.

* **Two passes over the same rules.**  The *checked pass*
  (:func:`infer_with_derivation`, and :func:`infer` inside a trace
  window) resolves and checks every judgment and builds the
  :class:`~repro.core.infer.Derivation`.  The *product pass*
  (:func:`infer` otherwise) builds no derivation and resolves and
  checks only at generalization points — a ``let``'s bound and its
  conclusion — and at the root: every rule conjoins its premises'
  constraints, and resolution and exact pruning preserve
  unsatisfiability, so a failing judgment still fails there (DESIGN
  §13).  On any error the product pass re-runs the checked pass,
  replaying its own fresh names, and raises that error.

* **Rémy-style level-based generalization**: every variable records the
  ``let`` depth at which it was created; binding a variable demotes the
  levels of the variables reachable from the bound type (folded into
  the same iterative walk as the occurs check).  ``generalize`` then
  quantifies the variables of the frozen bound type whose level exceeds
  the ``let``'s entry level — O(vars of the bound type), with no
  free-variable sweep over the environment.

* **Lazy constraint resolution**: ``CLoc`` atoms written during
  inference keep referencing variables by name; they are rewritten to
  the locality formula of the representative (and Definition 1's basic
  constraints conjoined) only when a pass resolves a conclusion for a
  ``Solve(C)`` check.  The constraint trees that come
  out are the same interned nodes the substitution engine builds.

Conformance is not accidental: every rule below consumes fresh
variables in exactly the order :class:`repro.core.infer.Inferencer`
does, and resolution reproduces Definition 1 exactly — for any chain of
substitutions ``phi2 . phi1`` the identity

    ``C_{phi2(phi1(tau))} = phi2(C_{phi1(tau)}) /\\ AND C_{phi2(v)}``
    for ``v`` free in ``phi1(tau)``

makes the substitution engine's eager per-node environment applications
telescope into the single final resolution performed here.  The typing
axis of the conformance harness (:func:`repro.testing.conform`) holds
both engines to bit-identical types, constraints, derivations and error
messages.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import obs, perf
from repro.core.constraints import (
    FALSE,
    Constraint,
    CAnd,
    CImp,
    CLoc,
    basic_constraint,
    conj,
    conj_all,
    constraint_atoms,
    imp,
    is_unsatisfiable,
    locality,
)
from repro.core.errors import (
    OccursCheckError,
    TypingError,
    UnboundVariableError,
    UnificationError,
    UnknownPrimitiveError,
)
from repro.core.infer import Derivation, raise_nesting, type_expr_to_type
from repro.core.initial_env import constant_scheme, primitive_scheme
from repro.core.normalize import prune_constrained
from repro.core.schemes import (
    ConstrainedType,
    TypeEnv,
    TypeScheme,
    generalize,
    instance_plan,
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
    free_type_vars,
    fresh_tvar,
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
    Loc,
    Pair,
    ParVec,
    Prim,
    Tuple as TupleE,
    Var,
)
from repro.lang.limits import deep_recursion


class UnionFind:
    """Mutable unification state of one inference run.

    ``link`` maps a bound variable's name to the type it was unified
    with (possibly another variable: a var-var union).  ``level`` maps
    every variable created during the run to the ``let`` depth of its
    creation.  ``version`` counts bindings; the freeze memo tables are
    stamped with it so cached frozen nodes are reused between bindings
    and dropped the moment a binding could change a resolution.
    """

    __slots__ = (
        "link",
        "level",
        "current_level",
        "version",
        "binds",
        "compressions",
        "freezes",
        "_memo_version",
        "_frozen_types",
        "_frozen_constraints",
        "_type_fv_memo",
        "_atom_memo",
        "_scheme_fv_memo",
    )

    def __init__(self) -> None:
        self.link: Dict[str, Type] = {}
        self.level: Dict[str, int] = {}
        self.current_level = 0
        self.version = 0
        self.binds = 0
        self.compressions = 0
        self.freezes = 0
        self._memo_version = 0
        self._frozen_types: Dict[Type, Type] = {}
        self._frozen_constraints: Dict[Constraint, Constraint] = {}
        self._type_fv_memo: Dict[Type, FrozenSet[str]] = {}
        self._atom_memo: Dict[Constraint, FrozenSet[str]] = {}
        self._scheme_fv_memo: Dict[TypeScheme, FrozenSet[str]] = {}

    # -- representatives ---------------------------------------------------

    def find(self, ty: Type) -> Type:
        """The representative of ``ty``: follow links until an unbound
        variable or a structural node, compressing the walked path."""
        if not isinstance(ty, TVar):
            return ty
        link = self.link
        node: Type = ty
        path: List[str] = []
        while isinstance(node, TVar):
            target = link.get(node.name)
            if target is None:
                break
            path.append(node.name)
            node = target
        if len(path) > 1:
            # Point every variable on the path at the representative so
            # the next lookup is O(1).  Compression never changes what a
            # name resolves to, so the freeze memos stay valid.
            for name in path[:-1]:
                link[name] = node
            self.compressions += len(path) - 1
        return node

    def bind(self, var: TVar, ty: Type, loc: Optional[Loc]) -> None:
        """Link the unbound variable ``var`` to ``ty``.

        Runs the iterative occurs check over the *resolved* structure of
        ``ty`` and, in the same walk, demotes every unbound variable
        reachable from ``ty`` to ``var``'s level (Rémy's level
        discipline: a variable that becomes visible from an older
        binding can no longer be generalized at a younger ``let``).
        """
        level = self.level
        bound_level = level.get(var.name, 0)
        stack: List[Type] = [ty]
        while stack:
            node = stack.pop()
            if isinstance(node, TVar):
                root = self.find(node)
                if isinstance(root, TVar):
                    if root is var:
                        raise OccursCheckError(
                            var.name, self.freeze_type(ty), loc
                        )
                    if level.get(root.name, 0) > bound_level:
                        level[root.name] = bound_level
                    continue
                stack.append(root)
                continue
            stack.extend(node.children())
        self.link[var.name] = ty
        self.version += 1
        self.binds += 1

    # -- freezing back into interned nodes ---------------------------------

    def _sync(self) -> None:
        if self._memo_version != self.version:
            self._frozen_types.clear()
            self._frozen_constraints.clear()
            self._memo_version = self.version

    def freeze_type(self, ty: Type) -> Type:
        """The fully resolved, interned form of ``ty`` under the current
        bindings — exactly ``subst.apply_type(ty)`` of the substitution
        engine.  Memoized per interned node until the next binding."""
        self._sync()
        return self._freeze(ty)

    def _freeze(self, ty: Type) -> Type:
        memo = self._frozen_types
        cached = memo.get(ty)
        if cached is not None:
            return cached
        if isinstance(ty, TVar):
            root = self.find(ty)
            frozen = root if isinstance(root, TVar) else self._freeze(root)
        elif isinstance(ty, TBase):
            frozen = ty
        elif isinstance(ty, TArrow):
            frozen = TArrow(self._freeze(ty.domain), self._freeze(ty.codomain))
        elif isinstance(ty, TPair):
            frozen = TPair(self._freeze(ty.first), self._freeze(ty.second))
        elif isinstance(ty, TTuple):
            frozen = TTuple(tuple(self._freeze(item) for item in ty.items))
        elif isinstance(ty, TSum):
            frozen = TSum(self._freeze(ty.left), self._freeze(ty.right))
        elif isinstance(ty, TRef):
            frozen = TRef(self._freeze(ty.content))
        elif isinstance(ty, TPar):
            frozen = TPar(self._freeze(ty.content))
        else:
            raise TypeError(f"freeze: unknown type node {type(ty).__name__}")
        memo[ty] = frozen
        self.freezes += 1
        return frozen

    def freeze_constraint(self, constraint: Constraint) -> Constraint:
        """Resolve a constraint's atoms against the current bindings:
        ``L(v)`` becomes the locality formula of ``v``'s representative
        (the lazy ``CLoc`` resolution of the engine)."""
        self._sync()
        return self._freeze_c(constraint)

    def _freeze_c(self, constraint: Constraint) -> Constraint:
        memo = self._frozen_constraints
        cached = memo.get(constraint)
        if cached is not None:
            return cached
        if isinstance(constraint, CLoc):
            image = self.link.get(constraint.var)
            frozen = constraint if image is None else locality(self._freeze(image))
        elif isinstance(constraint, CAnd):
            frozen = conj_all(self._freeze_c(part) for part in constraint.conjuncts)
        elif isinstance(constraint, CImp):
            frozen = imp(
                self._freeze_c(constraint.antecedent),
                self._freeze_c(constraint.consequent),
            )
        else:
            frozen = constraint
        memo[constraint] = frozen
        return frozen

    # -- Definition 1 at rule boundaries -----------------------------------

    def resolve(self, ct: ConstrainedType) -> ConstrainedType:
        """Definition 1 under the current bindings.

        Freezes the type, rewrites the constraint's atoms, and conjoins
        the basic constraint of every bound variable free in ``ct`` —
        the substitution engine's ``subst.apply_constrained``, whose
        eager intermediate applications telescope into this single
        resolution (see the module docstring)."""
        constraint = self.resolve_constraint(ct)
        return ConstrainedType(self._freeze(ct.type), constraint)

    def resolve_constraint(self, ct: ConstrainedType) -> Constraint:
        """``resolve(ct).constraint`` without freezing ``ct.type``: for a
        premise whose type the rule drops.  Definition 1's extras stay —
        they are the basic constraints of the dropped type's variables'
        images, and the only place those reach the conclusion."""
        self._sync()
        link = self.link
        constraint = self._freeze_c(ct.constraint)
        bound = [name for name in self.ct_free_vars(ct) if name in link]
        if not bound:
            return constraint
        freeze = self._freeze
        return conj(
            constraint, *(basic_constraint(freeze(link[name])) for name in bound)
        )

    # -- syntactic free variables (cached on interned nodes) ---------------

    def type_fv(self, ty: Type) -> FrozenSet[str]:
        cached = self._type_fv_memo.get(ty)
        if cached is None:
            cached = free_type_vars(ty)
            self._type_fv_memo[ty] = cached
        return cached

    def atoms(self, constraint: Constraint) -> FrozenSet[str]:
        cached = self._atom_memo.get(constraint)
        if cached is None:
            cached = constraint_atoms(constraint)
            self._atom_memo[constraint] = cached
        return cached

    def ct_free_vars(self, ct: ConstrainedType) -> FrozenSet[str]:
        return self.type_fv(ct.type) | self.atoms(ct.constraint)

    # -- resolved environment free variables -------------------------------

    def scheme_free_vars(self, scheme: TypeScheme) -> FrozenSet[str]:
        """Free variables of ``scheme`` as the substitution engine's
        ``subst.apply_scheme(scheme).free_vars()`` would report them.

        The result depends only on the scheme and on the bindings of the
        variables *in the result*: an entry is reusable until one of its
        own variables gets bound, so the validity check is O(|result|)
        rather than a recomputation per query.
        """
        cached = self._scheme_fv_memo.get(scheme)
        if cached is not None:
            link = self.link
            if not any(name in link for name in cached):
                return cached
        result = self._compute_scheme_fv(scheme)
        self._scheme_fv_memo[scheme] = result
        return result

    def _compute_scheme_fv(self, scheme: TypeScheme) -> FrozenSet[str]:
        self._sync()
        quantified = set(scheme.quantified)
        body = scheme.body
        link = self.link
        result: Set[str] = set()
        touched: Set[str] = set()
        for name in self.type_fv(body.type):
            if name in quantified:
                continue
            if name in link:
                touched.add(name)
                result |= self.type_fv(self._freeze(link[name]))
            else:
                result.add(name)
        for name in self.atoms(body.constraint):
            if name in quantified:
                continue
            if name in link:
                touched.add(name)
                result |= self.atoms(locality(self._freeze(link[name])))
            else:
                result.add(name)
        # Definition 1's extras: the touched variables' images conjoin
        # their basic constraints into the applied scheme's body.
        for name in touched:
            result |= self.atoms(basic_constraint(self._freeze(link[name])))
        return frozenset(result)

    def env_free_vars(self, env: TypeEnv) -> FrozenSet[str]:
        """``env.apply(subst).free_vars()`` without building the applied
        environment.  Closed schemes stay closed under any binding, so
        only the open ones are visited (:meth:`TypeEnv.open_names`)."""
        result: Set[str] = set()
        for name in env.open_names():
            result |= self.scheme_free_vars(env.lookup(name))
        return frozenset(result)

    # -- levels of fresh variables -------------------------------------------

    def note_vars(self, names: FrozenSet[str]) -> None:
        """Record the current level for any not-yet-seen variable (the
        fresh instances drawn by :func:`instantiate` and annotation
        conversion; variables already levelled keep their level)."""
        level = self.level
        current = self.current_level
        for name in names:
            if name not in level:
                level[name] = current


def uf_unify(uf: UnionFind, left: Type, right: Type, loc: Optional[Loc] = None) -> None:
    """In-place unification on the union-find store.

    Mirrors :func:`repro.core.unify.unify` case for case (same stack
    discipline, same bind orientation — the left operand's variable
    links to the right operand) so the two engines make literally the
    same bindings in the same order; errors carry frozen types so the
    messages match the substitution engine's byte for byte.
    """
    tracing = obs.window_open()
    started = time.perf_counter() if tracing else 0.0
    stack = [(left, right)]
    steps = 0
    while stack:
        steps += 1
        a, b = stack.pop()
        a = uf.find(a)
        b = uf.find(b)
        if a is b:
            continue
        if isinstance(a, TVar):
            uf.bind(a, b, loc)
            continue
        if isinstance(b, TVar):
            uf.bind(b, a, loc)
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
                raise UnificationError(uf.freeze_type(a), uf.freeze_type(b), loc)
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
        raise UnificationError(uf.freeze_type(a), uf.freeze_type(b), loc)
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


class UFInferencer:
    """The union-find twin of :class:`repro.core.infer.Inferencer`.

    Every rule consumes fresh variables in exactly the order the
    substitution engine does.  With ``checked=True`` every conclusion is
    resolved through :meth:`UnionFind.resolve` at the rule boundary and
    checked — the two engines' outputs (types, constraints, derivations,
    errors) are interned-node identical, which the differential harness
    enforces.  With ``checked=False`` (the product pass) conclusions stay
    unresolved and derivation-free except at generalization points.

    Every fresh variable comes from :meth:`draw`, which records it in
    ``drawn``.  An engine built with ``replay`` hands out those names in
    order instead, so a checked re-run of a failed product pass reports
    the same raw variable names.
    """

    def __init__(
        self, prune: bool = True, checked: bool = True, replay: Sequence[TVar] = ()
    ) -> None:
        self.uf = UnionFind()
        self.prune = prune
        self.checked = checked
        self.drawn: List[TVar] = []
        self._replay = iter(replay)

    # -- helpers ----------------------------------------------------------

    def draw(self, hint: str) -> TVar:
        """The engine's one source of fresh variables."""
        var = next(self._replay, None) or fresh_tvar(hint)
        self.drawn.append(var)
        return var

    def fresh(self, hint: str) -> TVar:
        """A fresh rule variable at the current ``let`` level."""
        var = self.draw(hint)
        self.uf.level[var.name] = self.uf.current_level
        return var

    def _resolve(self, ct: ConstrainedType) -> ConstrainedType:
        return self.uf.resolve(ct)

    def _unify(self, left: Type, right: Type, expr: Expr) -> None:
        uf_unify(self.uf, left, right, expr.loc)

    def _instantiate(self, scheme: TypeScheme) -> ConstrainedType:
        if scheme.quantified and instance_plan(scheme).closed:
            # The instance's free variables are exactly its fresh ones:
            # level each as it is drawn.
            return instantiate(scheme, self.fresh)
        ct = instantiate(scheme, self.draw)
        self.uf.note_vars(self.uf.ct_free_vars(ct))
        return ct

    def _check(
        self,
        rule: str,
        expr: Expr,
        ct: ConstrainedType,
        premises: Tuple[Optional[Derivation], ...],
        note: str = "",
        point: bool = False,
    ) -> Tuple[ConstrainedType, Optional[Derivation]]:
        """Fail the rule if its constraint is unsatisfiable (Solve = False).

        The product pass checks only at a generalization ``point``;
        elsewhere it returns the conclusion unresolved.  It never builds
        a derivation."""
        if not (self.checked or point):
            return ct, None
        resolved = self._resolve(ct)
        perf.increment("infer.solve_checks")
        if is_unsatisfiable(resolved.constraint):
            failure = Derivation(rule, expr, None, premises, note)
            raise_nesting(rule, expr, resolved, failure)
        if not self.checked:
            return resolved, None
        return resolved, Derivation(rule, expr, resolved, premises, note)

    def _generalize(self, ct: ConstrainedType, entry_level: int) -> TypeScheme:
        """Definition 3 by level: quantify the frozen bound type's
        variables created strictly under this ``let`` — O(vars of the
        type), no environment sweep."""
        level = self.uf.level
        quantified = tuple(
            sorted(
                name
                for name in self.uf.type_fv(ct.type)
                if level.get(name, 0) > entry_level
            )
        )
        return TypeScheme(quantified, ct)

    def _resolve_derivation(self, derivation: Derivation) -> Derivation:
        conclusion = (
            self._resolve(derivation.conclusion)
            if derivation.conclusion is not None
            else None
        )
        return Derivation(
            derivation.rule,
            derivation.expr,
            conclusion,
            tuple(self._resolve_derivation(p) for p in derivation.premises),
            derivation.note,
        )

    # -- the rules of Figure 7 --------------------------------------------

    def infer(
        self, env: TypeEnv, expr: Expr
    ) -> Tuple[ConstrainedType, Optional[Derivation]]:
        perf.increment("infer.nodes")
        if self.checked and obs.window_open():
            with obs.span(
                "judgment", obs.INFERENCE_TRACK, node=type(expr).__name__
            ) as extra:
                ct, derivation = self._infer_node(env, expr)
                extra["rule"] = derivation.rule
                return ct, derivation
        return self._infer_node(env, expr)

    def _infer_node(
        self, env: TypeEnv, expr: Expr
    ) -> Tuple[ConstrainedType, Derivation]:
        if isinstance(expr, Var):
            scheme = env.lookup(expr.name)
            if scheme is None:
                raise UnboundVariableError(expr.name, expr.loc)
            return self._check("Var", expr, self._instantiate(scheme), ())
        if isinstance(expr, Const):
            return self._check(
                "Const", expr, self._instantiate(constant_scheme(expr)), ()
            )
        if isinstance(expr, Prim):
            scheme = primitive_scheme(expr.name)
            if scheme is None:
                raise UnknownPrimitiveError(expr.name, expr.loc)
            return self._check("Op", expr, self._instantiate(scheme), ())
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
        inner_ct, inner_d = self.infer(env, expr.expr)
        annotation = type_expr_to_type(expr.annotation, fresh=self.draw)
        self.uf.note_vars(self.uf.type_fv(annotation))
        self._unify(inner_ct.type, annotation, expr)
        inner_ct = self._resolve(inner_ct)
        ct = ConstrainedType(
            inner_ct.type,
            conj(
                inner_ct.constraint,
                basic_constraint(self.uf.freeze_type(annotation)),
            ),
        )
        note = f"annotation: {expr.annotation}" if self.checked else ""
        return self._check("Annot", expr, ct, (inner_d,), note)

    def _infer_injection(self, env: TypeEnv, expr, left: bool):
        value_ct, value_d = self.infer(env, expr.value)
        other = self.fresh("s")
        ty = TSum(value_ct.type, other) if left else TSum(other, value_ct.type)
        rule = "Inl" if left else "Inr"
        return self._check(rule, expr, ConstrainedType(ty, value_ct.constraint), (value_d,))

    def _infer_case(self, env: TypeEnv, expr: Case):
        left_ty = self.fresh("sl")
        right_ty = self.fresh("sr")
        scrut_ct, scrut_d = self.infer(env, expr.scrutinee)
        self._unify(scrut_ct.type, TSum(left_ty, right_ty), expr.scrutinee)
        left_env = env.extend(
            expr.left_name, mono(self.uf.freeze_type(left_ty))
        )
        left_ct, left_d = self.infer(left_env, expr.left_body)
        right_env = env.extend(
            expr.right_name, mono(self.uf.freeze_type(right_ty))
        )
        right_ct, right_d = self.infer(right_env, expr.right_body)
        self._unify(left_ct.type, right_ct.type, expr)
        scrut_ct = self._resolve(scrut_ct)
        left_ct = self._resolve(left_ct)
        ct = ConstrainedType(
            left_ct.type,
            conj(
                scrut_ct.constraint,
                left_ct.constraint,
                self.uf.resolve_constraint(right_ct),
                imp(locality(left_ct.type), locality(scrut_ct.type)),
            ),
        )
        return self._check("Case", expr, ct, (scrut_d, left_d, right_d))

    def _infer_fun(self, env: TypeEnv, expr: Fun) -> Tuple[ConstrainedType, Derivation]:
        param_ty = self.fresh("p")
        body_ct, body_d = self.infer(env.extend(expr.param, mono(param_ty)), expr.body)
        arrow = TArrow(self.uf.freeze_type(param_ty), body_ct.type)
        constraint = conj(basic_constraint(arrow), body_ct.constraint)
        return self._check("Fun", expr, ConstrainedType(arrow, constraint), (body_d,))

    def _infer_app(self, env: TypeEnv, expr: App) -> Tuple[ConstrainedType, Derivation]:
        fn_ct, fn_d = self.infer(env, expr.fn)
        arg_ct, arg_d = self.infer(env, expr.arg)
        result_ty = self.fresh("r")
        self._unify(fn_ct.type, TArrow(arg_ct.type, result_ty), expr)
        resolve_constraint = self.uf.resolve_constraint
        ct = ConstrainedType(
            self.uf.freeze_type(result_ty),
            conj(resolve_constraint(fn_ct), resolve_constraint(arg_ct)),
        )
        return self._check("App", expr, ct, (fn_d, arg_d))

    def _infer_let(self, env: TypeEnv, expr: Let) -> Tuple[ConstrainedType, Derivation]:
        uf = self.uf
        entry_level = uf.current_level
        uf.current_level = entry_level + 1
        try:
            bound_ct, bound_d = self.infer(env, expr.bound)
        finally:
            uf.current_level = entry_level
        if self.checked:
            bound_ct = self._resolve(bound_ct)
        else:
            # A generalization point: the product pass checks the bound.
            bound_ct, _ = self._check("Let", expr, bound_ct, (), point=True)
        # The substitution engine resolves the environment once here
        # (``inner_env = env.apply(self.subst)``) and reuses that
        # snapshot for both prunes; mirror the snapshot exactly.
        inner_fv = uf.env_free_vars(env) if self.prune else frozenset()
        if self.prune:
            bound_ct = prune_constrained(bound_ct, inner_fv)
        scheme = self._generalize(bound_ct, entry_level)
        body_ct, body_d = self.infer(env.extend(expr.name, scheme), expr.body)
        bound_ct = self._resolve(bound_ct)
        if not self.checked:
            body_ct = self._resolve(body_ct)  # pruning needs it resolved
        constraint = conj(
            bound_ct.constraint,
            body_ct.constraint,
            imp(locality(body_ct.type), locality(bound_ct.type)),
        )
        ct = ConstrainedType(body_ct.type, constraint)
        if self.prune:
            ct = prune_constrained(ct, inner_fv)
        note = f"{expr.name} : {scheme}" if self.checked else ""
        return self._check("Let", expr, ct, (bound_d, body_d), note, point=True)

    def _infer_pair(self, env: TypeEnv, expr: Pair) -> Tuple[ConstrainedType, Derivation]:
        first_ct, first_d = self.infer(env, expr.first)
        second_ct, second_d = self.infer(env, expr.second)
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
            item_ct, item_d = self.infer(env, item)
            premises.append(item_d)
            types.append(item_ct.type)
            constraints.append(item_ct.constraint)
        resolved = [self.uf.freeze_type(ty) for ty in types]
        ct = ConstrainedType(TTuple(tuple(resolved)), conj(*constraints))
        return self._check("Tuple", expr, ct, tuple(premises))

    def _infer_if(self, env: TypeEnv, expr: If) -> Tuple[ConstrainedType, Derivation]:
        cond_ct, cond_d = self.infer(env, expr.cond)
        self._unify(cond_ct.type, BOOL, expr.cond)
        then_ct, then_d = self.infer(env, expr.then_branch)
        else_ct, else_d = self.infer(env, expr.else_branch)
        self._unify(then_ct.type, else_ct.type, expr)
        resolve_constraint = self.uf.resolve_constraint
        then_ct = self._resolve(then_ct)
        ct = ConstrainedType(
            then_ct.type,
            conj(
                resolve_constraint(cond_ct),
                then_ct.constraint,
                resolve_constraint(else_ct),
            ),
        )
        return self._check("Ifthenelse", expr, ct, (cond_d, then_d, else_d))

    def _infer_ifat(self, env: TypeEnv, expr: IfAt) -> Tuple[ConstrainedType, Derivation]:
        vec_ct, vec_d = self.infer(env, expr.vec)
        self._unify(vec_ct.type, TPar(BOOL), expr.vec)
        proc_ct, proc_d = self.infer(env, expr.proc)
        self._unify(proc_ct.type, INT, expr.proc)
        then_ct, then_d = self.infer(env, expr.then_branch)
        else_ct, else_d = self.infer(env, expr.else_branch)
        self._unify(then_ct.type, else_ct.type, expr)
        resolve_constraint = self.uf.resolve_constraint
        then_ct = self._resolve(then_ct)
        ct = ConstrainedType(
            then_ct.type,
            conj(
                resolve_constraint(vec_ct),
                resolve_constraint(proc_ct),
                then_ct.constraint,
                resolve_constraint(else_ct),
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
        premises = []
        constraints = []
        content_ty: Type = self.fresh("v")
        for item in expr.items:
            item_ct, item_d = self.infer(env, item)
            self._unify(item_ct.type, content_ty, item)
            premises.append(item_d)
            constraints.append(self.uf.resolve_constraint(item_ct))
        content = self.uf.freeze_type(content_ty)
        ct = ConstrainedType(
            TPar(content), conj(locality(content), *constraints)
        )
        return self._check("ParVec", expr, ct, tuple(premises))


def _flush_counters(engine: UFInferencer) -> None:
    """Report the run's union-find counters (zero hot-path overhead: the
    tallies are plain ints on the store, flushed once per run)."""
    if perf.is_collecting():
        uf = engine.uf
        perf.increment("infer.uf.runs")
        perf.increment("infer.uf.binds", uf.binds)
        perf.increment("infer.uf.compressions", uf.compressions)
        perf.increment("infer.uf.freezes", uf.freezes)


# -- public entry points ---------------------------------------------------


def infer(expr: Expr, env: Optional[TypeEnv] = None, prune: bool = True) -> ConstrainedType:
    """Infer the constrained type of ``expr`` with the ``uf`` engine.

    Same contract (and bit-identical results, per the differential
    harness) as :func:`repro.core.infer.infer`.  Runs the product pass,
    or the checked pass when a trace window is open (so the window gets
    one ``judgment`` span per node)."""
    environment = env or TypeEnv.empty()
    checked = obs.window_open()
    engine = UFInferencer(prune=prune, checked=checked)
    with perf.timed("infer"), obs.span("infer", obs.INFERENCE_TRACK), deep_recursion():
        try:
            ct, _ = engine.infer(environment, expr)
            if checked:
                final = engine.uf.resolve(ct)
            else:
                final, _ = engine._check("Root", expr, ct, (), point=True)
        except TypingError as failure:
            if checked:
                raise
            raise _checked_error(engine, environment, expr, failure) from None
    if prune:
        final = prune_constrained(final, engine.uf.env_free_vars(environment))
    perf.increment("infer.runs")
    _flush_counters(engine)
    return final


def _checked_error(
    product: UFInferencer, env: TypeEnv, expr: Expr, failure: TypingError
) -> TypingError:
    """The error the checked pass raises on a program the product pass
    rejected: the first failing rule and its message, with the fresh
    names the product pass drew replayed in order."""
    rerun = UFInferencer(prune=product.prune, checked=True, replay=product.drawn)
    try:
        rerun.infer(env, expr)
    except TypingError as error:
        return error
    return failure


def infer_with_derivation(
    expr: Expr, env: Optional[TypeEnv] = None, prune: bool = False
) -> Tuple[ConstrainedType, Derivation]:
    """Like :func:`infer` but also returns the full derivation tree."""
    engine = UFInferencer(prune=prune)
    with deep_recursion():
        ct, derivation = engine.infer(env or TypeEnv.empty(), expr)
        final = engine.uf.resolve(ct)
        resolved = engine._resolve_derivation(derivation)
    _flush_counters(engine)
    return final, resolved


def infer_scheme(
    expr: Expr, env: Optional[TypeEnv] = None, prune: bool = True
) -> TypeScheme:
    """Infer and generalize over the (empty by default) environment."""
    environment = env or TypeEnv.empty()
    ct = infer(expr, environment, prune=prune)
    return generalize(ct, environment)


def typechecks(expr: Expr, env: Optional[TypeEnv] = None) -> bool:
    """True when ``expr`` is accepted by the type system."""
    try:
        infer(expr, env)
        return True
    except TypingError:
        return False
