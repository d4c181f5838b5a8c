"""Type-directed random generation of mini-BSML programs.

:class:`ProgramGenerator` produces *closed, well-typed, terminating*
programs: generation is directed by a target type and tracks the
local/global context exactly like the type system does (no parallel
construct is ever emitted inside a vector component), and it never emits
``fix`` or ``/``, so every generated program is strongly normalizing and
cannot divide by zero.  This is the workload for the empirical validation
of Theorem 1 (typing safety): every generated program must be accepted by
inference, evaluate to a value under both semantics, and its value must
retype at the inferred type.

``mutate_to_nesting`` turns a well-typed program into a nesting-unsafe
one by wrapping a globally-typed subterm under ``mkpar`` — the
``example1``/``example2`` shapes — giving the negative corpus for the
Milner-baseline comparison.

The ``divergence`` knob weights booleans generated inside vector
components toward comparisons on the component's own pid, and lets a
``let`` bind whole vectors, so sweeps can target pid-divergent control
flow and mixed uniform/divergent supersteps, where each process takes
its own branch inside one superstep.  ``partial_failure``
emits the one deliberate exception to the no-``/`` rule: a program
where exactly one pid divides by zero, for per-pid error-parity sweeps.

The module also exports small curated corpora (including every program
discussed in the paper's section 2.1) used across tests and benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.types import BOOL, INT, TArrow, TPair, TPar, TSum, Type
from repro.lang.ast import (
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
    Prim,
    Var,
    fun,
)

# -- curated corpora --------------------------------------------------------

#: Purely local programs (no parallelism), all well-typed.
CORPUS_LOCAL: Tuple[str, ...] = (
    "1 + 2 * 3",
    "let x = 5 in x * x",
    "(fun x -> x + 1) 41",
    "if 3 < 4 then 1 else 0",
    "fst (1, true)",
    "snd (1, true) && false || true",
    "let swap = fun p -> (snd p, fst p) in swap (1, 2)",
    "let twice = fun f -> fun x -> f (f x) in twice (fun n -> n + 3) 0",
    "(fix (fun f -> fun n -> if n = 0 then 1 else n * f (n - 1))) 6",
    "let gcd = fix (fun gcd -> fun a -> fun b ->\n"
    "    if b = 0 then a else gcd b (a mod b)) in gcd 48 36",
    "isnc (nc ())",
    "isnc 3",
    "let compose = fun f -> fun g -> fun x -> f (g x) in\n"
    "  compose (fun a -> a * 2) (fun b -> b + 1) 10",
    "17 mod 5 + 17 / 5",
    "not (1 = 2)",
    # sum types (extension)
    "case inl 3 of inl x -> x + 1 | inr b -> if b then 1 else 0",
    "case inr true of inl x -> x | inr b -> if b then 10 else 20",
    "let swap_sum = fun s -> case s of inl x -> inr x | inr y -> inl y in"
    " case swap_sum (inl 5) of inl b -> 0 | inr n -> n",
    "(inl 1, inr false)",
)

#: Parallel programs, all well-typed (some use the prelude).
CORPUS_GLOBAL: Tuple[str, ...] = (
    "mkpar (fun i -> i)",
    "mkpar (fun i -> i * i + 1)",
    "apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> 100))",
    "put (mkpar (fun i -> fun dst -> if dst = 0 then i else nc ()))",
    "if mkpar (fun i -> i < 2) at 1 then mkpar (fun i -> 1) else mkpar (fun i -> 0)",
    "fst (mkpar (fun i -> i), 1)",
    "snd (1, mkpar (fun i -> i))",
    "fst (mkpar (fun i -> i), mkpar (fun i -> true))",
    "let vec = mkpar (fun i -> i * 10) in apply (mkpar (fun i -> fun x -> x + i), vec)",
    "replicate 42",
    "parfun (fun x -> x * 2) (mkpar (fun i -> i))",
    "bcast 0 (mkpar (fun i -> i + 7))",
    "shift 1 (mkpar (fun i -> i))",
    "fold (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))",
    "scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> 1))",
    "totex (mkpar (fun i -> i))",
    "mkpar (fun i -> nproc - i)",
    "mkpar (fun i -> if i mod 2 = 0 then inl i else inr (i = 1))",
    "parfun (fun s -> case s of inl n -> n | inr b -> 0)"
    " (mkpar (fun i -> inl i))",
    "get 0 procs",
    "scanex (fun ab -> fst ab + snd ab) 0 (mkpar (fun i -> 1))",
)

#: Imperative programs (extension): well-typed, evaluated by the big-step
#: engine only (the faithful small-step machine covers the pure fragment).
CORPUS_IMPERATIVE: Tuple[str, ...] = (
    "let r = ref 0 in r := !r + 1 ; !r",
    "let r = ref true in r := not !r ; !r",
    "let a = ref 1 in let b = a in b := 5 ; !a",
    "let acc = ref 0 in"
    " let loop = fix (fun loop -> fun n ->"
    "   if n = 0 then !acc else (acc := !acc + n ; loop (n - 1))) in"
    " loop 10",
    "mkpar (fun i -> let c = ref i in c := !c * !c ; !c)",
    "let r = ref (1, 2) in r := (3, 4) ; fst !r + snd !r",
)

#: Programs the type system must reject (all from/inspired by section 2.1).
CORPUS_REJECTED: Tuple[str, ...] = (
    # example1: nested type (tau par) par
    "mkpar (fun pid -> bcast pid (mkpar (fun i -> i)))",
    # example2: invisible nesting, Milner type int par
    "mkpar (fun pid -> let this = mkpar (fun i -> i) in pid)",
    # fourth projection: Milner type int, needs a vector evaluated
    "fst (1, mkpar (fun i -> i))",
    "snd (mkpar (fun i -> i), 1)",
    # direct nesting
    "mkpar (fun pid -> mkpar (fun i -> i))",
    # communication inside a component (mismatched barriers)
    "mkpar (fun pid -> put (mkpar (fun i -> fun dst -> i)))",
    # the paper's vec1/vec2 example: discarded global values under mkpar
    "let vec1 = mkpar (fun pid -> pid) in\n"
    "let vec2 = put (mkpar (fun pid -> fun src -> 1 + src)) in\n"
    "let c1 = (vec1, 1) in let c2 = (vec2, 2) in\n"
    "mkpar (fun pid -> if pid < (nproc / 2) then snd c1 else snd c2)",
    # global conditional returning a local value
    "if mkpar (fun i -> true) at 0 then 1 else 2",
    # mkpar of a function whose result would be global
    "mkpar (fun i -> fun x -> mkpar (fun j -> j))",
    # apply at global content type
    "apply (mkpar (fun i -> fun x -> x), mkpar (fun i -> mkpar (fun j -> j)))",
)


#: Rejected programs whose error messages carry raw fresh-variable names
#: (``'p217``).  Error parity on them needs the product inference pass to
#: replay its own fresh names in the checked re-run (:mod:`repro.core.uf`).
CORPUS_NAMED_ERRORS: Tuple[str, ...] = (
    # occurs check: the message names the parameter's variable
    "fun x -> x x",
    # nesting inside a let bound, then a unification error in the body:
    # the nesting error of the first failing rule (Pair) must win
    "let f = fun y -> fun v -> (mkpar (fun i -> y), (if v at 0 then y else y)) in\n"
    "1 + true",
    # the same nesting with no let around it: the product pass meets the
    # unification error first and must still report the nesting error
    "(fun y -> fun v -> (mkpar (fun i -> y), (if v at 0 then y else y)), 1 + true)",
)


def well_typed_corpus() -> List[str]:
    """Every curated well-typed source program."""
    return list(CORPUS_LOCAL) + list(CORPUS_GLOBAL)


def unsafe_corpus() -> List[str]:
    """Every curated program that must be rejected."""
    return list(CORPUS_REJECTED)


# -- random generation -------------------------------------------------------


@dataclass
class _Scope:
    """Variables in scope, grouped by their (ground) type."""

    by_type: Dict[Type, List[str]] = field(default_factory=dict)
    counter: int = 0

    def fresh(self, ty: Type) -> str:
        self.counter += 1
        name = f"x{self.counter}"
        self.by_type.setdefault(ty, []).append(name)
        return name

    def drop(self, ty: Type, name: str) -> None:
        self.by_type[ty].remove(name)

    def pick(self, rng: random.Random, ty: Type) -> Optional[str]:
        names = self.by_type.get(ty)
        return rng.choice(names) if names else None


class ProgramGenerator:
    """Generates closed, well-typed, terminating mini-BSML programs.

    ``p_hint`` bounds the literal process indices used by ``if ... at``
    so generated programs are valid on any machine with at least that
    many processes.
    """

    LOCAL_GROUND: Tuple[Type, ...] = (
        INT,
        BOOL,
        TPair(INT, INT),
        TPair(BOOL, INT),
        TSum(INT, BOOL),
    )

    def __init__(
        self, seed: int = 0, p_hint: int = 2, divergence: float = 0.0
    ) -> None:
        self.rng = random.Random(seed)
        self.p_hint = max(1, p_hint)
        #: Probability that a boolean generated inside a vector
        #: component is a comparison on the component's own pid —
        #: pid-divergent control flow, so processes take different
        #: branches in one superstep.  The default 0.0 draws nothing from
        #: the RNG, so existing seeded sweeps are unchanged.
        self.divergence = divergence
        self._pids: List[str] = []

    # -- entry points -------------------------------------------------------

    def expression(self, depth: int = 4, parallel: bool = True) -> Expr:
        """A closed program of a random ground type."""
        target = self.random_type(parallel=parallel)
        return self.of_type(target, depth)

    def of_type(self, target: Type, depth: int = 4) -> Expr:
        """A closed program of exactly ``target`` type."""
        return self._gen(target, _Scope(), depth, local=False)

    def random_type(self, parallel: bool = True) -> Type:
        choices: List[Type] = list(self.LOCAL_GROUND)
        if parallel:
            choices += [TPar(INT), TPar(BOOL), TPar(TPair(INT, INT))]
        return self.rng.choice(choices)

    # -- the type-directed generator ------------------------------------------

    def _gen(self, target: Type, scope: _Scope, depth: int, local: bool) -> Expr:
        producers = self._producers(target, scope, depth, local)
        return self.rng.choice(producers)()

    def _producers(self, target: Type, scope: _Scope, depth: int, local: bool):
        options = []
        variable = scope.pick(self.rng, target)
        if variable is not None:
            options.append(lambda: Var(variable))
        if target == INT:
            options.append(lambda: Const(self.rng.randrange(-9, 100)))
            if depth > 0:
                options.append(lambda: self._arith(scope, depth, local))
        elif target == BOOL:
            options.append(lambda: Const(self.rng.random() < 0.5))
            if depth > 0:
                options.append(lambda: self._comparison(scope, depth, local))
        elif isinstance(target, TPair):
            options.append(
                lambda: Pair(
                    self._gen(target.first, scope, depth - 1, local),
                    self._gen(target.second, scope, depth - 1, local),
                )
            )
        elif isinstance(target, TSum):
            options.append(lambda: self._injection(target, scope, depth, local))
        elif isinstance(target, TArrow):
            options.append(lambda: self._lambda(target, scope, depth, local))
        elif isinstance(target, TPar):
            if local:
                raise AssertionError("never generate a vector in a local context")
            options.append(lambda: self._mkpar(target, scope, depth))
            if depth > 1:
                options.append(lambda: self._apply(target, scope, depth))
                options.append(lambda: self._ifat(target, scope, depth))
        if depth > 0 and not isinstance(target, TPar):
            # Constructs available at every type.
            options.append(lambda: self._if(target, scope, depth, local))
            options.append(lambda: self._projection(target, scope, depth, local))
            options.append(lambda: self._case(target, scope, depth, local))
        if depth > 0:
            options.append(lambda: self._let(target, scope, depth, local))
        if not options:  # pragma: no cover - every type has a base case
            raise AssertionError(f"no producer for {target}")
        return options

    def _arith(self, scope: _Scope, depth: int, local: bool) -> Expr:
        op = self.rng.choice(["+", "-", "*", "mod"])
        left = self._gen(INT, scope, depth - 1, local)
        right = self._gen(INT, scope, depth - 1, local)
        if op == "mod":
            # Guard against modulo by zero: |right| + 1.
            right = App(
                Prim("+"),
                Pair(App(Prim("*"), Pair(right, Const(0))), Const(self.rng.randrange(1, 7))),
            )
        return App(Prim(op), Pair(left, right))

    def _comparison(self, scope: _Scope, depth: int, local: bool) -> Expr:
        if (
            self.divergence
            and local
            and self._pids
            and self.rng.random() < self.divergence
        ):
            return self._pid_branch()
        kind = self.rng.random()
        if kind < 0.6:
            op = self.rng.choice(["=", "<>", "<", "<=", ">", ">="])
            return App(
                Prim(op),
                Pair(
                    self._gen(INT, scope, depth - 1, local),
                    self._gen(INT, scope, depth - 1, local),
                ),
            )
        if kind < 0.9:
            op = self.rng.choice(["&&", "||"])
            return App(
                Prim(op),
                Pair(
                    self._gen(BOOL, scope, depth - 1, local),
                    self._gen(BOOL, scope, depth - 1, local),
                ),
            )
        return App(Prim("not"), self._gen(BOOL, scope, depth - 1, local))

    def _pid_branch(self) -> Expr:
        """A boolean on the innermost component's pid: true on some
        strict-subset of the processes (almost always), so ``if``/``case``
        scrutinees built from it split the processes between branches."""
        pid = Var(self._pids[-1])
        kind = self.rng.random()
        bound = Const(self.rng.randrange(self.p_hint + 1))
        if kind < 0.4:
            op = self.rng.choice(("<", "<=", ">", ">="))
            return App(Prim(op), Pair(pid, bound))
        if kind < 0.8:
            op = self.rng.choice(("=", "<>"))
            return App(Prim(op), Pair(pid, bound))
        modulus = Const(self.rng.randrange(2, 4))
        return App(
            Prim("="),
            Pair(App(Prim("mod"), Pair(pid, modulus)), Const(0)),
        )

    def _lambda(self, target: TArrow, scope: _Scope, depth: int, local: bool) -> Expr:
        name = scope.fresh(target.domain)
        body = self._gen(target.codomain, scope, depth - 1, local)
        scope.drop(target.domain, name)
        return Fun(name, body)

    def _if(self, target: Type, scope: _Scope, depth: int, local: bool) -> Expr:
        return If(
            self._gen(BOOL, scope, depth - 1, local),
            self._gen(target, scope, depth - 1, local),
            self._gen(target, scope, depth - 1, local),
        )

    def _let(self, target: Type, scope: _Scope, depth: int, local: bool) -> Expr:
        if self.divergence and not local:
            # Mixed uniform/divergent supersteps: a let-bound vector is
            # computed in its own superstep(s) and can be reused by a
            # later ``apply`` through the variable producers.
            bound_ty = self.rng.choice(self.LOCAL_GROUND + (TPar(INT),))
        else:
            bound_ty = self.rng.choice(self.LOCAL_GROUND)
        bound = self._gen(bound_ty, scope, depth - 1, local)
        name = scope.fresh(bound_ty)
        body = self._gen(target, scope, depth - 1, local)
        scope.drop(bound_ty, name)
        return Let(name, bound, body)

    def _projection(self, target: Type, scope: _Scope, depth: int, local: bool) -> Expr:
        other = self.rng.choice(self.LOCAL_GROUND)
        if self.rng.random() < 0.5:
            pair = self._gen(TPair(target, other), scope, depth - 1, local)
            return App(Prim("fst"), pair)
        pair = self._gen(TPair(other, target), scope, depth - 1, local)
        return App(Prim("snd"), pair)

    def _injection(self, target: TSum, scope: _Scope, depth: int, local: bool) -> Expr:
        if self.rng.random() < 0.5:
            return Inl(self._gen(target.left, scope, depth - 1, local))
        return Inr(self._gen(target.right, scope, depth - 1, local))

    def _case(self, target: Type, scope: _Scope, depth: int, local: bool) -> Expr:
        left_ty = self.rng.choice((INT, BOOL))
        right_ty = self.rng.choice((INT, BOOL))
        scrutinee = self._gen(TSum(left_ty, right_ty), scope, depth - 1, local)
        left_name = scope.fresh(left_ty)
        left_body = self._gen(target, scope, depth - 1, local)
        scope.drop(left_ty, left_name)
        right_name = scope.fresh(right_ty)
        right_body = self._gen(target, scope, depth - 1, local)
        scope.drop(right_ty, right_name)
        return Case(scrutinee, left_name, left_body, right_name, right_body)

    def _mkpar(self, target: TPar, scope: _Scope, depth: int) -> Expr:
        name = scope.fresh(INT)
        self._pids.append(name)
        try:
            body = self._gen(target.content, scope, depth - 1, local=True)
        finally:
            self._pids.pop()
            scope.drop(INT, name)
        return App(Prim("mkpar"), Fun(name, body))

    def _apply(self, target: TPar, scope: _Scope, depth: int) -> Expr:
        domain = self.rng.choice(self.LOCAL_GROUND)
        fns = self._mkpar(TPar(TArrow(domain, target.content)), scope, depth - 1)
        args = self._gen(TPar(domain), scope, depth - 1, local=False)
        return App(Prim("apply"), Pair(fns, args))

    def _ifat(self, target: TPar, scope: _Scope, depth: int) -> Expr:
        vec = self._gen(TPar(BOOL), scope, depth - 1, local=False)
        proc = Const(self.rng.randrange(self.p_hint))
        return IfAt(
            vec,
            proc,
            self._gen(target, scope, depth - 1, local=False),
            self._gen(target, scope, depth - 1, local=False),
        )

    # -- negative mutation -------------------------------------------------------

    def mutate_to_nesting(self, depth: int = 3) -> Expr:
        """A program that is *ill-typed by nesting*: a global subterm is
        computed (and discarded or returned) under ``mkpar``."""
        inner_global = self.of_type(TPar(INT), depth)
        shape = self.rng.randrange(3)
        if shape == 0:
            # example1 shape: return the vector itself from the component.
            return App(Prim("mkpar"), fun("pid", inner_global))
        if shape == 1:
            # example2 shape: bind it, return something local.
            return App(
                Prim("mkpar"),
                fun("pid", Let("this", inner_global, Var("pid"))),
            )
        # fourth-projection shape: hide it in a discarded pair slot.
        return App(Prim("fst"), Pair(Const(self.rng.randrange(10)), inner_global))

    # -- per-pid partial failure --------------------------------------------------

    def partial_failure(self, depth: int = 3) -> Expr:
        """A well-typed parallel program in which exactly one pid raises
        (division by zero) while the others compute normally — the
        per-pid error-parity workload: every engine must surface the
        same error at the same superstep,
        committing nothing from the failed superstep into the cost."""
        victim = self.rng.randrange(self.p_hint)
        scope = _Scope()
        name = scope.fresh(INT)
        self._pids.append(name)
        try:
            safe = self._gen(INT, scope, depth - 1, local=True)
        finally:
            self._pids.pop()
            scope.drop(INT, name)
        poison = App(Prim("/"), Pair(Const(100), Const(0)))
        body = If(
            App(Prim("="), Pair(Var(name), Const(victim))), poison, safe
        )
        return App(Prim("mkpar"), Fun(name, body))
