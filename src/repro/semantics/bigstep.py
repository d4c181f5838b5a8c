"""Big-step (natural-semantics) evaluator with BSP cost accounting.

Semantically equivalent to the small-step machine (property-tested on a
shared corpus) but environment-based, so it runs large programs and —
given a :class:`~repro.bsp.machine.BspMachine` — accounts the BSP cost of
every parallel operation:

* ``mkpar`` / ``apply`` run their per-component computations "on" each
  process: the work is charged to that process's ``w_i``;
* replicated (outside-vector) computation is charged to every process,
  as in an SPMD execution of BSML;
* ``put`` evaluates each sender's message function at every destination
  (charged to the sender), then performs the exchange: the machine
  records the h-relation and the barrier — one superstep ends;
* ``if ... at n ...`` broadcasts one boolean from process ``n`` (an
  ``h = 1`` relation) and passes a barrier, as the paper prescribes for
  the synchronous conditional.

The unit of work is one charge per application, conditional, ``let`` and
primitive reduction — the same currency as the paper's ``w_i`` "local
processing time" up to a constant factor, which is all the cost-shape
experiments need.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from repro.bsp.machine import BspMachine
from repro.lang.limits import deep_recursion
from repro.lang.ast import (
    Annot,
    App,
    Case,
    Const,
    Inl,
    Inr,
    Expr,
    Fun,
    If,
    IfAt,
    Let,
    Pair,
    ParVec,
    Prim,
    Tuple as TupleE,
    Var,
)
from repro.semantics.errors import DynamicNestingError, EvalError
from repro.semantics.primops import (
    BINARY_SCALAR,
    PARALLEL_PRIMS,
    apply_binary,
    assign_ref,
    deref_ref,
)
from repro.semantics.values import (
    NC_VALUE,
    Value,
    VClosure,
    VDelivered,
    VInl,
    VInr,
    VNc,
    VPair,
    VParVec,
    VPrim,
    VRef,
    VTuple,
    words,
)

Env = Dict[str, Value]


class Evaluator:
    """One evaluation session at machine size ``p``.

    ``machine`` is optional: without it the evaluator just computes the
    value; with it every parallel operation and unit of work is accounted
    into the machine's running :class:`~repro.bsp.cost.BspCost`.
    """

    def __init__(self, p: int, machine: Optional[BspMachine] = None) -> None:
        if machine is not None and machine.p != p:
            raise ValueError(f"machine width {machine.p} differs from p={p}")
        self.p = p
        self.machine = machine
        self._proc: Optional[int] = None  # None = replicated (global) context
        # Component mode: a shadow evaluator running one process's share
        # of a parallel operation as a machine task counts its ops
        # locally; the machine folds them in afterwards, in process
        # order, so the cost does not depend on the task schedule.
        self._counting = False
        self._counted_ops = 0.0

    # -- cost plumbing ------------------------------------------------------

    def _charge(self, ops: float = 1.0) -> None:
        if self._counting:
            self._counted_ops += ops
            return
        if self.machine is None:
            return
        if self._proc is None:
            self.machine.replicated(ops)
        else:
            self.machine.local(self._proc, ops)

    def _on_proc(self, proc: int):
        return _ProcContext(self, proc)

    def _require_global(self, operation: str) -> None:
        if self._proc is not None:
            raise DynamicNestingError(Prim(operation), self._proc)

    # -- evaluation ----------------------------------------------------------

    def eval(self, expr: Expr, env: Optional[Env] = None) -> Value:
        from repro.lang.limits import deep_recursion

        with deep_recursion():
            return self._eval(expr, env or {})

    def _eval(self, expr: Expr, env: Env) -> Value:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise EvalError(f"unbound variable {expr.name!r}") from None
        if isinstance(expr, Prim):
            if expr.name == "nproc":
                return self.p
            return VPrim(expr.name)
        if isinstance(expr, Fun):
            return VClosure(expr.param, expr.body, env)
        if isinstance(expr, Let):
            self._charge()
            bound = self._eval(expr.bound, env)
            return self._eval(expr.body, {**env, expr.name: bound})
        if isinstance(expr, Pair):
            return VPair(self._eval(expr.first, env), self._eval(expr.second, env))
        if isinstance(expr, TupleE):
            return VTuple(tuple(self._eval(item, env) for item in expr.items))
        if isinstance(expr, If):
            self._charge()
            condition = self._eval(expr.cond, env)
            if not isinstance(condition, bool):
                raise EvalError("conditional on a non-boolean value")
            branch = expr.then_branch if condition else expr.else_branch
            return self._eval(branch, env)
        if isinstance(expr, Inl):
            return VInl(self._eval(expr.value, env))
        if isinstance(expr, Inr):
            return VInr(self._eval(expr.value, env))
        if isinstance(expr, Case):
            self._charge()
            scrutinee = self._eval(expr.scrutinee, env)
            if isinstance(scrutinee, VInl):
                return self._eval(
                    expr.left_body, {**env, expr.left_name: scrutinee.value}
                )
            if isinstance(scrutinee, VInr):
                return self._eval(
                    expr.right_body, {**env, expr.right_name: scrutinee.value}
                )
            raise EvalError("case on a non-sum value")
        if isinstance(expr, Annot):
            return self._eval(expr.expr, env)
        if isinstance(expr, IfAt):
            return self._eval_ifat(expr, env)
        if isinstance(expr, App):
            self._charge()
            fn = self._eval(expr.fn, env)
            arg = self._eval(expr.arg, env)
            return self.apply(fn, arg)
        if isinstance(expr, ParVec):
            if self.machine is not None:
                tasks = [
                    partial(_literal_task, self.p, i, item, env)
                    for i, item in enumerate(expr.items)
                ]
                return VParVec(tuple(self.machine.run_superstep(tasks)))
            components = []
            for i, item in enumerate(expr.items):
                with self._on_proc(i):
                    components.append(self._eval(item, env))
            return VParVec(tuple(components))
        raise EvalError(f"cannot evaluate node {type(expr).__name__}")

    # -- application ----------------------------------------------------------

    def apply(self, fn: Value, arg: Value) -> Value:
        if isinstance(fn, VClosure):
            return self._eval(fn.body, {**fn.env, fn.param: arg})
        if isinstance(fn, VDelivered):
            if isinstance(arg, bool) or not isinstance(arg, int):
                raise EvalError("a delivered-messages function expects an int")
            return fn.lookup(arg)
        if isinstance(fn, VPrim):
            return self._apply_prim(fn.name, arg)
        raise EvalError(f"cannot apply a non-function ({type(fn).__name__})")

    def _apply_prim(self, name: str, arg: Value) -> Value:
        if name in BINARY_SCALAR:
            if not isinstance(arg, VPair):
                raise EvalError(f"operator {name!r} expects a pair")
            return apply_binary(name, arg.first, arg.second)
        if name == "not":
            if not isinstance(arg, bool):
                raise EvalError("'not' expects a boolean")
            return not arg
        if name == "fst":
            if not isinstance(arg, VPair):
                raise EvalError("'fst' expects a pair")
            return arg.first
        if name == "snd":
            if not isinstance(arg, VPair):
                raise EvalError("'snd' expects a pair")
            return arg.second
        if name == "nc":
            return NC_VALUE
        if name == "isnc":
            return isinstance(arg, VNc)
        if name == "fix":
            return self._fix(arg)
        if name == "ref":
            return VRef(cells=[arg] * self.p, origin=self._proc)
        if name == "!":
            return self._deref(arg)
        if name == ":=":
            if not (isinstance(arg, VPair) and isinstance(arg.first, VRef)):
                raise EvalError("':=' expects a (reference, value) pair")
            return self._assign(arg.first, arg.second)
        if name in PARALLEL_PRIMS:
            self._require_global(name)
            if name == "mkpar":
                return self._mkpar(arg)
            if name == "apply":
                return self._parallel_apply(arg)
            return self._put(arg)
        raise EvalError(f"unknown primitive {name!r}")

    def _deref(self, ref: Value) -> Value:
        return deref_ref(ref, self._proc, self.p)

    def _assign(self, ref: VRef, value: Value) -> Value:
        return assign_ref(ref, value, self._proc, self.p)

    def _fix(self, fn: Value) -> Value:
        """Call-by-value fixpoint: ``fix (fun f -> fun x -> e)`` ties the
        recursive closure's knot through its own environment."""
        if not isinstance(fn, VClosure):
            raise EvalError("'fix' expects a function")
        if not isinstance(fn.body, Fun):
            raise EvalError(
                "'fix' needs a functional body (fix (fun f -> fun x -> ...)); "
                "any other call-by-value fixpoint diverges"
            )
        env: Env = dict(fn.env)
        recursive = VClosure(fn.body.param, fn.body.body, env)
        env[fn.param] = recursive
        return recursive

    # -- the parallel operations ----------------------------------------------

    def _mkpar(self, fn: Value) -> Value:
        if self.machine is not None:
            tasks = [
                partial(_component_task, self.p, i, fn, i) for i in range(self.p)
            ]
            return VParVec(tuple(self.machine.run_superstep(tasks)))
        components = []
        for i in range(self.p):
            with self._on_proc(i):
                self._charge()
                components.append(self.apply(fn, i))
        return VParVec(tuple(components))

    def _parallel_apply(self, arg: Value) -> Value:
        if not (
            isinstance(arg, VPair)
            and isinstance(arg.first, VParVec)
            and isinstance(arg.second, VParVec)
        ):
            raise EvalError("'apply' expects a pair of parallel vectors")
        fns, values = arg.first, arg.second
        if self.machine is not None:
            tasks = [
                partial(_component_task, self.p, i, fns.items[i], values.items[i])
                for i in range(self.p)
            ]
            return VParVec(tuple(self.machine.run_superstep(tasks)))
        components = []
        for i in range(self.p):
            with self._on_proc(i):
                self._charge()
                components.append(self.apply(fns.items[i], values.items[i]))
        return VParVec(tuple(components))

    def _put(self, arg: Value) -> Value:
        if not isinstance(arg, VParVec):
            raise EvalError("'put' expects a parallel vector of functions")
        p = self.p
        # Computation phase: sender j evaluates its message for every dst.
        if self.machine is not None:
            tasks = [
                partial(_put_row_task, p, j, arg.items[j]) for j in range(p)
            ]
            outgoing = self.machine.run_superstep(tasks)
        else:
            outgoing = []  # outgoing[j][i] = value from j to i
            for j in range(p):
                with self._on_proc(j):
                    row = []
                    for i in range(p):
                        self._charge()
                        row.append(self.apply(arg.items[j], i))
                    outgoing.append(row)
        # Communication + synchronization phase.
        if self.machine is not None:
            sent = [
                [
                    0 if isinstance(outgoing[j][i], VNc) else words(outgoing[j][i])
                    for i in range(p)
                ]
                for j in range(p)
            ]
            self.machine.exchange(sent, label="put")
        # Delivery: process i's function of received messages.
        return VParVec(
            tuple(
                VDelivered(tuple(outgoing[j][i] for j in range(p)))
                for i in range(p)
            )
        )

    def _eval_ifat(self, expr: IfAt, env: Env) -> Value:
        self._require_global("ifat")
        vec = self._eval(expr.vec, env)
        proc = self._eval(expr.proc, env)
        if not isinstance(vec, VParVec):
            raise EvalError("'if ... at' needs a parallel vector of booleans")
        if isinstance(proc, bool) or not isinstance(proc, int):
            raise EvalError("'if ... at' needs an integer process index")
        if not 0 <= proc < self.p:
            raise EvalError(
                f"'if ... at' process index {proc} out of range (p = {self.p})"
            )
        chosen = vec.items[proc]
        if not isinstance(chosen, bool):
            raise EvalError("'if ... at' vector holds a non-boolean")
        if self.machine is not None:
            # Broadcast one boolean from ``proc`` to everyone, then barrier.
            sent = [[0] * self.p for _ in range(self.p)]
            for destination in range(self.p):
                if destination != proc:
                    sent[proc][destination] = 1
            self.machine.exchange(sent, label="if-at")
        branch = expr.then_branch if chosen else expr.else_branch
        return self._eval(branch, env)


# -- per-process tasks for the machine's computation phases ------------------
#
# Module-level functions building one process's share of a parallel
# operation, bound with ``functools.partial``.  Each creates a *shadow*
# evaluator: machine-less, pinned to the process, counting its ops locally.  The shadow enforces
# the same locality discipline as the in-line path (its ``_proc`` is set,
# so any nested parallel construct raises ``DynamicNestingError``), and
# the op totals it returns are exactly what the in-line path would have
# charged, so the folded cost is identical under every schedule.


def _shadow(p: int, proc: int) -> Evaluator:
    shadow = Evaluator(p)
    shadow._proc = proc
    shadow._counting = True
    return shadow


def _component_task(p: int, proc: int, fn: Value, arg: Value):
    """One ``mkpar``/``apply`` component: apply ``fn`` to ``arg`` on ``proc``."""
    shadow = _shadow(p, proc)
    with deep_recursion():
        shadow._charge()
        value = shadow.apply(fn, arg)
    return value, shadow._counted_ops


def _put_row_task(p: int, proc: int, sender: Value):
    """One ``put`` sender: evaluate its message for every destination."""
    shadow = _shadow(p, proc)
    with deep_recursion():
        row = []
        for destination in range(p):
            shadow._charge()
            row.append(shadow.apply(sender, destination))
    return row, shadow._counted_ops


def _literal_task(p: int, proc: int, item: Expr, env: Env):
    """One component of a literal parallel-vector expression."""
    shadow = _shadow(p, proc)
    with deep_recursion():
        value = shadow._eval(item, env)
    return value, shadow._counted_ops


class _ProcContext:
    """Scoped switch of the evaluator's current process."""

    def __init__(self, evaluator: Evaluator, proc: int) -> None:
        self.evaluator = evaluator
        self.proc = proc
        self.saved: Optional[int] = None

    def __enter__(self) -> None:
        self.saved = self.evaluator._proc
        if self.saved is not None:
            raise DynamicNestingError(Prim("mkpar"), self.saved)
        self.evaluator._proc = self.proc

    def __exit__(self, *exc_info) -> None:
        self.evaluator._proc = self.saved


def run(
    expr: Expr,
    p: int,
    machine: Optional[BspMachine] = None,
    env: Optional[Env] = None,
) -> Value:
    """Evaluate ``expr`` on a ``p``-process machine (one-shot helper)."""
    return Evaluator(p, machine).eval(expr, env)
