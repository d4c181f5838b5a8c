"""Closure-compiling evaluator with slot-indexed environments.

The big-step evaluator (:mod:`repro.semantics.bigstep`) walks the AST on
every evaluation: each node pays an ``isinstance`` dispatch chain and
every variable a dict lookup in a freshly copied environment.  This
module lowers a mini-BSML expression **once** into nested Python
closures — one ``step(rt, frame)`` callable per AST node — and then
runs the closures:

* **slot-indexed environments** — every binder (function parameter,
  ``let``, ``case`` branch) is resolved at compile time to an integer
  slot of a flat per-activation frame, laid out ``[argument, *captured
  cells, *let slots]``; variable access is a list index, closure
  creation copies exactly the captured free variables (de Bruijn-style,
  but keeping names for diagnostics and reification);
* **no per-node dispatch** — the ``isinstance`` chain runs once, at
  compile time; at run time each node is a direct call;
* **constant folding** — a closed subexpression that provably terminates
  (no functions, no parallel/imperative primitives) and evaluates to a
  scalar is evaluated at compile time; the folded step returns the value
  and charges the *statically counted* ops, so the :class:`BspCost` is
  bit-identical to the tree engine's (integer-valued float sums are
  exact, and :meth:`BspMachine.local`/``replicated`` accumulate
  commutatively within a superstep);
* **fast paths for saturated binary primitives** — ``e1 + e2`` (really
  ``App(Prim("+"), Pair(e1, e2))``) skips the ``VPrim``/``VPair``
  allocations and dispatches straight to the operator with the same
  dynamic kind checks.

**Cost conformance is the design invariant.**  The compiled engine makes
*exactly* the same :class:`~repro.bsp.machine.BspMachine` calls as the
tree engine, in the same program order: one charge per application /
conditional / ``let`` / primitive reduction, per-component tasks through
:meth:`~repro.bsp.machine.BspMachine.run_superstep` (abstract op counts
computed inside the tasks, so every backend agrees), the same exchange
matrices under the same labels for ``put`` and ``if ... at``.  Fault
plans draw machine-side in program order, so an armed
:class:`~repro.bsp.faults.FaultPlan` replays the identical schedule
under either engine, and the structured trace's
:meth:`~repro.obs.tracer.Trace.abstract_signature` is bit-identical too.
The conformance harness (:func:`repro.testing.conform`) enforces all
three equalities across engines × backends.

Error behaviour is preserved *including timing*: an unbound variable, an
unknown node, or a subexpression that would raise is compiled to a step
that raises when (and only when) the tree engine would have reached it —
constant folding is abandoned whenever compile-time evaluation raises.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bsp.machine import BspMachine
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
    UnitType,
    Var,
)
from repro.lang.limits import deep_recursion
from repro.lang.substitution import free_vars
from repro.semantics.bigstep import Evaluator
from repro.semantics.errors import DynamicNestingError, EvalError
from repro.semantics.primops import (
    ARITHMETIC,
    BINARY_SCALAR,
    BOOLEAN,
    COMPARISON,
    PARALLEL_PRIMS,
    apply_binary,
    assign_ref,
    deref_ref,
)
from repro.semantics.values import (
    NC_VALUE,
    Value,
    VCompiledClosure,
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

#: The evaluation engines, in documentation order.  ``tree`` is the
#: environment-passing big-step evaluator (the cost oracle the
#: conformance sweeps compare against); ``compiled`` is this module's
#: engine and the product default.
ENGINES = ("tree", "compiled")


def get_engine(name: str):
    """The evaluator class for ``name`` (one of :data:`ENGINES`).

    All engine classes share the ``(p, machine)`` constructor and the
    ``eval(expr, env)`` / ``apply(fn, arg)`` surface, so callers switch
    engines without touching anything else.
    """
    if name == "tree":
        return Evaluator
    if name == "compiled":
        return CompiledEvaluator
    raise ValueError(
        f"unknown engine {name!r} (choose from {', '.join(ENGINES)})"
    )


# -- runtime context ----------------------------------------------------------


class _Runtime:
    """The threaded evaluation context of one compiled-program run.

    Mirrors the mutable state of :class:`~repro.semantics.bigstep
    .Evaluator`: the machine (None = uncosted), the current process
    (None = replicated/global context), and the component-counting mode
    used by per-process tasks on the execution backends.
    """

    __slots__ = ("p", "machine", "proc", "counting", "counted")

    def __init__(
        self,
        p: int,
        machine: Optional[BspMachine] = None,
        proc: Optional[int] = None,
        counting: bool = False,
    ) -> None:
        self.p = p
        self.machine = machine
        self.proc = proc
        self.counting = counting
        self.counted = 0.0

    def charge(self, ops: float = 1.0) -> None:
        if self.counting:
            self.counted += ops
            return
        machine = self.machine
        if machine is None:
            return
        if self.proc is None:
            machine.replicated(ops)
        else:
            machine.local(self.proc, ops)

    def require_global(self, operation: str) -> None:
        if self.proc is not None:
            raise DynamicNestingError(Prim(operation), self.proc)


# -- compile-time scope -------------------------------------------------------

_MISSING = object()


class _Scope:
    """Name-to-slot map of one frame (a function body or the program).

    ``bind`` appends a fresh slot (binders never share slots, so a
    parallel-vector literal's components can run concurrently against
    the one shared frame) and returns the shadowed entry for ``unbind``
    to restore — lexical shadowing resolved entirely at compile time.
    """

    __slots__ = ("slots", "size")

    def __init__(self, names: Sequence[str]) -> None:
        self.slots: Dict[str, int] = {
            name: index for index, name in enumerate(names)
        }
        self.size = len(names)

    def bind(self, name: str) -> Tuple[int, object]:
        slot = self.size
        self.size += 1
        previous = self.slots.get(name, _MISSING)
        self.slots[name] = slot
        return slot, previous

    def unbind(self, name: str, previous: object) -> None:
        if previous is _MISSING:
            del self.slots[name]
        else:
            self.slots[name] = previous


# -- constant folding ---------------------------------------------------------

#: Primitives whose presence makes a subtree unfoldable: effects
#: (references), communication (the parallel primitives), and ``fix``
#: (the only source of divergence once ``Fun`` nodes are excluded).
_FOLD_BANNED_PRIMS = frozenset(("fix", "ref", "!", ":=", "mkpar", "apply", "put"))


def _foldable_shape(expr: Expr) -> bool:
    """True when ``expr`` contains no functions, no parallel constructs
    and no banned primitives — a syntactic termination/purity guarantee
    (applications can only saturate scalar primitives)."""
    for node in expr.walk():
        if isinstance(node, (Fun, ParVec, IfAt)):
            return False
        if isinstance(node, Prim) and node.name in _FOLD_BANNED_PRIMS:
            return False
    return True


def fold_constant(expr: Expr, p: int) -> Optional[Tuple[Value, float]]:
    """Evaluate a foldable subtree at compile time: ``(value, ops)``,
    or None when ``expr`` must run.

    Only closed (no free variables), syntactically terminating subtrees
    whose value is a scalar fold.  The ops a tree evaluation would have
    charged are counted by a counting shadow evaluator.  If compile-time
    evaluation raises *anything*, folding is abandoned so the error
    still happens at run time, exactly when the tree engine reaches it
    (or never, in an untaken branch).
    """
    if isinstance(expr, (Const, Var, Prim, Fun)):
        return None  # leaves compile to direct steps already
    if free_vars(expr):
        return None
    if not _foldable_shape(expr):
        return None
    shadow = Evaluator(p)
    shadow._counting = True
    try:
        value = shadow._eval(expr, {})
    except Exception:
        return None
    if not isinstance(value, (bool, int, UnitType)):
        return None
    return value, shadow._counted_ops


def _try_fold(expr: Expr, p: int):
    """Compile ``expr`` to a precomputed step, or None when it must run.

    The folded step charges the statically counted ops as a lump, so
    the sum lands on the same processes in the same superstep and
    :class:`BspCost` stays bit-identical to the tree engine (sums of
    1.0 are exact floats).
    """
    folded = fold_constant(expr, p)
    if folded is None:
        return None
    value, ops = folded
    if ops:

        def step(rt, frame):
            rt.charge(ops)
            return value

        return step

    def step(rt, frame):
        return value

    return step


# -- the compiler -------------------------------------------------------------


def _compile(expr: Expr, scope: _Scope, p: int) -> Callable:
    folded = _try_fold(expr, p)
    if folded is not None:
        return folded

    if isinstance(expr, Var):
        slot = scope.slots.get(expr.name)
        if slot is None:
            name = expr.name

            def step(rt, frame):
                raise EvalError(f"unbound variable {name!r}")

            return step

        def step(rt, frame):
            return frame[slot]

        return step

    if isinstance(expr, Const):
        value = expr.value

        def step(rt, frame):
            return value

        return step

    if isinstance(expr, Prim):
        if expr.name == "nproc":

            def step(rt, frame):
                return rt.p

            return step
        prim = VPrim(expr.name)

        def step(rt, frame):
            return prim

        return step

    if isinstance(expr, Fun):
        return _compile_fun(expr, scope, p)

    if isinstance(expr, App):
        return _compile_app(expr, scope, p)

    if isinstance(expr, Let):
        bound_step = _compile(expr.bound, scope, p)
        slot, saved = scope.bind(expr.name)
        body_step = _compile(expr.body, scope, p)
        scope.unbind(expr.name, saved)

        def step(rt, frame):
            rt.charge()
            frame[slot] = bound_step(rt, frame)
            return body_step(rt, frame)

        return step

    if isinstance(expr, Pair):
        first_step = _compile(expr.first, scope, p)
        second_step = _compile(expr.second, scope, p)

        def step(rt, frame):
            return VPair(first_step(rt, frame), second_step(rt, frame))

        return step

    if isinstance(expr, TupleE):
        item_steps = [_compile(item, scope, p) for item in expr.items]

        def step(rt, frame):
            return VTuple(tuple(item(rt, frame) for item in item_steps))

        return step

    if isinstance(expr, If):
        cond_step = _compile(expr.cond, scope, p)
        then_step = _compile(expr.then_branch, scope, p)
        else_step = _compile(expr.else_branch, scope, p)

        def step(rt, frame):
            rt.charge()
            condition = cond_step(rt, frame)
            if condition is True:
                return then_step(rt, frame)
            if condition is False:
                return else_step(rt, frame)
            raise EvalError("conditional on a non-boolean value")

        return step

    if isinstance(expr, Inl):
        inner_step = _compile(expr.value, scope, p)

        def step(rt, frame):
            return VInl(inner_step(rt, frame))

        return step

    if isinstance(expr, Inr):
        inner_step = _compile(expr.value, scope, p)

        def step(rt, frame):
            return VInr(inner_step(rt, frame))

        return step

    if isinstance(expr, Case):
        scrutinee_step = _compile(expr.scrutinee, scope, p)
        left_slot, saved = scope.bind(expr.left_name)
        left_step = _compile(expr.left_body, scope, p)
        scope.unbind(expr.left_name, saved)
        right_slot, saved = scope.bind(expr.right_name)
        right_step = _compile(expr.right_body, scope, p)
        scope.unbind(expr.right_name, saved)

        def step(rt, frame):
            rt.charge()
            scrutinee = scrutinee_step(rt, frame)
            if isinstance(scrutinee, VInl):
                frame[left_slot] = scrutinee.value
                return left_step(rt, frame)
            if isinstance(scrutinee, VInr):
                frame[right_slot] = scrutinee.value
                return right_step(rt, frame)
            raise EvalError("case on a non-sum value")

        return step

    if isinstance(expr, Annot):
        return _compile(expr.expr, scope, p)

    if isinstance(expr, IfAt):
        return _compile_ifat(expr, scope, p)

    if isinstance(expr, ParVec):
        return _compile_parvec(expr, scope, p)

    kind = type(expr).__name__

    def step(rt, frame):
        raise EvalError(f"cannot evaluate node {kind}")

    return step


def _compile_fun(expr: Fun, scope: _Scope, p: int) -> Callable:
    param, body = expr.param, expr.body
    capture_names = tuple(
        sorted(
            name
            for name in free_vars(body) - {param}
            if name in scope.slots
        )
    )
    capture_slots = [scope.slots[name] for name in capture_names]
    inner = _Scope((param,) + capture_names)
    body_step = _compile(body, inner, p)
    frame_size = inner.size

    if not capture_slots:

        def step(rt, frame):
            return VCompiledClosure(param, body, body_step, frame_size, (), [])

        return step

    def step(rt, frame):
        return VCompiledClosure(
            param,
            body,
            body_step,
            frame_size,
            capture_names,
            [frame[slot] for slot in capture_slots],
        )

    return step


def _compile_app(expr: App, scope: _Scope, p: int) -> Callable:
    fn, arg = expr.fn, expr.arg
    if isinstance(fn, Prim) and fn.name != "nproc":
        name = fn.name
        if name in BINARY_SCALAR and isinstance(arg, Pair):
            # Saturated binary primitive: skip the VPrim and VPair
            # allocations and the dispatch chain.  Charge and operand
            # order match the tree engine (App charges 1; Prim and Pair
            # charge 0; left operand first), and the dynamic kind
            # checks raise the exact apply_binary messages.
            left_step = _compile(arg.first, scope, p)
            right_step = _compile(arg.second, scope, p)
            op = BINARY_SCALAR[name]
            if name in BOOLEAN:

                def step(rt, frame):
                    rt.charge()
                    left = left_step(rt, frame)
                    right = right_step(rt, frame)
                    if not (left is True or left is False) or not (
                        right is True or right is False
                    ):
                        raise EvalError(f"operator {name!r} expects booleans")
                    return op(left, right)

                return step

            def step(rt, frame):
                rt.charge()
                left = left_step(rt, frame)
                right = right_step(rt, frame)
                if (
                    left is True
                    or left is False
                    or right is True
                    or right is False
                    or not isinstance(left, int)
                    or not isinstance(right, int)
                ):
                    raise EvalError(f"operator {name!r} expects integers")
                return op(left, right)

            return step
        # A primitive in function position evaluates to itself, so skip
        # straight to its application rule.
        arg_step = _compile(arg, scope, p)

        def step(rt, frame):
            rt.charge()
            return _apply_prim_value(rt, name, arg_step(rt, frame))

        return step

    fn_step = _compile(fn, scope, p)
    arg_step = _compile(arg, scope, p)

    def step(rt, frame):
        rt.charge()
        fn_value = fn_step(rt, frame)
        arg_value = arg_step(rt, frame)
        if type(fn_value) is VCompiledClosure:
            call_frame = [None] * fn_value.frame_size
            call_frame[0] = arg_value
            cells = fn_value.cells
            if cells:
                call_frame[1 : 1 + len(cells)] = cells
            return fn_value.code(rt, call_frame)
        return _apply_slow(rt, fn_value, arg_value)

    return step


# -- application --------------------------------------------------------------


def _call_closure(rt: _Runtime, closure: VCompiledClosure, arg: Value) -> Value:
    frame = [None] * closure.frame_size
    frame[0] = arg
    cells = closure.cells
    if cells:
        frame[1 : 1 + len(cells)] = cells
    return closure.code(rt, frame)


def apply_value(rt: _Runtime, fn: Value, arg: Value) -> Value:
    """Apply ``fn`` to ``arg`` — the compiled engine's beta/delta rule."""
    if type(fn) is VCompiledClosure:
        return _call_closure(rt, fn, arg)
    return _apply_slow(rt, fn, arg)


def _apply_slow(rt: _Runtime, fn: Value, arg: Value) -> Value:
    if isinstance(fn, VDelivered):
        if isinstance(arg, bool) or not isinstance(arg, int):
            raise EvalError("a delivered-messages function expects an int")
        return fn.lookup(arg)
    if isinstance(fn, VPrim):
        return _apply_prim_value(rt, fn.name, arg)
    raise EvalError(f"cannot apply a non-function ({type(fn).__name__})")


def _apply_prim_value(rt: _Runtime, name: str, arg: Value) -> Value:
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
        return fix_value(rt.p, arg)
    if name == "ref":
        return VRef(cells=[arg] * rt.p, origin=rt.proc)
    if name == "!":
        return deref_ref(arg, rt.proc, rt.p)
    if name == ":=":
        if not (isinstance(arg, VPair) and isinstance(arg.first, VRef)):
            raise EvalError("':=' expects a (reference, value) pair")
        return assign_ref(arg.first, arg.second, rt.proc, rt.p)
    if name in PARALLEL_PRIMS:
        rt.require_global(name)
        if name == "mkpar":
            return _mkpar(rt, arg)
        if name == "apply":
            return _parallel_apply(rt, arg)
        return _put(rt, arg)
    raise EvalError(f"unknown primitive {name!r}")


def fix_value(p: int, fn: Value) -> Value:
    """Call-by-value fixpoint over a compiled closure.

    The knot is tied by *patching*: the outer
    closure's body is a ``Fun`` node, so invoking its compiled code
    (zero charge — closure creation costs nothing) yields the inner
    closure with a placeholder in the self-capture cell, which is then
    replaced by the inner closure itself.  Later activations copy the
    patched cell into their frames, so recursion works at any depth.
    """
    if not isinstance(fn, VCompiledClosure):
        raise EvalError("'fix' expects a function")
    if not isinstance(fn.body, Fun):
        raise EvalError(
            "'fix' needs a functional body (fix (fun f -> fun x -> ...)); "
            "any other call-by-value fixpoint diverges"
        )
    inner = _call_closure(_Runtime(p), fn, None)
    for index, name in enumerate(inner.capture_names):
        if name == fn.param:
            inner.cells[index] = inner
    return inner


# -- the parallel operations --------------------------------------------------
#
# These mirror the tree engine's machine interactions call for call: the
# same run_superstep task structure with identical per-task op counts,
# the same exchange matrices under the same labels.  The per-process
# tasks are module-level functions bound with ``functools.partial``.


def _component_task(p: int, proc: int, fn: Value, arg: Value):
    """One ``mkpar``/``apply`` component: apply ``fn`` to ``arg`` on ``proc``."""
    rt = _Runtime(p, proc=proc, counting=True)
    with deep_recursion():
        rt.charge()
        value = apply_value(rt, fn, arg)
    return value, rt.counted


def _put_row_task(p: int, proc: int, sender: Value):
    """One ``put`` sender: evaluate its message for every destination."""
    rt = _Runtime(p, proc=proc, counting=True)
    with deep_recursion():
        row = []
        for destination in range(p):
            rt.charge()
            row.append(apply_value(rt, sender, destination))
    return row, rt.counted


def _literal_task(p: int, proc: int, item_step: Callable, frame: list):
    """One component of a literal parallel-vector expression."""
    rt = _Runtime(p, proc=proc, counting=True)
    with deep_recursion():
        value = item_step(rt, frame)
    return value, rt.counted


class _OnProc:
    """Scoped switch of the runtime's current process (sequential,
    machine-less evaluation of per-component work).  Mirrors the tree
    engine's ``_ProcContext``, nested-parallelism rejection included."""

    __slots__ = ("rt", "proc", "saved")

    def __init__(self, rt: _Runtime, proc: int) -> None:
        self.rt = rt
        self.proc = proc
        self.saved: Optional[int] = None

    def __enter__(self) -> None:
        self.saved = self.rt.proc
        if self.saved is not None:
            raise DynamicNestingError(Prim("mkpar"), self.saved)
        self.rt.proc = self.proc

    def __exit__(self, *exc_info) -> None:
        self.rt.proc = self.saved


def _mkpar(rt: _Runtime, fn: Value) -> Value:
    p = rt.p
    if rt.machine is not None:
        tasks = [partial(_component_task, p, i, fn, i) for i in range(p)]
        return VParVec(tuple(rt.machine.run_superstep(tasks)))
    components = []
    for i in range(p):
        with _OnProc(rt, i):
            rt.charge()
            components.append(apply_value(rt, fn, i))
    return VParVec(tuple(components))


def _parallel_apply(rt: _Runtime, arg: Value) -> Value:
    if not (
        isinstance(arg, VPair)
        and isinstance(arg.first, VParVec)
        and isinstance(arg.second, VParVec)
    ):
        raise EvalError("'apply' expects a pair of parallel vectors")
    fns, values = arg.first, arg.second
    p = rt.p
    if rt.machine is not None:
        tasks = [
            partial(_component_task, p, i, fns.items[i], values.items[i])
            for i in range(p)
        ]
        return VParVec(tuple(rt.machine.run_superstep(tasks)))
    components = []
    for i in range(p):
        with _OnProc(rt, i):
            rt.charge()
            components.append(apply_value(rt, fns.items[i], values.items[i]))
    return VParVec(tuple(components))


def _put(rt: _Runtime, arg: Value) -> Value:
    if not isinstance(arg, VParVec):
        raise EvalError("'put' expects a parallel vector of functions")
    p = rt.p
    if rt.machine is not None:
        tasks = [partial(_put_row_task, p, j, arg.items[j]) for j in range(p)]
        outgoing = rt.machine.run_superstep(tasks)
    else:
        outgoing = []
        for j in range(p):
            with _OnProc(rt, j):
                row = []
                for i in range(p):
                    rt.charge()
                    row.append(apply_value(rt, arg.items[j], i))
                outgoing.append(row)
    if rt.machine is not None:
        sent = [
            [
                0 if isinstance(outgoing[j][i], VNc) else words(outgoing[j][i])
                for i in range(p)
            ]
            for j in range(p)
        ]
        rt.machine.exchange(sent, label="put")
    return VParVec(
        tuple(
            VDelivered(tuple(outgoing[j][i] for j in range(p)))
            for i in range(p)
        )
    )


def _compile_ifat(expr: IfAt, scope: _Scope, p: int) -> Callable:
    vec_step = _compile(expr.vec, scope, p)
    proc_step = _compile(expr.proc, scope, p)
    then_step = _compile(expr.then_branch, scope, p)
    else_step = _compile(expr.else_branch, scope, p)

    def step(rt, frame):
        rt.require_global("ifat")
        vec = vec_step(rt, frame)
        proc = proc_step(rt, frame)
        if not isinstance(vec, VParVec):
            raise EvalError("'if ... at' needs a parallel vector of booleans")
        if isinstance(proc, bool) or not isinstance(proc, int):
            raise EvalError("'if ... at' needs an integer process index")
        if not 0 <= proc < rt.p:
            raise EvalError(
                f"'if ... at' process index {proc} out of range (p = {rt.p})"
            )
        chosen = vec.items[proc]
        if not isinstance(chosen, bool):
            raise EvalError("'if ... at' vector holds a non-boolean")
        if rt.machine is not None:
            # Broadcast one boolean from ``proc`` to everyone, then barrier.
            sent = [[0] * rt.p for _ in range(rt.p)]
            for destination in range(rt.p):
                if destination != proc:
                    sent[proc][destination] = 1
            rt.machine.exchange(sent, label="if-at")
        return then_step(rt, frame) if chosen else else_step(rt, frame)

    return step


def _compile_parvec(expr: ParVec, scope: _Scope, p: int) -> Callable:
    item_steps = [_compile(item, scope, p) for item in expr.items]

    def step(rt, frame):
        if rt.machine is not None:
            tasks = [
                partial(_literal_task, rt.p, i, item_step, frame)
                for i, item_step in enumerate(item_steps)
            ]
            return VParVec(tuple(rt.machine.run_superstep(tasks)))
        components = []
        for i, item_step in enumerate(item_steps):
            with _OnProc(rt, i):
                components.append(item_step(rt, frame))
        return VParVec(tuple(components))

    return step


# -- entry points -------------------------------------------------------------


class CompiledProgram:
    """A mini-BSML expression lowered once, runnable many times.

    ``env_names`` are the free names the program may reference (a REPL
    session's definitions); they occupy the first slots of the top-level
    frame and :meth:`run` fills them from the ``env`` mapping.
    """

    def __init__(self, expr: Expr, p: int, env_names: Sequence[str] = ()) -> None:
        self.expr = expr
        self.p = p
        self.env_names = tuple(env_names)
        scope = _Scope(self.env_names)
        self._step = _compile(expr, scope, p)
        self._frame_size = scope.size

    def run(
        self,
        machine: Optional[BspMachine] = None,
        env: Optional[Dict[str, Value]] = None,
    ) -> Value:
        if machine is not None and machine.p != self.p:
            raise ValueError(
                f"machine width {machine.p} differs from p={self.p}"
            )
        frame: List = [None] * self._frame_size
        if self.env_names:
            bindings = env or {}
            for index, name in enumerate(self.env_names):
                frame[index] = bindings[name]
        rt = _Runtime(self.p, machine)
        with deep_recursion():
            return self._step(rt, frame)


def compile_program(
    expr: Expr, p: int, env_names: Sequence[str] = ()
) -> CompiledProgram:
    """Compile ``expr`` for a ``p``-process machine (compile once, run
    many — the compiler itself recurses over the AST)."""
    with deep_recursion():
        return CompiledProgram(expr, p, env_names)


class CompiledEvaluator:
    """Drop-in engine with the :class:`Evaluator` surface.

    ``eval`` compiles then runs; for the compile-once-run-many payoff
    use :func:`compile_program` directly and call
    :meth:`CompiledProgram.run` per execution.
    """

    def __init__(self, p: int, machine: Optional[BspMachine] = None) -> None:
        if machine is not None and machine.p != p:
            raise ValueError(f"machine width {machine.p} differs from p={p}")
        self.p = p
        self.machine = machine

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None) -> Value:
        names = tuple(sorted(env)) if env else ()
        program = compile_program(expr, self.p, names)
        return program.run(self.machine, env)

    def apply(self, fn: Value, arg: Value) -> Value:
        rt = _Runtime(self.p, self.machine)
        with deep_recursion():
            return apply_value(rt, fn, arg)


def run(
    expr: Expr,
    p: int,
    machine: Optional[BspMachine] = None,
    env: Optional[Dict[str, Value]] = None,
) -> Value:
    """Compile and evaluate ``expr`` on a ``p``-process machine."""
    return CompiledEvaluator(p, machine).eval(expr, env)
