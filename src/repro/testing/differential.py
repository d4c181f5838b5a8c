"""Differential conformance harness for the execution backends.

The BSP cost model is deterministic by construction: the abstract op
counts, traffic matrices and superstep structure of a program depend only
on the program, never on scheduling.  So the executor layer
(:mod:`repro.bsp.executor`) admits a brutally effective correctness
check: run the *same* program under every backend and require

* **bit-identical values** (compared by ``repr``, which is structural
  for every runtime value and distinguishes ``True`` from ``1``), and
* **bit-identical cost decompositions** — the full
  :class:`~repro.bsp.cost.BspCost` superstep list, work tuples included
  (wall-clock ``measured`` timings are excluded from
  :class:`~repro.bsp.cost.SuperstepCost` equality precisely so this
  comparison stays exact).

Any divergence is a backend bug, not noise.  This is the "check the
parallel implementation against the sequential specification" discipline
of *Verified Scalable Parallel Computing with Why3* (Proust & Loulergue,
2023), done empirically: :class:`SequentialExecutor` is the reference
semantics and the concurrent backends must be observationally equal.

Programs can be given three ways:

* source text (parsed, optionally prelude-linked, evaluated costed);
* a mini-BSML AST (:class:`~repro.lang.ast.Expr`);
* a Python BSMLlib program — any callable taking a
  :class:`~repro.bsml.primitives.Bsml` context and returning a value.

A program that *raises* still conforms if every backend raises the same
error (same type, same message) — the backends must agree on failure
too.

**Chaos conformance** (:func:`run_chaos`, :func:`assert_chaos_conformance`)
extends the discipline to the fault layer (:mod:`repro.bsp.faults`): the
same program runs once cleanly (the sequential reference) and then on
every backend under a seeded :class:`~repro.bsp.faults.FaultPlan` with a
:class:`~repro.bsp.faults.RetryPolicy`.  Because the plan's decisions are
drawn at machine level in program order, all backends see the *same*
fault schedule, so the verdict is sharp: a **survivable** plan (the run
completes) must be observationally invisible — values and ``BspCost``
bit-identical to the clean reference — and an **unsurvivable** plan must
fail atomically on every backend with the same
:class:`~repro.bsp.faults.SuperstepFault` and the machine rolled back to
its pre-superstep state.

**Engine conformance** (:func:`run_engines`,
:func:`assert_engine_conformance`, :func:`assert_engine_chaos_conformance`)
turns the same discipline on the evaluation engines: the tree-walking
big-step evaluator (the reference semantics) and the closure-compiling
engine (:mod:`repro.semantics.compiled`) must observe the same value,
the same full :class:`~repro.bsp.cost.BspCost` decomposition and the
same abstract trace signature — on every backend, and under armed chaos
plans.  Values are compared by *fingerprint* (the pretty-printed
reification) rather than raw ``repr``, because the engines represent
closures differently (``VClosure`` vs ``VCompiledClosure``) while
denoting the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.bsp.cost import BspCost
from repro.bsp.executor import BACKENDS, get_executor
from repro.bsp.faults import FaultPlan, RetryPolicy, SuperstepFault
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams
from repro.bsml.primitives import Bsml, ParVector
from repro.lang.ast import Expr
from repro.lang.limits import deep_recursion
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.semantics.compiled import ENGINES
from repro.semantics.costed import run_costed
from repro.semantics.errors import EvalError
from repro.semantics.values import VClosure, VCompiledClosure, reify

#: Anything the harness can execute.
Program = Union[str, Expr, Callable[[Bsml], Any]]


@dataclass
class BackendRun:
    """One backend's observation of a program: value, cost, or error.

    ``trace_signature`` is populated only when the harness ran with
    ``check_trace``: the deterministic projection of the run's structured
    trace (:meth:`repro.obs.Trace.abstract_signature` — superstep
    structure, h-relations, abstract op counts, fault outcomes; never
    timestamps or backend identity)."""

    backend: str
    value_repr: Optional[str] = None
    value: Any = None
    cost: Optional[BspCost] = None
    error: Optional[str] = None
    trace_signature: Optional[Tuple] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class DifferentialReport:
    """All backends' observations of one program, with the verdict."""

    description: str
    runs: List[BackendRun] = field(default_factory=list)

    @property
    def reference(self) -> BackendRun:
        """The first backend run — by convention the sequential one."""
        return self.runs[0]

    @property
    def conforms(self) -> bool:
        """True when every backend observed exactly the same thing.

        When runs carry trace signatures (``check_trace``) those are part
        of "the same thing": the abstract trace — superstep structure,
        h-relations, op counts, fault outcomes — must be bit-identical,
        the tracing analogue of the exact ``BspCost`` comparison.  Error
        runs are exempt (a failing phase cuts the trace short at a
        backend-dependent record)."""
        reference = self.reference
        for run in self.runs[1:]:
            if run.error != reference.error:
                return False
            if reference.ok and (
                run.value_repr != reference.value_repr
                or run.cost != reference.cost
            ):
                return False
            if (
                reference.ok
                and reference.trace_signature is not None
                and run.trace_signature is not None
                and run.trace_signature != reference.trace_signature
            ):
                return False
        return True

    @property
    def succeeded(self) -> bool:
        """True when the program ran without error on every backend."""
        return all(run.ok for run in self.runs)

    def explain(self) -> str:
        """A human-readable account, detailed enough to debug from."""
        lines = [
            f"differential run of {self.description}:",
            f"  verdict: {'CONFORMS' if self.conforms else 'DIVERGES'}",
        ]
        reference = self.reference
        for run in self.runs:
            lines.append(f"  [{run.backend}]")
            if run.error is not None:
                lines.append(f"    error: {run.error}")
                continue
            lines.append(f"    value: {run.value_repr}")
            if run.cost is not None:
                w, h, s = run.cost.W, run.cost.H, run.cost.S
                lines.append(f"    cost:  W={w} H={h} S={s}")
                if run is not reference and run.cost != reference.cost:
                    lines.append("    cost differs from reference:")
                    for line in run.cost.render().splitlines():
                        lines.append(f"      {line}")
            if (
                run is not reference
                and run.trace_signature is not None
                and reference.trace_signature is not None
                and run.trace_signature != reference.trace_signature
            ):
                lines.append(
                    "    "
                    + _first_trace_divergence(
                        reference.trace_signature, run.trace_signature
                    )
                )
        if not self.conforms and reference.ok and reference.cost is not None:
            lines.append("  reference cost:")
            for line in reference.cost.render().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)


def _first_trace_divergence(reference: Tuple, other: Tuple) -> str:
    """Pinpoint where two abstract trace signatures first disagree."""
    for index, (expected, got) in enumerate(zip(reference, other)):
        if expected != got:
            return (
                f"trace diverges at record {index}: "
                f"expected {expected!r}, got {got!r}"
            )
    return (
        f"trace diverges in length: reference has {len(reference)} "
        f"abstract records, this run has {len(other)}"
    )


def _describe(program: Program) -> str:
    if isinstance(program, str):
        head = " ".join(program.split())
        return repr(head if len(head) <= 60 else head[:57] + "...")
    if isinstance(program, Expr):
        return f"<AST {type(program).__name__}>"
    return f"<BSMLlib {getattr(program, '__name__', 'program')}>"


def _observe_error(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


def _value_fingerprint(value: Any) -> str:
    """An engine-independent observation of a runtime value.

    Ground values fingerprint as their pretty-printed reification, which
    is structural and identical across engines.  Function values reify to
    the same source term whichever engine built them (the compiled
    closure's capture list is exactly the free variables a tree closure
    would substitute).  Values that cannot reify into a finite term —
    recursive closures, mutable references — normalize to a kind tag, the
    same tag for both engines' closure representations.
    """
    try:
        with deep_recursion():
            return pretty(reify(value))
    except (EvalError, TypeError, RecursionError):
        if isinstance(value, (VClosure, VCompiledClosure)):
            return "<unreifiable closure>"
        return f"<unreifiable {type(value).__name__}>"


def run_differential(
    program: Program,
    params: Optional[BspParams] = None,
    backends: Sequence[str] = BACKENDS,
    use_prelude: Optional[bool] = None,
    check_trace: bool = False,
    engine: str = "tree",
) -> DifferentialReport:
    """Run ``program`` under every backend and collect the observations.

    ``use_prelude`` defaults to True for source text (so the shipped
    ``programs/*.bsml`` and the curated corpora just work) and False for
    a bare AST (generated programs are closed).  The first backend in
    ``backends`` is the reference the others are compared against.

    With ``check_trace`` every run is additionally collected under a
    structured trace (:mod:`repro.obs`) and its
    :meth:`~repro.obs.Trace.abstract_signature` stored on the
    :class:`BackendRun`; :attr:`DifferentialReport.conforms` then also
    demands those signatures be bit-identical.
    """
    params = params or BspParams(p=4)
    report = DifferentialReport(_describe(program))
    if isinstance(program, (str, Expr)):
        expr = parse_program(program) if isinstance(program, str) else program
        prelude = use_prelude if use_prelude is not None else isinstance(program, str)
        for backend in backends:
            signature = None
            try:
                if check_trace:
                    with obs.trace() as collected:
                        result = run_costed(
                            expr,
                            params,
                            use_prelude=prelude,
                            backend=backend,
                            engine=engine,
                        )
                    signature = collected.abstract_signature()
                else:
                    result = run_costed(
                        expr,
                        params,
                        use_prelude=prelude,
                        backend=backend,
                        engine=engine,
                    )
            except Exception as error:
                report.runs.append(BackendRun(backend, error=_observe_error(error)))
                continue
            report.runs.append(
                BackendRun(
                    backend,
                    value_repr=repr(result.value),
                    value=result.value,
                    cost=result.cost,
                    trace_signature=signature,
                )
            )
        return report
    for backend in backends:
        machine = BspMachine(params, executor=get_executor(backend))
        context = Bsml(params, machine)
        signature = None
        try:
            if check_trace:
                with obs.trace() as collected:
                    value = program(context)
                signature = collected.abstract_signature()
            else:
                value = program(context)
        except Exception as error:
            report.runs.append(BackendRun(backend, error=_observe_error(error)))
            continue
        shown = value.to_list() if isinstance(value, ParVector) else value
        report.runs.append(
            BackendRun(
                backend,
                value_repr=repr(shown),
                value=shown,
                cost=machine.cost(),
                trace_signature=signature,
            )
        )
    return report


def assert_conformance(
    program: Program,
    params: Optional[BspParams] = None,
    backends: Sequence[str] = BACKENDS,
    use_prelude: Optional[bool] = None,
    require_success: bool = False,
    check_trace: bool = False,
    engine: str = "tree",
) -> DifferentialReport:
    """Run differentially and raise :class:`AssertionError` on divergence.

    With ``require_success`` the program must also evaluate cleanly on
    every backend (an agreed-upon error is otherwise conforming); with
    ``check_trace`` the abstract trace signatures must also agree.
    Returns the report so callers can make further assertions.
    """
    report = run_differential(
        program, params, backends, use_prelude, check_trace, engine
    )
    if not report.conforms:
        raise AssertionError(report.explain())
    if require_success and not report.succeeded:
        raise AssertionError(report.explain())
    return report


# -- engine conformance -------------------------------------------------------


def run_engines(
    program: Union[str, Expr],
    params: Optional[BspParams] = None,
    engines: Sequence[str] = ENGINES,
    backends: Sequence[str] = BACKENDS,
    use_prelude: Optional[bool] = None,
    check_trace: bool = False,
) -> DifferentialReport:
    """Run ``program`` under every ``engine × backend`` combination.

    The report's runs are named ``engine/backend``; the first combination
    (by convention ``tree/seq`` — the reference semantics on the
    reference backend) is what every other combination is compared
    against.  Values are observed by :func:`_value_fingerprint`, so
    function results compare by their reified source term rather than by
    engine-specific closure ``repr``.  With ``check_trace`` the abstract
    trace signatures must agree across every combination too.

    Only mini-BSML programs (source text or AST) make sense here —
    BSMLlib callables never touch the evaluator, so there is nothing for
    an engine sweep to vary.
    """
    if not isinstance(program, (str, Expr)):
        raise TypeError(
            "check_engines needs a mini-BSML program (source text or AST); "
            "a BSMLlib callable never runs through an evaluation engine"
        )
    params = params or BspParams(p=4)
    expr = parse_program(program) if isinstance(program, str) else program
    prelude = use_prelude if use_prelude is not None else isinstance(program, str)
    report = DifferentialReport(_describe(program))
    for engine in engines:
        for backend in backends:
            name = f"{engine}/{backend}"
            signature = None
            try:
                if check_trace:
                    with obs.trace() as collected:
                        result = run_costed(
                            expr,
                            params,
                            use_prelude=prelude,
                            backend=backend,
                            engine=engine,
                        )
                    signature = collected.abstract_signature()
                else:
                    result = run_costed(
                        expr,
                        params,
                        use_prelude=prelude,
                        backend=backend,
                        engine=engine,
                    )
            except Exception as error:
                report.runs.append(BackendRun(name, error=_observe_error(error)))
                continue
            report.runs.append(
                BackendRun(
                    name,
                    value_repr=_value_fingerprint(result.value),
                    value=result.value,
                    cost=result.cost,
                    trace_signature=signature,
                )
            )
    return report


def assert_engine_conformance(
    program: Union[str, Expr],
    params: Optional[BspParams] = None,
    engines: Sequence[str] = ENGINES,
    backends: Sequence[str] = BACKENDS,
    use_prelude: Optional[bool] = None,
    require_success: bool = False,
    check_trace: bool = False,
) -> DifferentialReport:
    """Run the engine × backend sweep and raise on any divergence."""
    report = run_engines(
        program, params, engines, backends, use_prelude, check_trace
    )
    if not report.conforms:
        raise AssertionError(report.explain())
    if require_success and not report.succeeded:
        raise AssertionError(report.explain())
    return report


# -- infer-engine conformance -------------------------------------------------


@dataclass
class InferRun:
    """One inference engine's observation of a program.

    ``conclusion`` is the pruned constrained type (the :func:`repro.core.infer`
    contract); ``full`` and ``derivation`` come from the unpruned
    ``infer_with_derivation`` pass, so the sweep checks the exact
    constraint trees the paper's rules accumulate, not just the pruned
    summary."""

    engine: str
    conclusion: Any = None
    full: Any = None
    derivation: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _derivations_identical(left, right) -> bool:
    """Structural identity of two derivation trees: same rules, notes,
    and *interned-node-identical* conclusions at every node."""
    if left.rule != right.rule or left.note != right.note:
        return False
    if (left.conclusion is None) != (right.conclusion is None):
        return False
    if left.conclusion is not None and (
        left.conclusion.type is not right.conclusion.type
        or left.conclusion.constraint is not right.conclusion.constraint
    ):
        return False
    if len(left.premises) != len(right.premises):
        return False
    return all(
        _derivations_identical(a, b)
        for a, b in zip(left.premises, right.premises)
    )


@dataclass
class InferReport:
    """Every inference engine's observation of one program."""

    description: str
    runs: List[InferRun] = field(default_factory=list)

    @property
    def reference(self) -> InferRun:
        """The first engine run — by convention the substitution engine."""
        return self.runs[0]

    @property
    def conforms(self) -> bool:
        """True when every engine observed **bit-identical** results:
        the same interned type and constraint nodes (pruned and
        unpruned), identical derivation trees, and — on rejected
        programs — the same error type and message."""
        reference = self.reference
        for run in self.runs[1:]:
            if run.error != reference.error:
                return False
            if not reference.ok:
                continue
            if (
                run.conclusion.type is not reference.conclusion.type
                or run.conclusion.constraint is not reference.conclusion.constraint
            ):
                return False
            if (
                run.full.type is not reference.full.type
                or run.full.constraint is not reference.full.constraint
            ):
                return False
            if not _derivations_identical(run.derivation, reference.derivation):
                return False
        return True

    def explain(self) -> str:
        lines = [
            f"infer-engine run of {self.description}:",
            f"  verdict: {'CONFORMS' if self.conforms else 'DIVERGES'}",
        ]
        reference = self.reference
        for run in self.runs:
            lines.append(f"  [{run.engine}]")
            if run.error is not None:
                lines.append(f"    error: {run.error}")
                continue
            lines.append(f"    type: {run.conclusion}")
            if run is not reference and reference.ok:
                if run.full.constraint is not reference.full.constraint:
                    lines.append(
                        f"    unpruned constraint differs: {run.full}"
                        f" vs {reference.full}"
                    )
                if not _derivations_identical(run.derivation, reference.derivation):
                    lines.append("    derivation tree differs from reference")
        return "\n".join(lines)


def run_infer_engines(
    program: Union[str, Expr],
    engines: Optional[Sequence[str]] = None,
    use_prelude: Optional[bool] = None,
) -> InferReport:
    """Infer the type of ``program`` under every inference engine.

    Both engines draw their fresh type variables from
    ``repro.core.types._fresh_counter``; the sweep snapshots the counter
    and rewinds it before each engine's runs so the engines see literally
    the same fresh names — with hash-consing, equal results are then
    *identical* interned nodes, and the comparison (and the raw variable
    names inside error messages) is exact.  The prelude environment is
    forced before the snapshot so its one-time construction cannot skew
    the first engine's numbering.

    Each engine runs twice from the same counter position: once through
    :func:`repro.core.infer.infer` (pruned, the public contract) and once
    through ``infer_with_derivation`` (unpruned, full derivation tree).
    """
    import itertools

    import repro.core.types as core_types
    from repro.core.errors import TypingError
    from repro.core.infer import (
        INFER_ENGINES,
        infer,
        infer_with_derivation,
    )
    from repro.core.prelude_env import prelude_env

    if engines is None:
        engines = INFER_ENGINES
    expr = parse_program(program) if isinstance(program, str) else program
    prelude = use_prelude if use_prelude is not None else isinstance(program, str)
    env = prelude_env() if prelude else None
    report = InferReport(_describe(program))
    base = next(core_types._fresh_counter)
    for engine in engines:
        run = InferRun(engine)
        core_types._fresh_counter = itertools.count(base)
        try:
            run.conclusion = infer(expr, env, engine=engine)
            core_types._fresh_counter = itertools.count(base)
            run.full, run.derivation = infer_with_derivation(
                expr, env, engine=engine
            )
        except TypingError as error:
            run.error = _observe_error(error)
        report.runs.append(run)
    return report


def assert_infer_conformance(
    program: Union[str, Expr],
    engines: Optional[Sequence[str]] = None,
    use_prelude: Optional[bool] = None,
    require_success: bool = False,
) -> InferReport:
    """Run the infer-engine sweep and raise on any divergence.

    With ``require_success`` the program must also typecheck (an
    agreed-upon rejection is otherwise conforming — *error parity* is
    part of the contract)."""
    report = run_infer_engines(program, engines, use_prelude)
    if not report.conforms:
        raise AssertionError(report.explain())
    if require_success and not all(run.ok for run in report.runs):
        raise AssertionError(report.explain())
    return report


def infer_conformance_corpus() -> List[Tuple[str, str]]:
    """The corpus the infer-engine sweep runs: everything
    :func:`conformance_corpus` covers **plus** the curated rejected
    programs and the ones whose errors name fresh variables (the sweep
    checks error parity on those)."""
    from repro.testing.generators import CORPUS_NAMED_ERRORS, CORPUS_REJECTED

    corpus = conformance_corpus()
    for index, source in enumerate(CORPUS_REJECTED):
        corpus.append((f"rejected[{index}]", source))
    for index, source in enumerate(CORPUS_NAMED_ERRORS):
        corpus.append((f"named-error[{index}]", source))
    return corpus


# -- chaos conformance --------------------------------------------------------

#: Default per-site fault rates for the chaos sweep: high enough that
#: most plans inject *something*, low enough that the default retry
#: policy survives the large majority of them.
DEFAULT_CHAOS_RATES: Dict[str, float] = {
    "crash": 0.08,
    "timeout": 0.05,
    "drop": 0.06,
    "dup": 0.03,
    "corrupt": 0.03,
    "pool": 0.01,
}

#: Default retry policy for chaos runs (no real sleeping in test sweeps).
DEFAULT_CHAOS_POLICY = RetryPolicy(max_attempts=4, base_delay=0.0)


@dataclass
class ChaosRun:
    """One backend's observation of a program under an armed fault plan."""

    backend: str
    value_repr: Optional[str] = None
    cost: Optional[BspCost] = None
    error: Optional[str] = None
    faulted: bool = False  # the run ended in a SuperstepFault
    state_restored: Optional[bool] = None  # SuperstepFault's atomicity bit
    trace_signature: Optional[Tuple] = None  # abstract trace (check_trace)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ChaosReport:
    """A clean reference plus every backend's run under the same plan."""

    description: str
    seed: int
    reference: BackendRun
    runs: List[ChaosRun] = field(default_factory=list)

    @property
    def survivable(self) -> bool:
        """True when every faulted backend run completed."""
        return all(run.ok for run in self.runs)

    @property
    def conforms(self) -> bool:
        """The chaos verdict.

        * Every run completed: each must match the clean reference
          bit-for-bit (value ``repr`` and full ``BspCost``).
        * Some run raised :class:`SuperstepFault`: *every* run must have
          raised the same one (same message — the plan is deterministic,
          so the failing phase and outcome table agree), each atomically.
        * The reference itself failed (a program bug): every run must
          fail the same way.
        """
        reference = self.reference
        if reference.error is not None:
            return all(run.error == reference.error for run in self.runs)
        if any(run.faulted for run in self.runs):
            first = self.runs[0]
            return all(
                run.faulted
                and run.state_restored
                and run.error == first.error
                for run in self.runs
            )
        if not all(
            run.ok
            and run.value_repr == reference.value_repr
            and run.cost == reference.cost
            for run in self.runs
        ):
            return False
        # Trace conformance (check_trace): the chaos runs are compared
        # against *each other*, not the clean reference — fault draws and
        # retry events legitimately appear only under an armed plan, but
        # the seeded plan must replay identically on every backend.
        signatures = [
            run.trace_signature
            for run in self.runs
            if run.trace_signature is not None
        ]
        return all(signature == signatures[0] for signature in signatures[1:])

    def explain(self) -> str:
        lines = [
            f"chaos run of {self.description} (plan seed {self.seed}):",
            f"  verdict: {'CONFORMS' if self.conforms else 'DIVERGES'} "
            f"({'survivable' if self.survivable else 'unsurvivable'})",
            f"  [clean reference] value: {self.reference.value_repr}"
            if self.reference.ok
            else f"  [clean reference] error: {self.reference.error}",
        ]
        for run in self.runs:
            lines.append(f"  [{run.backend}]")
            if run.error is not None:
                kind = "superstep fault" if run.faulted else "error"
                lines.append(f"    {kind}: {run.error}")
                if run.faulted:
                    lines.append(f"    state restored: {run.state_restored}")
                continue
            lines.append(f"    value: {run.value_repr}")
            if run.cost is not None:
                lines.append(
                    f"    cost:  W={run.cost.W} H={run.cost.H} S={run.cost.S}"
                    + (
                        ""
                        if run.cost == self.reference.cost
                        else "  (differs from clean reference)"
                    )
                )
        return "\n".join(lines)


def _chaos_observe(
    program: Program,
    params: BspParams,
    backend: str,
    plan: Optional[FaultPlan],
    policy: Optional[RetryPolicy],
    use_prelude: Optional[bool],
    check_trace: bool = False,
    engine: str = "tree",
    value_key: Callable[[Any], str] = repr,
):
    """Run once; return ``(value_repr, cost, error, faulted, restored,
    trace_signature)``.

    ``value_key`` projects the resulting value to its compared-by string
    (``repr`` for the backend sweep, :func:`_value_fingerprint` for the
    cross-engine one); it only applies to evaluator-built values, BSMLlib
    results keep their ``repr``.
    """
    collected: Optional[obs.Trace] = obs.start() if check_trace else None

    def signature():
        if collected is None:
            return None
        obs.stop(collected)
        return collected.abstract_signature()

    try:
        if isinstance(program, (str, Expr)):
            expr = parse_program(program) if isinstance(program, str) else program
            prelude = (
                use_prelude if use_prelude is not None else isinstance(program, str)
            )
            try:
                result = run_costed(
                    expr,
                    params,
                    use_prelude=prelude,
                    backend=backend,
                    faults=plan,
                    retry=policy,
                    engine=engine,
                )
            except SuperstepFault as fault:
                return (
                    None,
                    None,
                    _observe_error(fault),
                    True,
                    fault.state_restored,
                    signature(),
                )
            except Exception as error:
                return None, None, _observe_error(error), False, None, signature()
            return (
                value_key(result.value),
                result.cost,
                None,
                False,
                None,
                signature(),
            )
        machine = BspMachine(
            params, executor=get_executor(backend), faults=plan, retry=policy
        )
        context = Bsml(params, machine)
        try:
            value = program(context)
        except SuperstepFault as fault:
            # The machine promises atomicity; double-check that whatever
            # committed before the failed phase still decomposes cleanly.
            restored = fault.state_restored and machine.cost().check_decomposition(
                params
            )
            return None, None, _observe_error(fault), True, restored, signature()
        except Exception as error:
            return None, None, _observe_error(error), False, None, signature()
        shown = value.to_list() if isinstance(value, ParVector) else value
        return repr(shown), machine.cost(), None, False, None, signature()
    finally:
        if collected is not None:
            obs.stop(collected)


def run_chaos(
    program: Program,
    params: Optional[BspParams] = None,
    seed: int = 0,
    rates: Optional[Dict[str, float]] = None,
    policy: Optional[RetryPolicy] = DEFAULT_CHAOS_POLICY,
    backends: Sequence[str] = BACKENDS,
    use_prelude: Optional[bool] = None,
    check_trace: bool = False,
    engine: str = "tree",
    value_key: Callable[[Any], str] = repr,
) -> ChaosReport:
    """Run ``program`` cleanly once, then under the seeded fault plan on
    every backend, and collect the observations.

    Each backend gets a **fresh plan from the same seed and rates**, so
    all of them replay the identical fault schedule; the clean sequential
    run is the reference the faulted runs must be indistinguishable from.
    With ``check_trace`` the faulted runs' abstract trace signatures —
    which include every injected fault and retry outcome — must agree
    *with each other* (the clean reference legitimately lacks fault
    events).
    """
    params = params or BspParams(p=4)
    rates = dict(DEFAULT_CHAOS_RATES if rates is None else rates)
    value_repr, cost, error, _, _, _ = _chaos_observe(
        program, params, "seq", None, None, use_prelude,
        engine=engine, value_key=value_key,
    )
    reference = BackendRun(
        "seq (clean)", value_repr=value_repr, cost=cost, error=error
    )
    report = ChaosReport(_describe(program), seed, reference)
    for backend in backends:
        plan = FaultPlan(seed=seed, **rates)
        value_repr, cost, error, faulted, restored, signature = _chaos_observe(
            program, params, backend, plan, policy, use_prelude, check_trace,
            engine=engine, value_key=value_key,
        )
        report.runs.append(
            ChaosRun(
                backend,
                value_repr=value_repr,
                cost=cost,
                error=error,
                faulted=faulted,
                state_restored=restored,
                trace_signature=signature,
            )
        )
    return report


def assert_chaos_conformance(
    program: Program,
    params: Optional[BspParams] = None,
    seed: int = 0,
    rates: Optional[Dict[str, float]] = None,
    policy: Optional[RetryPolicy] = DEFAULT_CHAOS_POLICY,
    backends: Sequence[str] = BACKENDS,
    use_prelude: Optional[bool] = None,
    check_trace: bool = False,
    engine: str = "tree",
) -> ChaosReport:
    """Run :func:`run_chaos` and raise :class:`AssertionError` unless the
    chaos verdict holds.  Returns the report for further assertions."""
    report = run_chaos(
        program,
        params,
        seed,
        rates,
        policy,
        backends,
        use_prelude,
        check_trace,
        engine,
    )
    if not report.conforms:
        raise AssertionError(report.explain())
    return report


def assert_engine_chaos_conformance(
    program: Union[str, Expr],
    params: Optional[BspParams] = None,
    seed: int = 0,
    rates: Optional[Dict[str, float]] = None,
    policy: Optional[RetryPolicy] = DEFAULT_CHAOS_POLICY,
    backends: Sequence[str] = BACKENDS,
    use_prelude: Optional[bool] = None,
    check_trace: bool = False,
    engines: Sequence[str] = ENGINES,
) -> List[ChaosReport]:
    """Chaos conformance across engines: the same seeded fault plan must
    be observationally identical whichever engine evaluates the program.

    Runs the full chaos sweep once per engine (each must conform on its
    own), then cross-compares the per-backend observations between
    engines: error, value fingerprint, ``BspCost`` and (with
    ``check_trace``) the abstract trace signature must match pairwise —
    the fault draws are machine-side and in program order, so an armed
    plan replays the identical schedule under either engine.  Returns
    the per-engine reports.
    """
    if not isinstance(program, (str, Expr)):
        raise TypeError(
            "check_engines needs a mini-BSML program (source text or AST); "
            "a BSMLlib callable never runs through an evaluation engine"
        )
    reports: List[ChaosReport] = []
    for engine in engines:
        report = run_chaos(
            program,
            params,
            seed,
            rates,
            policy,
            backends,
            use_prelude,
            check_trace,
            engine,
            value_key=_value_fingerprint,
        )
        if not report.conforms:
            raise AssertionError(f"[engine {engine}] " + report.explain())
        reports.append(report)
    first = reports[0]
    for engine, report in zip(engines[1:], reports[1:]):
        if (first.reference.error, first.reference.value_repr) != (
            report.reference.error,
            report.reference.value_repr,
        ):
            raise AssertionError(
                f"clean reference diverges between engines "
                f"{engines[0]} and {engine}:\n"
                + first.explain()
                + "\n"
                + report.explain()
            )
        for left, right in zip(first.runs, report.runs):
            if (
                left.error != right.error
                or left.value_repr != right.value_repr
                or left.cost != right.cost
                or left.trace_signature != right.trace_signature
            ):
                raise AssertionError(
                    f"chaos observation diverges between engines "
                    f"{engines[0]} and {engine} on backend {left.backend}:\n"
                    + first.explain()
                    + "\n"
                    + report.explain()
                )
    return reports


def conformance_corpus() -> List[Tuple[str, str]]:
    """The standard corpus the sweep runs: every curated well-typed
    program plus every shipped ``programs/*.bsml`` file, as
    ``(name, source)`` pairs."""
    from pathlib import Path

    from repro.testing.generators import CORPUS_GLOBAL, CORPUS_IMPERATIVE, CORPUS_LOCAL

    corpus: List[Tuple[str, str]] = []
    for group, sources in (
        ("local", CORPUS_LOCAL),
        ("global", CORPUS_GLOBAL),
        ("imperative", CORPUS_IMPERATIVE),
    ):
        for index, source in enumerate(sources):
            corpus.append((f"{group}[{index}]", source))
    programs_dir = Path(__file__).resolve().parents[3] / "programs"
    for path in sorted(programs_dir.glob("*.bsml")):
        corpus.append((path.name, path.read_text(encoding="utf-8")))
    return corpus
