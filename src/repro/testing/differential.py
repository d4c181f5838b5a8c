"""The conformance harness: one program, every implementation, one verdict.

Every observable of this system is deterministic by construction — the
BSP cost model's op counts, traffic matrices and superstep structure
depend only on the program, and all fault decisions are drawn
machine-side from a seeded stream in program order.  So the redundant
implementations admit a sharp correctness check: :func:`conform` runs
the *same* program at every point of an axis product and requires the
observations to agree bit for bit.  This is the "check the parallel
implementation against the sequential specification" discipline of
*Verified Scalable Parallel Computing with Why3* (Proust & Loulergue,
2023), done empirically.

The axes:

* **evaluation** — ``engines × backends`` (the tree evaluator and the
  closure compiler, :mod:`repro.semantics.compiled`; the sequential and
  thread executors, :mod:`repro.bsp.executor`), run once cleanly and
  once per armed :class:`~repro.bsp.faults.FaultPlan` in ``faults``.
  The first clean point (``tree/seq``) is the reference;
* **typing** — ``infer_engines`` (the Fig. 7 substitution engine ``w``
  first, then the union-find engine), each replaying the same fresh
  type-variable names.

Programs are source text, a mini-BSML AST, or a Python BSMLlib callable
taking a :class:`~repro.bsml.primitives.Bsml` context; a callable has
neither an engine nor a typing axis.

The verdict rules (:meth:`Report.divergence`):

* clean points agree on the error; on success also on the value
  fingerprint, the full :class:`~repro.bsp.cost.BspCost` and the
  abstract trace signature, and on the value ``repr`` among points of
  one engine (the engines represent closures differently while denoting
  the same function).  Error points are exempt from the trace
  comparison: a failing phase cuts the trace short;
* the armed points of one plan either all complete exactly like the
  clean reference (value and cost), with trace signatures equal among
  themselves — fault and retry records appear only under the plan — or
  all raise the same :class:`~repro.bsp.faults.SuperstepFault` with the
  machine rolled back;
* typing points produce interned-identical pruned and unpruned types and
  constraints, identical derivations and the same error text;
* Theorem 1: when the reference typing accepts the program, no clean
  point gets stuck or nests dynamically, and every clean value's
  reification retypes at a type unifiable with the inferred one.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import repro.core.types as core_types
from repro import obs
from repro.bsp.cost import BspCost
from repro.bsp.executor import BACKENDS, get_executor
from repro.bsp.faults import FaultPlan, RetryPolicy, SuperstepFault
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams
from repro.bsml.primitives import Bsml, ParVector
from repro.core.errors import TypingError
from repro.core.infer import INFER_ENGINES, infer, infer_with_derivation
from repro.core.prelude_env import prelude_env
from repro.core.types import render_type
from repro.core.unify import unifiable
from repro.lang.ast import Expr
from repro.lang.limits import deep_recursion
from repro.lang.parser import parse_program
from repro.lang.prelude import with_prelude
from repro.lang.pretty import pretty
from repro.semantics.compiled import ENGINES, get_engine
from repro.semantics.errors import EvalError
from repro.semantics.values import VClosure, VCompiledClosure, reify

#: Anything the harness can execute.
Program = Union[str, Expr, Callable[[Bsml], Any]]

#: Default per-site fault rates for chaos plans: high enough that most
#: plans inject *something*, low enough that the default retry policy
#: survives the large majority of them.
DEFAULT_CHAOS_RATES: Dict[str, float] = {
    "crash": 0.08,
    "timeout": 0.05,
    "drop": 0.06,
    "dup": 0.03,
    "corrupt": 0.03,
    "pool": 0.01,
}

#: Default retry policy for armed points (no real sleeping in sweeps).
DEFAULT_CHAOS_POLICY = RetryPolicy(max_attempts=4, base_delay=0.0)

#: Runtime errors Theorem 1 rules out for a well-typed program.
_UNSAFE_ERRORS = ("StuckError", "DynamicNestingError")


@dataclass
class Observation:
    """What one axis point observed of a program.

    Evaluation points set ``backend`` (and ``engine``, except for
    BSMLlib callables) and, when armed, ``plan``; typing points set
    ``infer_engine``.  ``fingerprint`` is the engine-independent value
    observation (:func:`_value_fingerprint`), ``trace`` the abstract trace
    signature (:meth:`repro.obs.Trace.abstract_signature`).
    ``conclusion`` is the pruned constrained type; ``full`` and
    ``derivation`` come from the unpruned pass, so typing points compare
    the exact constraint trees the paper's rules accumulate."""

    backend: Optional[str] = None
    engine: Optional[str] = None
    plan: Optional[FaultPlan] = None
    infer_engine: Optional[str] = None
    value: Any = None
    value_repr: Optional[str] = None
    fingerprint: Optional[str] = None
    cost: Optional[BspCost] = None
    trace: Optional[Tuple] = None
    error: Optional[str] = None
    faulted: bool = False
    state_restored: Optional[bool] = None
    conclusion: Any = None
    full: Any = None
    derivation: Any = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def point(self) -> str:
        """The axis point, e.g. ``compiled/thread``, ``tree/seq @ plan
        seed=3, crash=0.5`` or ``infer uf``."""
        if self.infer_engine is not None:
            return f"infer {self.infer_engine}"
        name = "/".join(axis for axis in (self.engine, self.backend) if axis)
        return name if self.plan is None else f"{name} @ plan {self.plan.describe()}"


@dataclass
class Report:
    """Every axis point's observation of one program, with the verdict."""

    description: str
    observations: List[Observation] = field(default_factory=list)
    faults: Sequence[FaultPlan] = ()
    env: Any = None  # the typing environment (Theorem 1 retypes under it)

    @property
    def clean(self) -> List[Observation]:
        return [o for o in self.observations if o.backend and o.plan is None]

    @property
    def armed(self) -> List[Observation]:
        return [o for o in self.observations if o.plan is not None]

    @property
    def typing(self) -> List[Observation]:
        return [o for o in self.observations if o.infer_engine is not None]

    @property
    def reference(self) -> Observation:
        """The first clean evaluation point (``tree/seq`` by default), or
        the first typing point when there is no evaluation axis."""
        return (self.clean or self.typing)[0]

    @property
    def succeeded(self) -> bool:
        """True when every clean and typing point succeeded."""
        return all(o.ok for o in self.observations if o.plan is None)

    @property
    def survivable(self) -> bool:
        """True when every armed point completed."""
        return all(o.ok for o in self.armed)

    @property
    def conforms(self) -> bool:
        return self.divergence() is None

    def divergence(self) -> Optional[str]:
        """The first broken verdict rule as ``"<point>: <field> ..."``, or
        None when the observations conform."""
        clean, typing = self.clean, self.typing
        peers: Dict[Optional[str], Observation] = {}
        for point in clean:
            peer = peers.setdefault(point.engine, point)
            found = _difference(clean[0], point, peer, clean[0])
            if found:
                return f"{point.point}: {found}"
        for plan in self.faults if clean else ():
            armed = [o for o in self.armed if o.plan is plan]
            found = _armed_divergence(clean[0], armed, peers)
            if found:
                return found
        for point in typing[1:]:
            found = _typing_difference(typing[0], point)
            if found:
                return f"{point.point}: {found}"
        if typing and typing[0].ok:
            # Equal fingerprints are equal reified terms: retype each once.
            retyped: Dict[Optional[str], Optional[str]] = {}
            for point in clean:
                key = point.error or point.fingerprint
                if key not in retyped:
                    retyped[key] = self._preservation(point, typing[0].conclusion.type)
                if retyped[key]:
                    return f"{point.point}: Theorem 1: {retyped[key]}"
        return None

    def _preservation(self, point: Observation, inferred) -> Optional[str]:
        """Why ``point`` breaks Theorem 1 for a program typed at
        ``inferred``, or None."""
        if point.error is not None:
            if point.error.split(":", 1)[0] in _UNSAFE_ERRORS:
                return f"well-typed program went wrong: {point.error}"
            return None
        try:
            with deep_recursion():
                term = reify(point.value)
        except (EvalError, TypeError, RecursionError):
            return None  # recursive closures and references have no finite term
        try:
            retyped = infer(term, self.env).type
        except TypingError as error:
            return f"value does not retype: {_observe_error(error)}"
        if not unifiable(retyped, inferred):
            return (
                f"value retypes at {render_type(retyped)}, "
                f"inferred {render_type(inferred)}"
            )
        return None

    def explain(self) -> str:
        """The verdict, the first divergence (point and field) and a
        one-line summary per point."""
        found = self.divergence()
        lines = [
            f"conformance run of {self.description}:",
            f"  verdict: {'CONFORMS' if found is None else 'DIVERGES'}",
        ]
        if found is not None:
            lines.append(f"  first divergence at {found}")
        for point in self.observations:
            if point.error is not None:
                kind = "superstep fault" if point.faulted else "error"
                shown = f"{kind}: {point.error}"
                if point.faulted:
                    shown += f" (state restored: {point.state_restored})"
            elif point.infer_engine is not None:
                shown = f"type: {point.conclusion}"
            else:
                cost = point.cost
                shown = f"value: {point.value_repr}  W={cost.W} H={cost.H} S={cost.S}"
            lines.append(f"  [{point.point}] {shown}")
        return "\n".join(lines)


def _difference(
    expected: Observation,
    got: Observation,
    peer: Observation,
    trace_reference: Observation,
) -> Optional[str]:
    """The first evaluation field where ``got`` departs from ``expected``
    (``repr`` is compared against the same-engine ``peer``, the trace
    against ``trace_reference``)."""
    if got.error != expected.error:
        return f"error: expected {expected.error!r}, got {got.error!r}"
    if got.error is not None:
        return None
    if got.fingerprint != expected.fingerprint:
        return f"value: expected {expected.fingerprint}, got {got.fingerprint}"
    if got.value_repr != peer.value_repr:
        return f"value: expected {peer.value_repr}, got {got.value_repr}"
    if got.cost != expected.cost:
        return _cost_divergence(expected.cost, got.cost)
    if trace_reference.ok and got.trace != trace_reference.trace:
        return _trace_divergence(trace_reference.trace, got.trace)
    return None


def _armed_divergence(
    reference: Observation,
    armed: List[Observation],
    peers: Dict[Optional[str], Observation],
) -> Optional[str]:
    """Either every armed point of one plan completes exactly like the
    clean reference, or every one raises the same SuperstepFault
    atomically."""
    if any(o.faulted for o in armed):
        for point in armed:
            if not point.faulted or point.error != armed[0].error:
                return (
                    f"{point.point}: error: expected {armed[0].error!r}, "
                    f"got {point.error!r}"
                )
            if not point.state_restored:
                return f"{point.point}: state_restored: the fault was not atomic"
        return None
    for point in armed:
        found = _difference(reference, point, peers[point.engine], armed[0])
        if found:
            return f"{point.point}: {found}"
    return None


def _cost_divergence(expected: BspCost, got: BspCost) -> str:
    for index, (want, have) in enumerate(zip(expected.supersteps, got.supersteps)):
        if want != have:
            return f"cost superstep {index}: expected {want}, got {have}"
    return (
        f"cost: expected {len(expected.supersteps)} supersteps over "
        f"p={expected.p}, got {len(got.supersteps)} over p={got.p}"
    )


def _trace_divergence(expected: Tuple, got: Tuple) -> str:
    for index, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            return f"trace record {index}: expected {want!r}, got {have!r}"
    return (
        f"trace length: expected {len(expected)} abstract records, "
        f"got {len(got)}"
    )


def _typing_difference(expected: Observation, got: Observation) -> Optional[str]:
    if got.error != expected.error:
        return f"error: expected {expected.error!r}, got {got.error!r}"
    if got.error is not None:
        return None
    for name, want, have in (
        ("type", expected.conclusion.type, got.conclusion.type),
        ("constraint", expected.conclusion.constraint, got.conclusion.constraint),
        ("unpruned type", expected.full.type, got.full.type),
        ("unpruned constraint", expected.full.constraint, got.full.constraint),
    ):
        if have is not want:
            return f"{name}: expected {want}, got {have}"
    return _derivation_divergence(expected.derivation, got.derivation, "root")


def _derivation_divergence(left, right, path: str) -> Optional[str]:
    """Where two derivation trees first differ in rule, note, arity or
    interned conclusion."""
    same = left.rule == right.rule and left.note == right.note
    if same and (left.conclusion is None) == (right.conclusion is None):
        same = left.conclusion is None or (
            left.conclusion.type is right.conclusion.type
            and left.conclusion.constraint is right.conclusion.constraint
        )
    if not same or len(left.premises) != len(right.premises):
        return (
            f"derivation at {path}: expected ({left.rule}) {left.conclusion}, "
            f"got ({right.rule}) {right.conclusion}"
        )
    for index, (a, b) in enumerate(zip(left.premises, right.premises)):
        found = _derivation_divergence(a, b, f"{path}.{index}")
        if found:
            return found
    return None


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


@contextmanager
def fresh_names() -> Iterator[Callable[[], None]]:
    """Replay the same fresh type-variable names.

    Yields ``rewind``, which resets ``repro.core.types._fresh_counter``
    to where it stood on entry, so the inference runs inside the block
    (one before the first rewind, one after each) draw literally the same
    names — with hash-consing, equal results are then *identical*
    interned nodes, and raw variable names inside error messages match.
    On exit the counter moves past every name any replay drew.
    """
    base = next(core_types._fresh_counter)
    core_types._fresh_counter = itertools.count(base)
    high = base

    def rewind() -> None:
        nonlocal high
        high = max(high, next(core_types._fresh_counter))
        core_types._fresh_counter = itertools.count(base)

    try:
        yield rewind
    finally:
        rewind()
        core_types._fresh_counter = itertools.count(high)


def _observe(
    program: Program,
    expr: Optional[Expr],
    params: BspParams,
    backend: str,
    engine: Optional[str],
    plan: Optional[FaultPlan],
    policy: Optional[RetryPolicy],
) -> Observation:
    """Run one evaluation point on a machine of its own, traced."""
    point = Observation(backend=backend, engine=engine, plan=plan)
    armed = plan is not None
    machine = BspMachine(
        params,
        executor=get_executor(backend),
        faults=plan.replay() if armed else None,
        retry=policy if armed else None,
    )
    with obs.trace() as collected:
        try:
            if expr is None:
                value = program(Bsml(params, machine))
                value = value.to_list() if isinstance(value, ParVector) else value
            else:
                with deep_recursion():
                    value = get_engine(engine)(params.p, machine).eval(expr)
        except SuperstepFault as fault:
            point.error = _observe_error(fault)
            point.faulted = True
            # The machine promises atomicity; double-check that whatever
            # committed before the failed phase still decomposes cleanly.
            point.state_restored = (
                fault.state_restored and machine.cost().check_decomposition(params)
            )
        except Exception as error:
            point.error = _observe_error(error)
        else:
            point.value = value
            point.value_repr = repr(value)
            point.fingerprint = (
                point.value_repr if expr is None else _value_fingerprint(value)
            )
            point.cost = machine.cost()
    point.trace = collected.abstract_signature()
    return point


def _observe_typing(expr: Expr, env, engine: str, rewind) -> Observation:
    point = Observation(infer_engine=engine)
    try:
        point.conclusion = infer(expr, env, engine=engine)
        rewind()
        point.full, point.derivation = infer_with_derivation(expr, env, engine=engine)
    except TypingError as error:
        point.error = _observe_error(error)
    rewind()
    return point


def conform(
    program: Program,
    params: Optional[BspParams] = None,
    *,
    backends: Sequence[str] = BACKENDS,
    engines: Sequence[str] = ENGINES,
    faults: Sequence[FaultPlan] = (),
    policy: Optional[RetryPolicy] = DEFAULT_CHAOS_POLICY,
    infer_engines: Sequence[str] = INFER_ENGINES,
    use_prelude: Optional[bool] = None,
) -> Report:
    """Observe ``program`` at every point of the axis product and raise
    :class:`AssertionError` (with :meth:`Report.explain`) unless the
    observations conform.  Returns the report; an error every point
    agrees on conforms, so callers that need success assert
    ``report.succeeded``.

    Points run in order: the clean ``engines × backends`` product, then
    that product once per plan in ``faults`` (each point on
    ``plan.replay()`` under ``policy``), then ``infer_engines``.
    ``use_prelude`` defaults to True for source text (so the shipped
    ``programs/*.bsml`` and the curated corpora just work) and False for
    an AST (generated programs are closed).
    """
    params = params or BspParams(p=4)
    report = Report(_describe(program), faults=faults)
    expr = source = prelude = None
    if isinstance(program, (str, Expr)):
        source = parse_program(program) if isinstance(program, str) else program
        prelude = use_prelude if use_prelude is not None else isinstance(program, str)
        with deep_recursion():
            expr = with_prelude(source) if prelude else source
    else:
        engines, infer_engines = (None,), ()
    for plan in (None, *faults):
        for engine, backend in itertools.product(engines, backends):
            report.observations.append(
                _observe(program, expr, params, backend, engine, plan, policy)
            )
    if infer_engines:
        report.env = prelude_env() if prelude else None
        with fresh_names() as rewind:
            report.observations.extend(
                _observe_typing(source, report.env, name, rewind)
                for name in infer_engines
            )
    if not report.conforms:
        raise AssertionError(report.explain())
    return report


def conformance_corpus() -> List[Tuple[str, str]]:
    """The standard corpus the sweeps run: every curated well-typed
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


def infer_conformance_corpus() -> List[Tuple[str, str]]:
    """:func:`conformance_corpus` **plus** the curated rejected programs
    and the ones whose errors name fresh variables — the typing sweep
    checks error parity on those."""
    from repro.testing.generators import CORPUS_NAMED_ERRORS, CORPUS_REJECTED

    corpus = conformance_corpus()
    for index, source in enumerate(CORPUS_REJECTED):
        corpus.append((f"rejected[{index}]", source))
    for index, source in enumerate(CORPUS_NAMED_ERRORS):
        corpus.append((f"named-error[{index}]", source))
    return corpus
