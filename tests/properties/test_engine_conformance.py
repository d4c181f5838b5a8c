"""Engine-focused conformance sweeps: the closure-compiling engine
(:mod:`repro.semantics.compiled`, the product evaluator) must observe
the same values, the same BspCost decomposition and the same abstract
trace signature as the tree-walking cost oracle — on generated programs
(uniform and pid-divergent) and on the whole shipped corpus.  The
unsafe corpus and the per-pid partial-failure programs
must fail identically (same error type, same message) on both engines.
The schedule-focused product over the same generated programs and corpus
is ``test_backend_conformance.py``."""

from __future__ import annotations

import pytest

from repro.bsp.params import BspParams
from repro.testing import (
    ProgramGenerator,
    conform,
    conformance_corpus,
    unsafe_corpus,
)

PARAMS = BspParams(p=4, g=2.0, l=50.0)


def _generated(seed):
    return ProgramGenerator(seed=seed, p_hint=PARAMS.p).expression(depth=4)


def _divergent(seed):
    """Weighted toward branch-on-pid control flow and let-bound vectors
    (mixed uniform/divergent supersteps), where each process takes its
    own branch inside one superstep."""
    return ProgramGenerator(
        seed=seed, p_hint=PARAMS.p, divergence=0.7
    ).expression(depth=4)


@pytest.mark.parametrize("seed", range(200))
def test_generated_program_engines_agree(seed):
    """≥200 random well-typed programs: both engines observe the same
    value, BspCost and trace signature, or fail with the same error."""
    try:
        conform(_generated(seed), params=PARAMS, schedules=("in-order",), infer_engines=())
    except AssertionError as error:  # pragma: no cover - diagnostic path
        raise AssertionError(f"seed {seed}: {error}") from error


@pytest.mark.parametrize("seed", range(100))
def test_divergent_program_engines_agree(seed):
    """≥100 divergence-weighted programs: pid-dependent ``if``/``case``
    scrutinees and mixed supersteps still produce identical value
    fingerprints, BspCost superstep lists and trace signatures on both
    engines."""
    try:
        conform(_divergent(seed), params=PARAMS, schedules=("in-order",), infer_engines=())
    except AssertionError as error:  # pragma: no cover - diagnostic path
        raise AssertionError(f"seed {seed}: {error}") from error


@pytest.mark.parametrize("seed", range(30))
def test_partial_failure_error_parity(seed):
    """Programs where exactly one pid raises: every engine surfaces the
    same error string, and the failed superstep commits nothing into
    the cost on any engine.  The programs are well typed, so the typing
    axis runs too: division by zero is an error Theorem 1 allows."""
    expr = ProgramGenerator(seed=seed, p_hint=PARAMS.p).partial_failure()
    report = conform(expr, params=PARAMS, schedules=("in-order",))
    assert report.reference.error is not None, "partial_failure must raise"
    assert all(point.ok for point in report.typing), report.explain()


CORPUS = conformance_corpus()


@pytest.mark.parametrize(
    "source", [source for _, source in CORPUS], ids=[name for name, _ in CORPUS]
)
def test_corpus_program_engines_agree(source):
    """The curated corpora and every shipped programs/*.bsml file, on
    every engine and schedule."""
    conform(source, params=PARAMS, infer_engines=())


@pytest.mark.parametrize(
    "index,source",
    list(enumerate(unsafe_corpus())),
    ids=[f"rejected[{i}]" for i in range(len(unsafe_corpus()))],
)
def test_unsafe_corpus_error_parity(index, source):
    """The statically-rejected programs behave identically on both
    engines.  Some of them (dynamic nesting, component-side
    communication) also fail at run time — those must raise the same
    error type (DynamicNestingError / EvalError) with the same message on
    the compiled engine, which may not "optimize away" a failure; the
    rest (caught only by the type system, e.g. a discarded vector under
    ``fst``) must produce the same value and cost.  Both inference
    engines reject every one with the same message."""
    report = conform(source, params=PARAMS, schedules=("in-order",))
    assert not report.typing[0].ok, report.explain()


def test_unsafe_corpus_exercises_runtime_errors():
    """Sanity: the parity sweep above really covers dynamic failures —
    a good share of the rejected corpus raises DynamicNestingError."""
    errors = [
        conform(
            source, params=PARAMS, schedules=("in-order",), infer_engines=()
        ).reference.error
        for source in unsafe_corpus()
    ]
    nesting = [error for error in errors if error and "DynamicNesting" in error]
    assert len(nesting) >= 4, errors
