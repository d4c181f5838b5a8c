"""Differential property sweep for the evaluation engines: the
closure-compiling engine (:mod:`repro.semantics.compiled`, the product
evaluator) must observe the same values, the same BspCost decomposition
and the same abstract trace signature as the tree-walking cost oracle —
on generated programs (uniform and pid-divergent), on the whole shipped
corpus, across every backend, and under armed chaos plans.  The unsafe
corpus and the per-pid partial-failure programs must fail identically
(same error type, same message) on both engines."""

from __future__ import annotations

import pytest

from repro.bsp.params import BspParams
from repro.testing import (
    ProgramGenerator,
    assert_engine_chaos_conformance,
    assert_engine_conformance,
    conformance_corpus,
    run_engines,
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
    """≥200 random well-typed programs: identical value fingerprint,
    identical BspCost superstep list and identical abstract trace
    signature under both engines."""
    expr = _generated(seed)
    try:
        assert_engine_conformance(
            expr,
            params=PARAMS,
            backends=("seq",),
            use_prelude=False,
            check_trace=True,
        )
    except AssertionError as error:  # pragma: no cover - diagnostic path
        raise AssertionError(f"seed {seed}: {error}") from error


@pytest.mark.parametrize("seed", range(100))
def test_divergent_program_engines_agree(seed):
    """≥100 divergence-weighted programs: pid-dependent ``if``/``case``
    scrutinees and mixed supersteps still produce identical value
    fingerprints, BspCost superstep lists and trace signatures on both
    engines."""
    expr = _divergent(seed)
    try:
        assert_engine_conformance(
            expr,
            params=PARAMS,
            backends=("seq",),
            use_prelude=False,
            check_trace=True,
        )
    except AssertionError as error:  # pragma: no cover - diagnostic path
        raise AssertionError(f"seed {seed}: {error}") from error


@pytest.mark.parametrize("seed", range(30))
def test_partial_failure_error_parity(seed):
    """Programs where exactly one pid raises: every engine surfaces the
    same error string, and the failed superstep commits nothing into
    the cost on any engine (the report's cost comparison covers the
    supersteps before the failure)."""
    expr = ProgramGenerator(seed=seed, p_hint=PARAMS.p).partial_failure()
    report = run_engines(expr, params=PARAMS, backends=("seq",))
    assert report.conforms, report.explain()
    reference = report.reference
    assert reference.error is not None, "partial_failure must raise"
    for run in report.runs[1:]:
        assert run.error == reference.error, report.explain()


@pytest.mark.parametrize(
    "name,source", conformance_corpus(), ids=[n for n, _ in conformance_corpus()]
)
def test_corpus_program_engines_agree(name, source):
    """The curated corpora and every shipped programs/*.bsml file agree
    between engines on every backend, traces included."""
    report = assert_engine_conformance(source, params=PARAMS, check_trace=True)
    assert report.succeeded, report.explain()


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
    ``fst``) must produce the same value and cost."""
    report = run_engines(source, params=PARAMS, backends=("seq",))
    assert report.conforms, report.explain()
    reference = report.reference
    for run in report.runs[1:]:
        assert run.error == reference.error, report.explain()


def test_unsafe_corpus_exercises_runtime_errors():
    """Sanity: the parity sweep above really covers dynamic failures —
    a good share of the rejected corpus raises DynamicNestingError."""
    errors = [
        run_engines(source, params=PARAMS, backends=("seq",)).reference.error
        for source in unsafe_corpus()
    ]
    nesting = [error for error in errors if error and "DynamicNesting" in error]
    assert len(nesting) >= 4, errors


CHAOS_PROGRAMS = (
    "bcast 2 (mkpar (fun i -> i * i))",
    "scan (fun a -> fun b -> a + b) (mkpar (fun i -> i + 1))",
    "put (mkpar (fun src -> fun dst -> if dst = src then nc () else src))",
)


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("source", CHAOS_PROGRAMS)
def test_chaos_engines_agree(source, seed):
    """The same seeded fault plan is observationally identical whichever
    engine evaluates the program: per-backend values, costs, errors and
    trace signatures (fault and retry events included) match pairwise."""
    assert_engine_chaos_conformance(
        source, params=PARAMS, seed=seed, check_trace=True
    )
