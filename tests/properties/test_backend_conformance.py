"""The product conformance sweep: every program runs at every point of
``engines × backends`` and must observe the same values, the same BSP
cost decomposition and the same abstract trace signature — on generated
programs and on the whole shipped corpus.  The typing axis, and with it
the Theorem 1 check, runs over the infer-engine sweeps' programs
(``tests/core/test_infer_engines.py``): 200 generated programs and the
corpus, each through the whole product."""

from __future__ import annotations

import pytest

from repro.bsp.params import BspParams
from repro.core.infer import infer_scheme
from repro.lang.pretty import pretty
from repro.testing import ProgramGenerator, conform, conformance_corpus

PARAMS = BspParams(p=4, g=2.0, l=50.0)


def _generated(seed):
    return ProgramGenerator(seed=seed, p_hint=PARAMS.p).expression(depth=4)


@pytest.mark.parametrize("seed", range(200))
def test_generated_program_conforms(seed):
    """≥200 random well-typed programs: identical value, BspCost
    superstep list and trace signature on tree/compiled × seq/thread."""
    try:
        report = conform(_generated(seed), params=PARAMS, infer_engines=())
    except AssertionError as error:  # pragma: no cover - diagnostic path
        raise AssertionError(f"seed {seed}: {error}") from error
    assert report.succeeded, report.explain()


@pytest.mark.parametrize(
    "name,source", conformance_corpus(), ids=[n for n, _ in conformance_corpus()]
)
def test_corpus_program_conforms(name, source):
    """The curated corpora (CORPUS_LOCAL and friends) and every shipped
    programs/*.bsml file conform over the evaluation product."""
    report = conform(source, params=PARAMS, infer_engines=())
    assert report.succeeded, report.explain()


@pytest.mark.parametrize("seed", (0, 7, 42, 123, 199))
def test_determinism_across_backends_and_reruns(seed):
    """The same seed yields the same program, the same inferred scheme and
    the same observations at every point — twice in a row."""
    first, second = _generated(seed), _generated(seed)
    assert pretty(first) == pretty(second), f"seed {seed}: generator not stable"
    assert str(infer_scheme(first)) == str(infer_scheme(second)), (
        f"seed {seed}: inference not stable"
    )
    baseline = conform(first, params=PARAMS, infer_engines=())
    rerun = conform(second, params=PARAMS, infer_engines=())
    for before, after in zip(baseline.observations, rerun.observations, strict=True):
        assert before.point == after.point
        assert before.value_repr == after.value_repr, f"seed {seed}"
        assert before.cost == after.cost, f"seed {seed}"
        assert before.trace == after.trace, f"seed {seed}"
        assert before.error == after.error, f"seed {seed}"
