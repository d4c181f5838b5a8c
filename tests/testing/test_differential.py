"""Tests for the differential backend-conformance harness itself."""

from __future__ import annotations

import pytest

from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.params import BspParams
from repro.lang.parser import parse_program
from repro.testing import (
    BackendRun,
    DifferentialReport,
    assert_conformance,
    conformance_corpus,
    run_differential,
)


class TestRunDifferential:
    def test_source_program_conforms(self):
        report = run_differential("bcast 0 (mkpar (fun i -> i * i))")
        assert report.conforms
        assert report.succeeded
        assert [run.backend for run in report.runs] == ["seq", "thread"]
        assert report.reference.backend == "seq"
        assert report.reference.value_repr == "VParVec(items=(0, 0, 0, 0))"
        assert all(run.cost == report.reference.cost for run in report.runs)

    def test_ast_program_conforms(self):
        expr = parse_program("put (mkpar (fun s -> fun d -> s + d))")
        report = run_differential(expr, params=BspParams(p=3))
        assert report.conforms and report.succeeded

    def test_bsmllib_program_conforms(self):
        def program(bsml):
            vec = bsml.mkpar(lambda i: i + 1)
            return bsml.apply(bsml.mkpar(lambda i: lambda x: x * 2), vec)

        report = run_differential(program, params=BspParams(p=4))
        assert report.conforms and report.succeeded
        assert report.reference.value_repr == "[2, 4, 6, 8]"

    def test_agreed_error_conforms(self):
        # Every backend must reject the same ill-formed program with the
        # same error; that agreement *is* conformance.
        report = run_differential("1 + true", use_prelude=False)
        assert report.conforms
        assert not report.succeeded
        assert all(run.error == report.reference.error for run in report.runs)

    def test_backend_subset(self):
        report = run_differential("2 + 2", backends=("seq", "thread"))
        assert [run.backend for run in report.runs] == ["seq", "thread"]
        assert report.conforms


class TestVerdicts:
    def _ok(self, backend, value_repr="[1]", cost=None):
        return BackendRun(
            backend,
            value_repr=value_repr,
            value=None,
            cost=cost or BspCost(p=1, supersteps=[]),
        )

    def test_value_divergence_detected(self):
        report = DifferentialReport(
            "'demo'", [self._ok("seq"), self._ok("thread", value_repr="[2]")]
        )
        assert not report.conforms
        text = report.explain()
        assert "DIVERGES" in text
        assert "[seq]" in text and "[thread]" in text
        assert "[1]" in text and "[2]" in text

    def test_cost_divergence_detected(self):
        other = BspCost(
            p=1, supersteps=[SuperstepCost(work=(1.0,), relation=None)]
        )
        report = DifferentialReport(
            "'demo'", [self._ok("seq"), self._ok("thread", cost=other)]
        )
        assert not report.conforms
        assert "cost differs from reference" in report.explain()

    def test_error_divergence_detected(self):
        report = DifferentialReport(
            "'demo'",
            [self._ok("seq"), BackendRun("thread", error="RuntimeError: x")],
        )
        assert not report.conforms

    def test_explain_mentions_program(self):
        report = DifferentialReport("'my program'", [self._ok("seq")])
        assert "'my program'" in report.explain()


class TestAssertConformance:
    def test_passes_and_returns_report(self):
        report = assert_conformance("let x = 3 in x * x")
        assert report.succeeded

    def test_raises_with_explanation(self):
        with pytest.raises(AssertionError, match="DIVERGES"):
            report = run_differential("2 + 2")
            report.runs[1].value_repr = "corrupted"
            if not report.conforms:
                raise AssertionError(report.explain())

    def test_require_success_rejects_agreed_errors(self):
        with pytest.raises(AssertionError):
            assert_conformance("1 + true", use_prelude=False, require_success=True)


class TestCorpus:
    def test_corpus_covers_curated_and_shipped_programs(self):
        names = [name for name, _ in conformance_corpus()]
        assert any(name.startswith("local[") for name in names)
        assert any(name.startswith("global[") for name in names)
        assert any(name.startswith("imperative[") for name in names)
        assert any(name.endswith(".bsml") for name in names)
        assert len(names) == len(set(names))
        assert len(names) >= 40
