"""Tests for the conformance harness itself."""

from __future__ import annotations

import itertools

import pytest

from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.faults import FaultPlan, RetryPolicy
from repro.bsp.params import BspParams
from repro.core import types as core_types
from repro.lang.parser import parse_program
from repro.testing import Observation, Report, conform, conformance_corpus
from repro.testing.differential import fresh_names


class TestRunDifferential:
    def test_source_program_conforms(self):
        report = conform("bcast 0 (mkpar (fun i -> i * i))")
        assert report.conforms
        assert report.succeeded
        assert [point.point for point in report.observations] == [
            "tree/seq",
            "tree/thread",
            "compiled/seq",
            "compiled/thread",
            "infer w",
            "infer uf",
        ]
        assert report.reference.point == "tree/seq"
        assert report.reference.value_repr == "VParVec(items=(0, 0, 0, 0))"
        assert report.reference.fingerprint == "<0, 0, 0, 0>"
        assert all(point.cost == report.reference.cost for point in report.clean)
        assert str(report.typing[0].conclusion) == "int par"

    def test_ast_program_conforms(self):
        expr = parse_program("put (mkpar (fun s -> fun d -> s + d))")
        report = conform(expr, params=BspParams(p=3))
        assert report.conforms and report.succeeded

    def test_bsmllib_program_conforms(self):
        def program(bsml):
            vec = bsml.mkpar(lambda i: i + 1)
            return bsml.apply(bsml.mkpar(lambda i: lambda x: x * 2), vec)

        report = conform(program, params=BspParams(p=4))
        assert report.conforms and report.succeeded
        assert [point.point for point in report.observations] == ["seq", "thread"]
        assert report.reference.value_repr == "[2, 4, 6, 8]"

    def test_agreed_error_conforms(self):
        # Every point must reject the same ill-formed program with the
        # same error; that agreement *is* conformance.
        report = conform("1 + true", use_prelude=False)
        assert report.conforms
        assert not report.succeeded
        assert all(point.error == report.reference.error for point in report.clean)
        assert all(point.error.startswith("UnificationError") for point in report.typing)

    def test_backend_subset(self):
        report = conform("2 + 2", backends=("thread",), infer_engines=())
        assert [point.point for point in report.observations] == [
            "tree/thread",
            "compiled/thread",
        ]
        assert report.conforms


def _ok(engine, backend, value_repr="[1]", cost=None, trace=()):
    return Observation(
        backend=backend,
        engine=engine,
        value_repr=value_repr,
        fingerprint=value_repr,
        cost=cost or BspCost(p=1, supersteps=[]),
        trace=trace,
    )


class TestVerdicts:
    def test_value_divergence_detected(self):
        report = Report(
            "'demo'",
            [_ok("tree", "seq"), _ok("tree", "thread", value_repr="[2]")],
        )
        assert not report.conforms
        text = report.explain()
        assert "DIVERGES" in text
        assert "first divergence at tree/thread: value: expected [1], got [2]" in text
        assert "[tree/seq]" in text and "[tree/thread]" in text

    def test_repr_compared_only_within_one_engine(self):
        # The engines' closures print differently; the fingerprint is
        # what crosses engines.
        other_engine = _ok("compiled", "seq", value_repr="[1]")
        other_engine.value_repr = "VCompiledClosure(...)"
        report = Report("'demo'", [_ok("tree", "seq"), other_engine])
        assert report.conforms
        same_engine = _ok("tree", "thread")
        same_engine.value_repr = "VClosure(...)"
        report = Report("'demo'", [_ok("tree", "seq"), same_engine])
        assert "tree/thread: value" in report.divergence()

    def test_cost_divergence_detected(self):
        other = BspCost(
            p=1, supersteps=[SuperstepCost(work=(1.0,), relation=None)]
        )
        report = Report(
            "'demo'", [_ok("tree", "seq"), _ok("tree", "thread", cost=other)]
        )
        assert not report.conforms
        assert "tree/thread: cost: expected 0 supersteps" in report.explain()
        shifted = BspCost(
            p=1, supersteps=[SuperstepCost(work=(2.0,), relation=None)]
        )
        report = Report(
            "'demo'",
            [_ok("tree", "seq", cost=other), _ok("compiled", "seq", cost=shifted)],
        )
        assert "compiled/seq: cost superstep 0" in report.divergence()

    def test_error_divergence_detected(self):
        failed = Observation(backend="thread", engine="tree", error="RuntimeError: x")
        report = Report("'demo'", [_ok("tree", "seq"), failed])
        assert not report.conforms
        assert report.divergence().startswith("tree/thread: error:")

    def test_explain_mentions_program(self):
        report = Report("'my program'", [_ok("tree", "seq")])
        assert "'my program'" in report.explain()

    def test_armed_points_all_fault_or_all_complete(self):
        plan = FaultPlan(seed=0, crash=1.0)
        clean = _ok("tree", "seq")
        survived = _ok("tree", "seq")
        survived.plan = plan
        faulted = Observation(
            backend="thread", engine="tree", plan=plan,
            error="SuperstepFault: boom", faulted=True, state_restored=True,
        )
        report = Report("'demo'", [clean, survived, faulted], faults=[plan])
        assert "@ plan seed=0, crash=1.0: error:" in report.divergence()
        survived.error, survived.faulted = faulted.error, True
        survived.state_restored = False
        assert "state_restored" in report.divergence()
        survived.state_restored = True
        assert report.conforms

    def test_typing_divergence_names_the_derivation(self):
        report = conform("let f = fun x -> x in f 1", backends=())
        report.typing[1].derivation.premises[1].note = "doctored"
        assert report.divergence().startswith("infer uf: derivation at root.1")


class TestTheorem1:
    def test_value_retyping_at_another_type_fails(self):
        report = conform("1 + 1", backends=("seq",), engines=("tree",))
        assert report.conforms
        report.reference.value = True
        found = report.divergence()
        assert found.startswith("tree/seq: Theorem 1: value retypes at bool"), found

    def test_well_typed_program_going_wrong_fails(self):
        report = conform("1 + 1", backends=("seq",), engines=("tree",))
        report.reference.error = "DynamicNestingError: nested"
        assert "Theorem 1: well-typed program went wrong" in report.divergence()

    def test_other_runtime_errors_are_allowed(self):
        report = conform("1 / 0", backends=("seq",))
        assert report.typing[0].ok and not report.reference.ok
        assert report.conforms

    def test_rejected_programs_are_not_checked(self):
        report = conform("mkpar (fun pid -> mkpar (fun i -> i))", backends=("seq",))
        assert not report.typing[0].ok
        assert "DynamicNestingError" in report.reference.error


class TestFreshNames:
    def test_rewind_replays_names_and_exit_moves_past_them(self):
        with fresh_names() as rewind:
            first = [core_types.fresh_tvar() for _ in range(3)]
            rewind()
            again = [core_types.fresh_tvar() for _ in range(2)]
        assert again == first[:2]
        later = core_types.fresh_tvar()
        assert later not in first

    def test_replay_does_not_leak_into_the_counter(self):
        before = next(core_types._fresh_counter)
        with fresh_names():
            core_types._fresh_counter = itertools.count(before)
        assert next(core_types._fresh_counter) > before


class TestAssertConformance:
    def test_passes_and_returns_report(self):
        report = conform("let x = 3 in x * x")
        assert report.succeeded

    def test_raises_with_explanation(self):
        calls = itertools.count()

        def flaky(bsml):
            return next(calls)

        with pytest.raises(AssertionError, match="DIVERGES"):
            conform(flaky)

    def test_require_success_rejects_agreed_errors(self):
        # An agreed error conforms; callers that need success assert it.
        report = conform("1 + true", use_prelude=False)
        assert not report.succeeded


class TestCorpus:
    def test_corpus_covers_curated_and_shipped_programs(self):
        names = [name for name, _ in conformance_corpus()]
        assert any(name.startswith("local[") for name in names)
        assert any(name.startswith("global[") for name in names)
        assert any(name.startswith("imperative[") for name in names)
        assert any(name.endswith(".bsml") for name in names)
        assert len(names) == len(set(names))
        assert len(names) >= 40


def test_survivable_plan_is_invisible_at_every_point():
    report = conform(
        "bcast 1 (mkpar (fun i -> i * i))",
        faults=[FaultPlan(seed=seed, crash=0.2, drop=0.1) for seed in range(3)],
        policy=RetryPolicy(max_attempts=8, base_delay=0.0),
    )
    assert len(report.armed) == 3 * len(report.clean)
    assert report.survivable
    for point in report.armed:
        assert point.cost == report.reference.cost
