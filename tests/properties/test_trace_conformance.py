"""Trace conformance across execution backends.

The abstract projection of a structured trace — superstep structure,
h-relations per superstep, abstract op counts, fault draws and retry
outcomes — is deterministic for a deterministic program, so it must be
bit-identical whichever backend ran the computation phases.  Timestamps,
durations and backend lifecycle records (``backend.*``) are excluded by
construction (:meth:`repro.obs.Trace.abstract_signature`).
"""

from __future__ import annotations

import os

from repro import obs
from repro.bsp.faults import FaultPlan, RetryPolicy
from repro.bsp.params import BspParams
from repro.testing import DEFAULT_CHAOS_RATES, conform

PROGRAMS = (
    "bcast 2 (mkpar (fun i -> i * i))",
    "apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> i))",
    "let v = mkpar (fun i -> i + 1) in bcast 0 v",
)

CHAOS_SEEDS = int(os.environ.get("TRACE_CHAOS_SEEDS", "12"))

GENEROUS = RetryPolicy(max_attempts=6, base_delay=0.0)


def _backends(source, **axes):
    """The backend axis alone, on the tree engine."""
    return conform(source, engines=("tree",), infer_engines=(), **axes)


def _chaos(source, seed):
    return _backends(
        source, faults=[FaultPlan(seed=seed, **DEFAULT_CHAOS_RATES)], policy=GENEROUS
    )


class TestDifferentialTraceConformance:
    def test_signatures_collected_and_identical(self):
        report = _backends(PROGRAMS[0])
        reference = report.reference.trace
        assert reference  # non-empty: the machine emitted abstract records
        for point in report.clean[1:]:
            assert point.trace == reference
        assert report.conforms

    def test_corpus_conforms_with_traces(self):
        for source in PROGRAMS:
            assert conform(source).succeeded

    def test_divergent_signature_fails_conformance(self):
        report = _backends(PROGRAMS[0])
        doctored = report.clean[1].trace + (
            ("fault", "proc 0", (("kind", "crash"),)),
        )
        report.clean[1].trace = doctored
        assert not report.conforms
        assert "tree/thread: trace length" in report.explain()

    def test_divergence_pinpoints_first_record(self):
        report = _backends(PROGRAMS[0])
        signature = list(report.clean[1].trace)
        signature[0] = ("task", "proc 999", ())
        report.clean[1].trace = tuple(signature)
        assert "tree/thread: trace record 0" in report.explain()


class TestChaosTraceConformance:
    def test_fault_schedule_identical_across_backends(self):
        for seed in range(CHAOS_SEEDS):
            report = _chaos(PROGRAMS[0], seed)
            signatures = [point.trace for point in report.armed if point.ok]
            for signature in signatures[1:]:
                assert signature == signatures[0]

    def test_survivable_chaos_trace_contains_fault_events(self):
        # Seeds chosen so the default rates inject at least one fault
        # while the generous policy still survives; the point is that the
        # injected schedule itself is part of the conforming signature.
        seen_fault = False
        for seed in range(CHAOS_SEEDS):
            report = _chaos(PROGRAMS[1], seed)
            if not report.survivable:
                continue
            if any(entry[0] == "fault" for entry in report.armed[0].trace):
                seen_fault = True
        assert seen_fault

    def test_clean_reference_lacks_fault_events_yet_conforms(self):
        # The clean reference's trace has no fault records; armed traces
        # are judged among themselves, never against it.
        for seed in range(CHAOS_SEEDS):
            report = _chaos(PROGRAMS[0], seed)
            assert not any(entry[0] == "fault" for entry in report.reference.trace)
            if report.survivable and any(
                entry[0] == "fault" for entry in report.armed[0].trace
            ):
                return
        raise AssertionError("no survivable plan injected a fault")


class TestTraceVersusCost:
    def test_commit_events_agree_with_cost_totals(self):
        params = BspParams(p=4)
        with obs.trace() as t:
            from repro.semantics.costed import run_costed
            from repro.lang.parser import parse_program

            result = run_costed(
                parse_program(PROGRAMS[0]), params, use_prelude=True
            )
        commits = t.events("superstep")
        synchronized = [s for s in result.cost.supersteps if s.synchronized]
        assert len(commits) >= len(synchronized)
        traced_h = sum(c.arg("h") for c in commits)
        assert traced_h == result.cost.H
