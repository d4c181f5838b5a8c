"""Trace conformance across process schedules.

The abstract projection of a structured trace — superstep structure,
h-relations per superstep, abstract op counts — is deterministic for a
deterministic program, so it must be bit-identical whatever order the
computation phases ran their processes in.  Timestamps and durations are
excluded by construction (:meth:`repro.obs.Trace.abstract_signature`).
"""

from __future__ import annotations

from repro import obs
from repro.bsp.params import BspParams
from repro.testing import conform

PROGRAMS = (
    "bcast 2 (mkpar (fun i -> i * i))",
    "apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> i))",
    "let v = mkpar (fun i -> i + 1) in bcast 0 v",
)


def _schedules(source, **axes):
    """The schedule axis alone, on the tree engine."""
    return conform(source, engines=("tree",), infer_engines=(), **axes)


class TestDifferentialTraceConformance:
    def test_signatures_collected_and_identical(self):
        report = _schedules(PROGRAMS[0])
        reference = report.reference.trace
        assert reference  # non-empty: the machine emitted abstract records
        for point in report.evaluations[1:]:
            assert point.trace == reference
        assert report.conforms

    def test_corpus_conforms_with_traces(self):
        for source in PROGRAMS:
            assert conform(source).succeeded

    def test_divergent_signature_fails_conformance(self):
        report = _schedules(PROGRAMS[0])
        doctored = report.evaluations[1].trace + (
            ("fault", "proc 0", (("kind", "crash"),)),
        )
        report.evaluations[1].trace = doctored
        assert not report.conforms
        assert "tree/reversed: trace length" in report.explain()

    def test_divergence_pinpoints_first_record(self):
        report = _schedules(PROGRAMS[0])
        signature = list(report.evaluations[1].trace)
        signature[0] = ("task", "proc 999", ())
        report.evaluations[1].trace = tuple(signature)
        assert "tree/reversed: trace record 0" in report.explain()


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
