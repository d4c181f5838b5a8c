"""Tests for the trace model: records, spans, tracks, signatures."""

from __future__ import annotations

import time

import pytest

from repro import obs, perf


class TestDisabledPath:
    def test_not_tracing_by_default(self):
        assert not obs.is_tracing()

    def test_record_is_noop_when_inactive(self):
        obs.record("x", obs.MACHINE_TRACK, 0.0, 1.0)
        obs.event("y", obs.MACHINE_TRACK)
        assert not obs.is_tracing()

    def test_span_yields_none_when_inactive(self):
        with obs.span("x", obs.MACHINE_TRACK) as extra:
            assert extra is None

    def test_span_yields_dict_when_active(self):
        with obs.trace() as t:
            with obs.span("x", obs.MACHINE_TRACK) as extra:
                assert extra == {}
                extra["late"] = 7
        assert t.records[0].arg("late") == 7


class TestCollection:
    def test_event_and_span_recorded(self):
        with obs.trace() as t:
            obs.event("boom", obs.MACHINE_TRACK, kind="crash")
            with obs.span("phase", obs.MACHINE_TRACK, superstep=0):
                pass
        assert len(t.records) == 2
        boom, phase = t.records
        assert not boom.is_span and boom.dur is None
        assert phase.is_span and phase.dur >= 0.0
        assert boom.arg("kind") == "crash"
        assert phase.arg("superstep") == 0

    def test_span_recorded_even_on_raise(self):
        with obs.trace() as t:
            with pytest.raises(RuntimeError):
                with obs.span("failing", obs.MACHINE_TRACK):
                    raise RuntimeError("boom")
        assert [r.name for r in t.records] == ["failing"]

    def test_args_are_name_sorted(self):
        with obs.trace() as t:
            obs.event("e", obs.MACHINE_TRACK, z=1, a=2, m=3)
        assert [k for k, _ in t.records[0].args] == ["a", "m", "z"]

    def test_nested_collectors_both_see_records(self):
        with obs.trace() as outer:
            obs.event("one", obs.MACHINE_TRACK)
            with obs.trace() as inner:
                obs.event("two", obs.MACHINE_TRACK)
        assert [r.name for r in outer.records] == ["one", "two"]
        assert [r.name for r in inner.records] == ["two"]

    def test_stack_unwinds(self):
        with obs.trace():
            assert obs.is_tracing()
        assert not obs.is_tracing()

    def test_open_ended_window(self):
        collector = obs.start()
        obs.event("during", obs.MACHINE_TRACK)
        obs.stop(collector)
        obs.event("after", obs.MACHINE_TRACK)
        assert [r.name for r in collector.records] == ["during"]
        assert not obs.is_tracing()

    def test_stop_is_idempotent(self):
        collector = obs.start()
        obs.stop(collector)
        obs.stop(collector)
        assert not obs.is_tracing()

    def test_resume_appends_after_pause(self):
        collector = obs.start()
        obs.event("first", obs.MACHINE_TRACK)
        obs.stop(collector)
        obs.event("lost", obs.MACHINE_TRACK)
        obs.resume(collector)
        obs.event("second", obs.MACHINE_TRACK)
        obs.stop(collector)
        assert [r.name for r in collector.records] == ["first", "second"]

    def test_resume_is_idempotent(self):
        collector = obs.start()
        obs.resume(collector)
        obs.event("once", obs.MACHINE_TRACK)
        obs.stop(collector)
        assert [r.name for r in collector.records] == ["once"]

    def test_timestamps_are_perf_counter_values(self):
        before = time.perf_counter()
        with obs.trace() as t:
            obs.event("now", obs.MACHINE_TRACK)
        after = time.perf_counter()
        assert before <= t.records[0].ts <= after
        assert t.epoch <= t.records[0].ts


class TestWindowViews:
    """Trace and counting windows are two views on one window stack."""

    def test_counting_window_is_not_a_trace_window(self):
        with perf.collect() as stats:
            assert obs.is_tracing() and obs.in_window()
            assert perf.is_collecting() and not obs.window_open()
        assert stats.records is None

    def test_trace_window_keeps_no_counters(self):
        with obs.trace() as window:
            assert obs.window_open() and not perf.is_collecting()
            perf.increment("ignored")
        assert window.counters is None

    def test_counting_window_derives_counters_from_records(self):
        with perf.collect() as stats, obs.trace() as window:
            obs.record("unify", obs.INFERENCE_TRACK, 0.0, 0.5, steps=4)
            obs.event("superstep", obs.MACHINE_TRACK, words=7)
            obs.record("infer", obs.INFERENCE_TRACK, 0.0, 0.25)
        assert stats.counter("unify.calls") == 1
        assert stats.counter("unify.steps") == 4
        assert stats.counter("bsp.supersteps") == 1
        assert stats.counter("bsp.words_exchanged") == 7
        assert stats.timers == {"infer": 0.25}
        assert [r.name for r in window.records] == ["unify", "superstep", "infer"]

    def test_closing_one_view_leaves_the_other_open(self):
        stats = perf.start()
        collector = obs.start()
        perf.stop(stats)
        assert obs.window_open() and not perf.is_collecting()
        obs.stop(collector)
        assert not obs.in_window()


class TestQueries:
    def test_spans_and_events_filter(self):
        with obs.trace() as t:
            obs.event("fault", obs.process_track(1), kind="crash")
            with obs.span("task", obs.process_track(1)):
                pass
            with obs.span("task", obs.process_track(2)):
                pass
        assert len(t.spans()) == 2
        assert len(t.spans("task")) == 2
        assert t.spans("fault") == []
        assert len(t.events("fault")) == 1
        assert len(t) == 3

    def test_track_order_machine_procs_inference(self):
        with obs.trace() as t:
            obs.event("a", obs.INFERENCE_TRACK)
            obs.event("b", obs.process_track(10))
            obs.event("c", obs.process_track(2))
            obs.event("d", obs.MACHINE_TRACK)
            obs.event("e", "zcustom")
        assert t.tracks() == ["machine", "proc 2", "proc 10", "inference", "zcustom"]

    def test_track_order_is_not_quadratic_in_processes(self):
        # A run has one track per process; ordering them once was
        # O(p^2) (seconds at p = 10,000).
        p = 10_000
        with obs.trace() as t:
            for proc in reversed(range(p)):
                obs.event("task", obs.process_track(proc))
            obs.event("other", "zcustom")
        started = time.perf_counter()
        tracks = t.tracks()
        elapsed = time.perf_counter() - started
        assert tracks == [obs.process_track(proc) for proc in range(p)] + ["zcustom"]
        assert elapsed < 1.0, f"tracks() took {elapsed:.2f} s"


class TestAbstractSignature:
    def test_measured_args_are_filtered(self):
        with obs.trace() as t:
            obs.record(
                "task",
                obs.process_track(0),
                1.0,
                0.5,
                proc=0,
                ops=12,
                seconds=0.5,
            )
        (entry,) = t.abstract_signature()
        assert entry == ("task", "proc 0", (("ops", 12), ("proc", 0)))

    def test_signature_ignores_timing_but_keeps_order(self):
        def run(delay):
            t = obs.start()
            obs.event("one", obs.MACHINE_TRACK, superstep=0)
            if delay:
                time.sleep(0.002)
            obs.event("two", obs.MACHINE_TRACK, superstep=1)
            obs.stop(t)
            return t

        assert run(False).abstract_signature() == run(True).abstract_signature()

    def test_records_are_hashable(self):
        with obs.trace() as t:
            obs.event("e", obs.MACHINE_TRACK, kind="crash")
        assert isinstance(hash(t.records[0]), int)
        assert t.records[0].args_dict() == {"kind": "crash"}
