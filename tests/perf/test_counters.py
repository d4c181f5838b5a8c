"""Tests for the perf observability layer (counters, timers, caches)."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import obs, perf


class TestCounters:
    def test_increment_outside_collection_is_noop(self):
        perf.increment("orphan")  # must not raise, must not record anywhere
        with perf.collect() as stats:
            pass
        assert stats.counter("orphan") == 0

    def test_increment_inside_collection(self):
        with perf.collect() as stats:
            perf.increment("events")
            perf.increment("events", 2)
        assert stats.counter("events") == 3

    def test_missing_counter_reads_zero(self):
        with perf.collect() as stats:
            pass
        assert stats.counter("never-touched") == 0

    def test_nested_collectors_each_see_their_window(self):
        with perf.collect() as outer:
            perf.increment("n")
            with perf.collect() as inner:
                perf.increment("n")
        assert outer.counter("n") == 2
        assert inner.counter("n") == 1

    def test_is_collecting(self):
        assert not perf.is_collecting()
        with perf.collect():
            assert perf.is_collecting()
        assert not perf.is_collecting()


class TestTimers:
    def test_timed_accumulates(self):
        with perf.collect() as stats:
            with perf.timed("work"):
                pass
            with perf.timed("work"):
                pass
        assert stats.timers["work"] >= 0.0

    def test_timed_is_noop_when_inactive(self):
        with perf.timed("ghost"):
            pass  # no collector: nothing recorded, nothing raised

    def test_render_mentions_sections(self):
        with perf.collect() as stats:
            perf.increment("a.count", 5)
            with perf.timed("a.time"):
                pass
        text = stats.render()
        assert "a.count" in text and "a.time" in text

    def test_render_empty_window(self):
        stats = perf.PerfStats()
        stats.snapshot_caches()  # baseline == now: zero deltas everywhere
        assert "nothing recorded" in stats.render()


class TestCacheReports:
    def test_register_requires_lru_cache(self):
        with pytest.raises(TypeError):
            perf.register_cache("plain", lambda x: x)

    def test_solver_caches_are_registered(self):
        import repro.core.constraints  # noqa: F401  (registers on import)

        names = set(perf.registered_caches())
        assert {
            "constraints.solve",
            "constraints.is_satisfiable",
            "constraints.is_valid",
            "constraints.locality",
            "constraints.basic_constraint",
        } <= names

    def test_deltas_are_windowed(self):
        @lru_cache(maxsize=None)
        def double(x):
            return 2 * x

        perf.register_cache("test.double", double)
        try:
            double(1)  # a miss before the window opens
            with perf.collect() as stats:
                double(1)  # hit
                double(2)  # miss
                double(2)  # hit
            report = {r.name: r for r in stats.cache_reports()}["test.double"]
            assert report.hits == 2
            assert report.misses == 1
            assert report.calls == 3
            assert report.hit_rate == pytest.approx(2 / 3)
        finally:
            del perf.counters._REGISTERED_CACHES["test.double"]

    def test_hit_rate_of_unknown_cache_raises(self):
        with perf.collect() as stats:
            pass
        with pytest.raises(KeyError):
            stats.hit_rate("no-such-cache")


class TestBoundedMemo:
    """The solver memo's bookkeeping over an ``lru_cache`` core."""

    def test_hits_misses_and_derived_evictions(self):
        memo = perf.BoundedMemo(lambda x: x * 3, 4, name="test.triple")
        for key in range(10):
            assert memo(key) == key * 3
        memo(9)  # most recent: a hit
        memo(0)  # evicted long ago: a miss that evicts one more
        info = memo.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 11, 4, 4)
        assert memo.evictions == 7

    def test_clear_and_resize_keep_counts_and_never_lower_evictions(self):
        memo = perf.BoundedMemo(lambda x: -x, 2)
        for key in range(5):
            memo(key)
        seen = [memo.evictions]
        memo.cache_clear()
        seen.append(memo.evictions)
        memo.resize(3)
        seen.append(memo.evictions)
        for key in range(5):
            memo(key)
            seen.append(memo.evictions)
        assert seen == sorted(seen) and seen[0] == seen[2] == 3 and seen[-1] == 5
        info = memo.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (10, 3, 3)
        with pytest.raises(ValueError):
            memo.resize(0)

    def test_concurrent_calls_keep_counts_exact_and_evictions_monotone(self):
        import sys
        import threading

        def depth(n):
            # Recursive, so misses are in flight on several threads at once.
            return 0 if n == 0 else 1 + memo(n - 1)

        memo = perf.BoundedMemo(depth, 16)
        workers, rounds, keys = 8, 300, 40
        readings, errors = [], []
        stop = threading.Event()

        def call():
            try:
                for r in range(rounds):
                    key = (r * 7) % keys
                    assert memo(key) == key
            except BaseException as error:  # reported below
                errors.append(error)

        def read():
            while not stop.is_set():
                readings.append(memo.evictions)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            threads = [threading.Thread(target=call) for _ in range(workers)]
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not reader.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert readings == sorted(readings)
        info = memo.cache_info()
        # Every top-level call and every recursive call is one hit or miss.
        assert info.hits + info.misses >= workers * rounds
        assert memo.evictions >= info.misses - info.currsize
        assert info.currsize <= 16

    def test_recursive_function_cannot_deadlock(self):
        def fib(n):
            return n if n < 2 else memo(n - 1) + memo(n - 2)

        memo = perf.BoundedMemo(fib, 8)
        assert memo(60) == 1548008755920
        assert memo.cache_info().currsize == 8


class TestRenderVerbose:
    def test_default_render_hides_zero_call_caches(self):
        import repro.core.constraints  # noqa: F401  (registers on import)

        stats = perf.PerfStats()
        stats.snapshot_caches()  # baseline == now: zero deltas everywhere
        assert "constraints.solve" not in stats.render()

    def test_verbose_render_includes_zero_call_caches(self):
        import repro.core.constraints  # noqa: F401

        stats = perf.PerfStats()
        stats.snapshot_caches()
        text = stats.render(verbose=True)
        assert "constraints.solve" in text
        assert "0/0" in text

    def test_cache_order_is_deterministic_by_name(self):
        @lru_cache(maxsize=None)
        def zzz(x):
            return x

        @lru_cache(maxsize=None)
        def aaa(x):
            return x

        # registration order is deliberately reversed alphabetically
        perf.register_cache("test.zzz", zzz)
        perf.register_cache("test.aaa", aaa)
        try:
            with perf.collect() as stats:
                zzz(1)
                aaa(1)
            names = [r.name for r in stats.cache_reports()]
            assert names == sorted(names)
            text = stats.render(verbose=True)
            assert text.index("test.aaa") < text.index("test.zzz")
        finally:
            del perf.counters._REGISTERED_CACHES["test.zzz"]
            del perf.counters._REGISTERED_CACHES["test.aaa"]


class TestPerfAndTracingTogether:
    """Nested perf.collect() scopes interacting with trace windows on the
    one window stack: opening or closing a window of one view leaves the
    others open, and every open window of each view sees the
    instrumentation fired inside it."""

    def test_nested_perf_scopes_with_active_tracer(self):
        from repro import run_program

        with obs.trace() as trace:
            with perf.collect() as outer:
                run_program("mkpar (fun i -> i)", p=2)
                first_runs = outer.counter("infer.runs")
                spans_after_first = len(trace.records)
                with perf.collect() as inner:
                    run_program("mkpar (fun i -> i + 1)", p=2)
        # both perf windows saw their own counter totals: the outer one
        # accumulated the first run plus everything the inner one saw
        assert first_runs > 0
        assert inner.counter("infer.runs") > 0
        assert outer.counter("infer.runs") == first_runs + inner.counter(
            "infer.runs"
        )
        # the tracer kept collecting across both perf scopes
        assert len(trace.records) > spans_after_first > 0

    def test_nested_tracers_with_active_perf_scope(self):
        from repro import run_program

        with perf.collect() as stats:
            with obs.trace() as outer:
                run_program("mkpar (fun i -> i)", p=2)
                with obs.trace() as inner:
                    run_program("mkpar (fun i -> i * 2)", p=2)
        assert stats.counter("infer.runs") > 0
        assert len(inner.records) > 0
        # the outer tracer saw everything the inner one saw, plus its own
        assert len(outer.records) > len(inner.records)
        assert outer.records[-len(inner.records):] == inner.records

    def test_perf_without_tracing_records_no_spans(self):
        from repro import run_program

        with perf.collect() as stats:
            run_program("mkpar (fun i -> i)", p=2)
        assert stats.counter("infer.runs") > 0
        assert not obs.is_tracing()

    def test_tracing_without_perf_counts_nothing(self):
        from repro import run_program

        with obs.trace() as trace:
            run_program("mkpar (fun i -> i)", p=2)
        assert not perf.is_collecting()
        assert trace.spans("judgment")


class TestOneChannel:
    """Counting windows, trace windows and the metrics registry read one
    record stream: each event is reported once and counted from it."""

    SOURCE = (
        "let twice = fun f -> fun x -> f (f x) in "
        "let v = mkpar (fun i -> twice (fun j -> j + 1) i) in "
        "(twice (fun b -> b) true, bcast 0 v)"
    )

    def test_counting_window_keeps_the_product_pass(self):
        from repro.core import uf
        from repro.core.prelude_env import prelude_env
        from repro.lang.parser import parse_program

        expr = parse_program(self.SOURCE)
        env = prelude_env()
        names = []
        sink = names.append
        obs.add_sink(sink)
        try:
            with perf.collect() as stats:
                assert not obs.window_open()
                uf.infer(expr, env)
        finally:
            obs.remove_sink(sink)
        # The counts of the product pass, as they were when every site
        # also incremented its counters directly.
        assert stats.counter("infer.solve_checks") == 5
        assert stats.counter("infer.nodes") == 34
        assert stats.counter("unify.calls") == 10
        assert stats.counter("unify.steps") == 37
        assert stats.timers["infer"] > 0
        assert stats.records is None
        # The sink sees each Solve check once, as the record the
        # counter is derived from, and no per-judgment record.
        assert [r.name for r in names if r.name not in ("infer", "unify", "solve")] == []
        assert [r.name for r in names].count("solve") == 5

    def test_one_superstep_commit_feeds_every_consumer(self):
        from repro.bsp import BspMachine, BspParams
        from repro.obs import metrics

        machine = BspMachine(BspParams(p=2, g=1.0, l=1.0))
        metrics.enable()
        try:
            before = metrics.SUPERSTEPS_TOTAL.value()
            with perf.collect() as stats, obs.trace() as window:
                machine.exchange([[0, 3], [0, 0]])
            committed = metrics.SUPERSTEPS_TOTAL.value() - before
        finally:
            metrics.disable()
        assert stats.counter("bsp.supersteps") == 1
        assert stats.counter("bsp.words_exchanged") == 3
        assert [r.arg("words") for r in window.events("superstep")] == [3]
        assert committed == 1

    def test_cache_hit_counts_once_per_consumer(self):
        from repro.service.cache import ShardedCache

        def scraped_hits(cache):
            family = cache.metric()
            assert family.name == "repro_response_cache_requests_total"
            return sum(
                sample.value
                for sample in family.samples
                if sample.labels == (("result", "hit"),)
            )

        cache = ShardedCache(capacity=8, shards=2)
        key = "ab" * 32
        cache.put(key, 1)
        before = scraped_hits(cache)
        with perf.collect() as stats:
            assert cache.get(key) == 1
        assert stats.counter("service.cache.hit") == 1
        assert scraped_hits(cache) - before == 1


class TestStartStop:
    def test_open_ended_window(self):
        stats = perf.start()
        try:
            perf.increment("repl.events")
        finally:
            perf.stop(stats)
        assert stats.counter("repl.events") == 1
        assert not perf.is_collecting()

    def test_stop_is_idempotent(self):
        stats = perf.start()
        perf.stop(stats)
        perf.stop(stats)
        assert not perf.is_collecting()
