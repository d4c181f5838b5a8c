"""Tests for the pluggable execution backends (repro.bsp.executor)."""

from __future__ import annotations

from functools import partial

import pytest

from repro import perf
from repro.bsp.executor import (
    BACKENDS,
    BackendUnavailableError,
    SequentialExecutor,
    ThreadExecutor,
    get_executor,
)
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams


def _square_task(i):
    return i * i, 1.0


def _boom_task():
    raise RuntimeError("boom")


def _tasks(p):
    return [partial(_square_task, i) for i in range(p)]


@pytest.fixture(params=BACKENDS)
def executor(request):
    return get_executor(request.param)


class TestAllBackends:
    def test_values_in_task_order(self, executor):
        outcomes = executor.run(_tasks(5))
        assert [outcome.value for outcome in outcomes] == [
            (i * i, 1.0) for i in range(5)
        ]
        assert all(outcome.error is None for outcome in outcomes)

    def test_timings_are_measured(self, executor):
        outcomes = executor.run(_tasks(3))
        assert all(outcome.seconds >= 0.0 for outcome in outcomes)

    def test_errors_are_reported_per_task(self, executor):
        outcomes = executor.run([partial(_square_task, 0), _boom_task])
        assert outcomes[0].error is None
        assert isinstance(outcomes[1].error, RuntimeError)

    def test_empty_task_list(self, executor):
        assert executor.run([]) == []


class TestSequential:
    def test_fails_fast(self):
        ran = []

        def record(i):
            ran.append(i)
            return i, 1.0

        def boom():
            raise RuntimeError("stop here")

        outcomes = SequentialExecutor().run(
            [partial(record, 0), boom, partial(record, 2)]
        )
        # The task after the failure never ran: exactly the historical
        # in-line semantics the other backends are compared against.
        assert ran == [0]
        assert outcomes[2].skipped


class TestThread:
    def test_reentrant_submission_runs_inline(self):
        # A task that itself opens a computation phase must not deadlock
        # the pool (it runs inline and is rejected by downstream checks).
        executor = ThreadExecutor(max_workers=1)

        def outer():
            inner = executor.run([lambda: (42, 1.0)])
            return inner[0].value[0], 1.0

        outcomes = executor.run([outer])
        assert outcomes[0].value == (42, 1.0)
        executor.close()

    def test_unstartable_pool_is_one_line_error(self, monkeypatch):
        import repro.bsp.executor as executor_mod

        def no_pool(*args, **kwargs):
            raise OSError("no threads allowed in this sandbox")

        monkeypatch.setattr(executor_mod, "ThreadPoolExecutor", no_pool)
        with pytest.raises(BackendUnavailableError) as excinfo:
            ThreadExecutor().run(_tasks(2))
        message = str(excinfo.value)
        assert message.startswith("backend 'thread' is unavailable here")
        assert "valid backends: seq, thread" in message


class TestRegistry:
    def test_shared_instances(self):
        assert get_executor("thread") is get_executor("thread")
        assert get_executor("seq") is get_executor("sequential")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("gpu")

    @pytest.mark.parametrize("name", ["process", "processes"])
    def test_process_backend_is_gone(self, name):
        with pytest.raises(ValueError, match="choose from seq, thread"):
            get_executor(name)

    @pytest.mark.parametrize("name", [5, None, ["seq"]], ids=["int", "null", "list"])
    def test_non_string_backend_is_a_value_error(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor(name)

    def test_machine_accepts_executor(self):
        machine = BspMachine(BspParams(p=2), executor=get_executor("thread"))
        assert machine.executor.name == "thread"
