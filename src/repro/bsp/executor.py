"""Pluggable execution backends for the BSP substrate.

The :class:`~repro.bsp.machine.BspMachine` *accounts* cost; an
:class:`Executor` decides how the per-process computation phase of a
superstep actually runs.  Two interchangeable backends sit behind one
protocol:

* :class:`SequentialExecutor` — the historical behaviour: run each task
  in order on the calling thread (the default, and the reference
  semantics the other backend is differentially tested against);
* :class:`ThreadExecutor` — a shared ``ThreadPoolExecutor``; the witness
  that scheduling cannot change the result: the deterministic cost
  accounting must come out identical under a concurrent schedule.

Every task is a zero-argument callable returning ``(value, ops)`` where
``ops`` is the abstract local-work count to fold into the cost model.
Executors measure per-task wall-clock seconds (*inside* the worker) and
report :class:`TaskOutcome` records in task order.  Cost accounting
therefore stays **backend-independent**: the abstract op counts are
computed by the tasks themselves, deterministically, while the measured
seconds ride alongside and never participate in
:class:`~repro.bsp.cost.BspCost` equality.

Error discipline: the sequential backend fails fast (exactly the old
in-line behaviour); the thread backend runs every task and reports each
task's error, and the machine re-raises the lowest-index one, so the
*propagated* exception is deterministic across backends.  No executor
path discards an exception.  A backend whose pool cannot even start in
this environment raises :class:`BackendUnavailableError`
with a one-line message naming the valid backends.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.lang.errors import ReproError

#: A unit of per-process work: returns ``(value, abstract_op_count)``.
Task = Callable[[], Any]

#: The canonical backend names, in documentation order.
BACKENDS = ("seq", "thread")

_ALIASES = {
    "seq": "seq",
    "sequential": "seq",
    "thread": "thread",
    "threads": "thread",
}


class BackendUnavailableError(ReproError):
    """A known backend whose pool cannot be started in this environment."""


@dataclass
class TaskOutcome:
    """What happened to one task: a value, an error, or skipped.

    ``seconds`` is the wall-clock compute time measured around the call
    inside the worker (a pool thread, or the calling thread for the
    sequential backend); ``started`` is the worker's ``perf_counter`` at
    call time, so the tracing layer (:mod:`repro.obs`) can place the task
    on its process's timeline.
    """

    value: Any = None
    seconds: float = 0.0
    started: float = 0.0
    error: Optional[BaseException] = None
    skipped: bool = False


def _timed(task: Task) -> TaskOutcome:
    """Run ``task`` and capture its value/error with wall-clock timing."""
    start = time.perf_counter()
    try:
        value = task()
    except Exception as error:
        return TaskOutcome(
            error=error, seconds=time.perf_counter() - start, started=start
        )
    return TaskOutcome(
        value=value, seconds=time.perf_counter() - start, started=start
    )


class SequentialExecutor:
    """Run tasks one after another on the calling thread (fail-fast).

    This is the reference backend: its interleaving is exactly the
    historical in-line execution, so anything the differential harness
    observes on it defines correctness for the thread backend.
    """

    name = "seq"

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        failed = False
        for task in tasks:
            if failed:
                outcomes.append(TaskOutcome(skipped=True))
                continue
            outcome = _timed(task)
            outcomes.append(outcome)
            failed = outcome.error is not None
        return outcomes

    def close(self) -> None:
        pass


class ThreadExecutor:
    """Run tasks concurrently on a shared thread pool.

    Re-entrant submissions (a task that itself opens a computation phase,
    e.g. an improperly nested BSML ``mkpar``) are detected via a
    thread-local flag and run inline instead of being queued — queueing
    them behind the very task that is waiting for them would deadlock a
    small pool.  The nesting itself is still rejected downstream by the
    usual dynamic checks; the executor just refuses to die first.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers or min(16, 4 * (os.cpu_count() or 1))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._local = threading.local()

    def _ensure(self) -> ThreadPoolExecutor:
        if self._pool is None:
            try:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers, thread_name_prefix="bsp-proc"
                )
            except Exception as error:
                raise BackendUnavailableError(
                    f"backend 'thread' is unavailable here ({error}); "
                    f"valid backends: {', '.join(BACKENDS)}"
                ) from error
        return self._pool

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        if getattr(self._local, "in_worker", False):
            if obs.is_tracing():
                obs.event(
                    "backend.reentrant_inline",
                    obs.MACHINE_TRACK,
                    backend=self.name,
                    tasks=len(tasks),
                )
            return SequentialExecutor().run(tasks)
        pool = self._ensure()
        futures = [pool.submit(self._worker, task) for task in tasks]
        return [future.result() for future in futures]

    def _worker(self, task: Task) -> TaskOutcome:
        self._local.in_worker = True
        try:
            return _timed(task)
        finally:
            self._local.in_worker = False

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Shared per-name instances so the thread pool is reused across machines
#: (pool startup dwarfs any superstep; see bench_backends.py).
_SHARED: Dict[str, Any] = {}


def get_executor(name: str = "seq"):
    """The shared executor for ``name`` (``seq`` or ``thread``).

    Aliases ``sequential``/``threads`` are accepted.
    Instances are lazily created and cached module-wide, so repeated
    machines reuse one pool per backend.
    """
    key = _ALIASES.get(name.lower()) if isinstance(name, str) else None
    if key is None:
        raise ValueError(
            f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
        )
    if key not in _SHARED:
        _SHARED[key] = {
            "seq": SequentialExecutor,
            "thread": ThreadExecutor,
        }[key]()
    return _SHARED[key]


def shutdown_executors() -> None:
    """Close every shared pool (tests and interpreter teardown)."""
    for executor in _SHARED.values():
        executor.close()
