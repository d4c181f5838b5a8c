"""The one instrumentation channel: records, windows and sinks.

Every instrumentation site of the BSP machine and the inference
pipeline reports an event once, as a :class:`TraceRecord` — a **span**
(a name, a start timestamp and a duration) or an **instant event** —
on a named **track**: one per BSP process id (``proc 0`` ...), the
``machine`` track (superstep phases and commits with their committed
:class:`~repro.bsp.cost.BspCost` row) and the ``inference`` track (the
``infer`` span of each run; inside any window, the ``Solve`` checks
and unifications; inside a trace window only, the per-judgment spans
above them).

Three consumers read that one stream.  A **trace window**
(:class:`Trace`, :func:`trace`) keeps every record.  A **counting
window** (:class:`repro.perf.PerfStats`, :func:`repro.perf.collect`)
keeps counters and timers: what sites add with :func:`increment`, plus
what it derives from the records it sees (:data:`DERIVED_COUNTERS`,
:data:`DERIVED_TIMERS`).  A process-global **sink** (:func:`add_sink`;
the registry of :mod:`repro.obs.metrics`) sees every record of the
process.  Both window kinds are :class:`Window` views on one
**context-local** stack (a :class:`contextvars.ContextVar`), so two
requests served on different threads or asyncio tasks never report
into each other's windows, while a sink aggregates across all of them.

Each site guards itself with one test, a truthiness check when nothing
listens: :func:`is_tracing` (any window or sink) for the machine's
phases and the ``infer`` span, :func:`in_window` (any window) for
unification and ``Solve`` checks, and :func:`window_open` (a trace
window) for the per-judgment spans and per-process tasks — so a
counting window or a sink alone does not turn on the checked inference
pass.

Timestamps are ``time.perf_counter()`` values, so worker-measured task
timings and coordinator-measured phase spans share one timeline;
exporters (:mod:`repro.obs.export`) normalize them against the window's
``epoch``.

**Abstract versus measured.**  :meth:`Trace.abstract_signature`
projects a trace onto what is deterministic about an execution (span
names, tracks, superstep indices, abstract op counts, h-relations):
arg keys in :data:`NONABSTRACT_ARGS` are filtered out.  The conformance
harness (:func:`repro.testing.conform`) demands that this signature be
bit-identical across process schedules and evaluation engines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple, TypeVar
)

#: The track carrying superstep phases and commits.
MACHINE_TRACK = "machine"

#: The track carrying typing judgments, Solve checks and unification.
INFERENCE_TRACK = "inference"

#: Arg keys that carry measured (timing-dependent) data and are
#: therefore excluded from :meth:`Trace.abstract_signature`.
NONABSTRACT_ARGS = frozenset({"seconds", "ms"})

#: The counters a counting window derives from each record it sees:
#: record name -> ``(counter, arg whose value it adds or None for 1)``.
DERIVED_COUNTERS: Dict[str, Tuple[Tuple[str, Optional[str]], ...]] = {
    "superstep": (("bsp.supersteps", None), ("bsp.words_exchanged", "words")),
    "unify": (("unify.calls", None), ("unify.steps", "steps")),
    "judgment": (("infer.nodes", None),),
    "solve": (("infer.solve_checks", None),),
}

#: Spans whose durations a counting window accumulates under a timer of
#: the span's name.
DERIVED_TIMERS = frozenset({"infer"})


def process_track(proc: int) -> str:
    """The track name of BSP process ``proc``."""
    return f"proc {proc}"


@dataclass(frozen=True)
class TraceRecord:
    """One span (``dur`` is a duration in seconds) or instant event
    (``dur`` is None).  ``ts`` is an absolute ``perf_counter`` value;
    ``args`` is a name-sorted tuple of key/value pairs so records are
    hashable and structurally comparable."""

    name: str
    track: str
    ts: float
    dur: Optional[float] = None
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def is_span(self) -> bool:
        return self.dur is not None

    def arg(self, key: str, default: Any = None) -> Any:
        for name, value in self.args:
            if name == key:
                return value
        return default

    def args_dict(self) -> Dict[str, Any]:
        return dict(self.args)

    def abstract(self) -> Tuple[str, str, Tuple[Tuple[str, Any], ...]]:
        """The deterministic projection of this record."""
        kept = tuple(
            (key, value) for key, value in self.args if key not in NONABSTRACT_ARGS
        )
        return (self.name, self.track, kept)


class Window:
    """One collection window: a view of the record stream.

    A trace window sets ``records``; a counting window sets ``counters``
    and ``timers``.  The other view's attributes stay None."""

    records: Optional[List[TraceRecord]] = None
    counters: Optional[Dict[str, float]] = None
    timers: Optional[Dict[str, float]] = None


@dataclass
class Trace(Window):
    """The trace view: a window keeping every record.

    ``epoch`` anchors the window: exporters subtract it so timelines
    start at zero.  Records are appended in *program order* by the
    coordinating thread (the machine's superstep loop, the inferencer's
    traversal) — per-process tasks in process order, whatever order they
    ran in — which is what makes :meth:`abstract_signature`
    order-deterministic across process schedules.
    """

    epoch: float = field(default_factory=time.perf_counter)
    records: List[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def spans(self, name: Optional[str] = None) -> List[TraceRecord]:
        """All spans, optionally filtered by exact name."""
        return [
            record
            for record in self.records
            if record.is_span and (name is None or record.name == name)
        ]

    def events(self, name: Optional[str] = None) -> List[TraceRecord]:
        """All instant events, optionally filtered by exact name."""
        return [
            record
            for record in self.records
            if not record.is_span and (name is None or record.name == name)
        ]

    def tracks(self) -> List[str]:
        """Track names in canonical display order: machine first, then
        the process tracks in numeric order, then inference, then any
        other track alphabetically."""
        seen = {record.track for record in self.records}
        ordered: List[str] = []
        if MACHINE_TRACK in seen:
            ordered.append(MACHINE_TRACK)
        procs = sorted(
            (int(track.split()[1]), track)
            for track in seen
            if track.startswith("proc ") and track.split()[1].isdigit()
        )
        ordered.extend(track for _, track in procs)
        if INFERENCE_TRACK in seen:
            ordered.append(INFERENCE_TRACK)
        placed = set(ordered)
        ordered.extend(sorted(track for track in seen if track not in placed))
        return ordered

    def abstract_signature(self) -> Tuple[Tuple[str, str, Tuple], ...]:
        """The deterministic projection of the whole trace: per record in
        append order, ``(name, track, abstract args)`` — timestamps,
        durations and measured seconds excluded.  Two runs of the same
        program under different schedules must produce equal signatures
        (the trace-conformance check)."""
        return tuple(record.abstract() for record in self.records)


W = TypeVar("W", bound=Window)

#: The context-local stack of open windows (usually empty or one entry).
#: An immutable tuple, so pushes/pops are plain set() calls and
#: concurrent contexts never observe a half-mutated stack.
_WINDOWS: ContextVar[Tuple[Window, ...]] = ContextVar("repro_windows", default=())

#: Module-global record sinks.  Unlike a window a sink sees every record
#: of the whole process — it is how the metrics aggregation layer
#: (:mod:`repro.obs.metrics`) observes superstep and inference spans
#: across all concurrent requests of the service while each request's
#: windows stay isolated.  An immutable tuple for the same torn-read-free
#: reason as ``_WINDOWS``.
_SINKS: Tuple[Callable[[TraceRecord], None], ...] = ()


def open_window(window: W) -> W:
    """Push ``window`` onto this context's stack (idempotent)."""
    windows = _WINDOWS.get()
    if not any(entry is window for entry in windows):
        _WINDOWS.set(windows + (window,))
    return window


def close_window(window: W) -> W:
    """Pop ``window`` from this context's stack (idempotent)."""
    windows = _WINDOWS.get()
    if any(entry is window for entry in windows):
        _WINDOWS.set(tuple(entry for entry in windows if entry is not window))
    return window


@contextmanager
def window(opened: W) -> Iterator[W]:
    """Keep ``opened`` on the stack for the enclosed block."""
    open_window(opened)
    try:
        yield opened
    finally:
        close_window(opened)


def add_sink(sink: Callable[[TraceRecord], None]) -> None:
    """Register a process-global record sink (idempotent)."""
    global _SINKS
    if sink not in _SINKS:
        _SINKS = _SINKS + (sink,)


def remove_sink(sink: Callable[[TraceRecord], None]) -> None:
    """Unregister a sink previously added with :func:`add_sink`."""
    global _SINKS
    if sink in _SINKS:
        _SINKS = tuple(entry for entry in _SINKS if entry is not sink)


def is_tracing() -> bool:
    """True when any consumer wants records: a window of either view in
    this context, or a process-global sink."""
    return bool(_WINDOWS.get()) or bool(_SINKS)


def in_window() -> bool:
    """True when a window of either view is open in this context (the
    unification and ``Solve`` sites: a sink alone gets no ``unify`` or
    ``solve`` records)."""
    return bool(_WINDOWS.get())


def window_open() -> bool:
    """True when a trace window is open in this context.

    The per-judgment inference spans and the per-process ``task``
    spans test this rather than :func:`is_tracing`: a counting window
    or a sink alone (the server's metrics) gets one ``infer`` span per
    inference, not one record per typing judgment."""
    for entry in _WINDOWS.get():
        if entry.records is not None:
            return True
    return False


def is_collecting() -> bool:
    """True when a counting window is open in this context."""
    for entry in _WINDOWS.get():
        if entry.counters is not None:
            return True
    return False


def is_active(collector: Window) -> bool:
    """True when ``collector`` is currently open in this context."""
    return any(entry is collector for entry in _WINDOWS.get())


def record(
    name: str,
    track: str,
    ts: float,
    dur: Optional[float] = None,
    **args: Any,
) -> None:
    """Report one finished record: trace windows and sinks keep it,
    counting windows derive their counters and timers from it."""
    windows = _WINDOWS.get()
    sinks = _SINKS
    if not windows and not sinks:
        return
    entry = None
    for opened in windows:
        counters = opened.counters
        if counters is None:
            if entry is None:
                entry = TraceRecord(name, track, ts, dur, tuple(sorted(args.items())))
            opened.records.append(entry)  # type: ignore[union-attr]
            continue
        for counter, arg in DERIVED_COUNTERS.get(name, ()):
            counters[counter] = counters.get(counter, 0) + (
                1 if arg is None else args.get(arg, 0)
            )
        if dur is not None and name in DERIVED_TIMERS:
            timers = opened.timers
            timers[name] = timers.get(name, 0.0) + dur  # type: ignore[index,union-attr]
    if sinks:
        if entry is None:
            entry = TraceRecord(name, track, ts, dur, tuple(sorted(args.items())))
        for sink in sinks:
            try:
                sink(entry)
            except Exception:
                # A broken metrics sink must never take the machine down.
                pass


def event(name: str, track: str, **args: Any) -> None:
    """Record an instant event at the current time (no-op when inactive)."""
    if not is_tracing():
        return
    record(name, track, time.perf_counter(), None, **args)


@contextmanager
def span(name: str, track: str, **args: Any) -> Iterator[Optional[Dict[str, Any]]]:
    """Record the enclosed block as a span (no-op when inactive).

    Yields a mutable dict when tracing is active (None otherwise) so the
    block can attach args that are only known at the end::

        with obs.span("superstep.exchange", obs.MACHINE_TRACK) as extra:
            relation = ...
            if extra is not None:
                extra["h"] = relation.h

    The span is recorded even when the block raises, so a trace shows
    the phase or judgment that failed and its duration.
    """
    if not is_tracing():
        yield None
        return
    extra: Dict[str, Any] = {}
    start = time.perf_counter()
    try:
        yield extra
    finally:
        record(name, track, start, time.perf_counter() - start, **{**args, **extra})


def increment(name: str, by: float = 1) -> None:
    """Add ``by`` to counter ``name`` on every open counting window."""
    for opened in _WINDOWS.get():
        counters = opened.counters
        if counters is not None:
            counters[name] = counters.get(name, 0) + by


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Time the enclosed block into timer ``name`` on every open
    counting window (no-op when none is open)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        for opened in _WINDOWS.get():
            timers = opened.timers
            if timers is not None:
                timers[name] = timers.get(name, 0.0) + time.perf_counter() - start


def trace() -> ContextManager[Trace]:
    """Collect trace records for the enclosed block."""
    return window(Trace())


def start() -> Trace:
    """Begin an open-ended trace window (REPL sessions).

    The returned trace accumulates until :func:`stop` is called; it may
    be exported live at any point.  The window is bound to the calling
    context: code running on other threads or tasks does not report
    into it.
    """
    return open_window(Trace())


def stop(collector: Trace) -> Trace:
    """End a window opened with :func:`start` (idempotent)."""
    return close_window(collector)


def resume(collector: Trace) -> Trace:
    """Re-activate a window previously paused with :func:`stop`.

    New records append after the ones already collected (the REPL's
    ``:trace on`` after ``:trace off``); idempotent when already active.
    """
    return open_window(collector)
