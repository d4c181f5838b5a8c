"""Structured tracing for the BSP machine and the inference pipeline.

Where :mod:`repro.perf` answers *how much* (counters, accumulated
timers, cache hit rates), this module answers *when and where*: it
records :class:`TraceRecord` entries — **spans** (a name, a start
timestamp and a duration) and **instant events** (a name and a
timestamp) — laid out on named **tracks**:

* one track per BSP process id (``proc 0`` ... ``proc p-1``) carrying
  the per-process task lifecycle of each computation phase;
* a ``machine`` track carrying the superstep phases themselves
  (compute / exchange / barrier), superstep commits with their
  committed :class:`~repro.bsp.cost.BspCost` row;
* an ``inference`` track carrying the ``infer`` span of each inference
  run and, inside a trace window only (:func:`window_open`), the
  per-judgment spans and the ``Solve``/unification work under them.

Collection follows the exact opt-in, stack-shaped discipline of
:mod:`repro.perf.counters`: :func:`trace` pushes a :class:`Trace` onto a
**context-local** stack (a :class:`contextvars.ContextVar`), every
instrumentation point guards itself with :func:`is_tracing` (one
truthiness test when disabled — cheap enough for hot loops to call
unconditionally; the per-node inference sites use :func:`window_open`
so that a process-global sink alone does not pay for them), and
finished records are appended to *all* active collectors, so nested
scopes each see their own copy.  Context-locality
keeps concurrent requests of the long-running service from interleaving
their spans into each other's traces: a trace window opened on one
thread (or asyncio task) collects only that thread of control's records,
while single-threaded use behaves exactly like the old module stack.

Timestamps are ``time.perf_counter()`` values — monotonic, and on this
platform system-wide, so worker-measured task timings and
coordinator-measured phase spans share one timeline.  Exporters
(:mod:`repro.obs.export`) normalize them against the collector's
``epoch``.

**Abstract versus measured.**  Every record separates what is
*deterministic* about an execution (span names, tracks, superstep
indices, abstract op counts, h-relations) from what is
*measured* (timestamps, durations, wall-clock seconds, backend names).
:meth:`Trace.abstract_signature` projects a trace onto its deterministic
part: records whose name starts with ``backend.`` (re-entrant inline
runs — legitimate per-backend behaviour) are dropped,
and arg keys in :data:`NONABSTRACT_ARGS` are filtered out.  The
conformance harness (:func:`repro.testing.conform`) demands that this
signature be bit-identical across execution backends and evaluation
engines — the tracing analogue of comparing
:class:`~repro.bsp.cost.BspCost` tables exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The track carrying superstep phases and commits.
MACHINE_TRACK = "machine"

#: The track carrying typing judgments, Solve checks and unification.
INFERENCE_TRACK = "inference"

#: Arg keys that carry measured (timing- or backend-dependent) data and
#: are therefore excluded from :meth:`Trace.abstract_signature`.
NONABSTRACT_ARGS = frozenset({"seconds", "ms", "backend"})

#: Record-name prefixes whose records are backend-specific lifecycle
#: (re-entrant inline runs) and excluded from the signature.
NONABSTRACT_PREFIXES = ("backend.",)


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

    def abstract(self) -> Optional[Tuple[str, str, Tuple[Tuple[str, Any], ...]]]:
        """The deterministic projection of this record, or None when the
        record itself is backend-specific (``backend.*`` lifecycle)."""
        if self.name.startswith(NONABSTRACT_PREFIXES):
            return None
        kept = tuple(
            (key, value) for key, value in self.args if key not in NONABSTRACT_ARGS
        )
        return (self.name, self.track, kept)


@dataclass
class Trace:
    """One collection window of trace records.

    ``epoch`` anchors the window: exporters subtract it so timelines
    start at zero.  Records are appended in *program order* by the
    coordinating thread (the machine's superstep loop, the inferencer's
    traversal), which is what makes :meth:`abstract_signature`
    order-deterministic across execution backends.
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
        ordered.extend(
            sorted(track for track in seen if track not in set(ordered))
        )
        return ordered

    def abstract_signature(self) -> Tuple[Tuple[str, str, Tuple], ...]:
        """The deterministic projection of the whole trace: per record in
        append order, ``(name, track, abstract args)`` — timestamps,
        durations, measured seconds and backend identity excluded.  Two
        runs of the same program on different backends must produce equal
        signatures (the trace-conformance check)."""
        projected = (record.abstract() for record in self.records)
        return tuple(entry for entry in projected if entry is not None)


#: Context-local stack of active collectors (usually empty or a single
#: entry).  An immutable tuple, so pushes/pops are plain set() calls and
#: concurrent contexts never observe a half-mutated stack.
_ACTIVE: ContextVar[Tuple[Trace, ...]] = ContextVar(
    "repro_obs_active", default=()
)


def _push(collector: Trace) -> None:
    _ACTIVE.set(_ACTIVE.get() + (collector,))


def _pop(collector: Trace) -> None:
    active = _ACTIVE.get()
    if collector in active:
        _ACTIVE.set(tuple(entry for entry in active if entry is not collector))


#: Module-global record sinks.  Unlike the context-local collectors a
#: sink sees every record of the whole process — it is how the metrics
#: aggregation layer (:mod:`repro.obs.metrics`) observes superstep and
#: inference spans across all concurrent requests of the service while
#: each request's trace window stays isolated.  An immutable tuple for
#: the same torn-read-free reason as ``_ACTIVE``.
_SINKS: Tuple[Callable[[TraceRecord], None], ...] = ()


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
    """True when any consumer wants records: a context-local collector
    in this context, or a process-global sink."""
    return bool(_ACTIVE.get()) or bool(_SINKS)


def window_open() -> bool:
    """True when a context-local trace window is open in this context.

    The per-node inference sites (``judgment``, ``unify``, ``solve``)
    test this rather than :func:`is_tracing`: a process-global sink
    alone (the server's metrics) gets one ``infer`` span per inference,
    not one record per typing judgment."""
    return bool(_ACTIVE.get())


def is_active(collector: Trace) -> bool:
    """True when ``collector`` is currently collecting in this context."""
    return collector in _ACTIVE.get()


def record(
    name: str,
    track: str,
    ts: float,
    dur: Optional[float] = None,
    **args: Any,
) -> None:
    """Append a finished record to every active collector and sink."""
    active = _ACTIVE.get()
    sinks = _SINKS
    if not active and not sinks:
        return
    entry = TraceRecord(name, track, ts, dur, tuple(sorted(args.items())))
    for trace_ in active:
        trace_.records.append(entry)
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

    The span is recorded even when the block raises — a failed phase is
    exactly what a chaos trace needs to show.
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


@contextmanager
def trace() -> Iterator[Trace]:
    """Collect trace records for the enclosed block."""
    collector = Trace()
    _push(collector)
    try:
        yield collector
    finally:
        _pop(collector)


def start() -> Trace:
    """Begin an open-ended collection window (REPL sessions).

    The returned trace accumulates until :func:`stop` is called; it may
    be exported live at any point.  The window is bound to the calling
    context: code running on other threads or tasks does not report
    into it.
    """
    collector = Trace()
    _push(collector)
    return collector


def stop(collector: Trace) -> Trace:
    """End a window opened with :func:`start` (idempotent)."""
    _pop(collector)
    return collector


def resume(collector: Trace) -> Trace:
    """Re-activate a window previously paused with :func:`stop`.

    New records append after the ones already collected (the REPL's
    ``:trace on`` after ``:trace off``); idempotent when already active.
    """
    if collector not in _ACTIVE.get():
        _push(collector)
    return collector
