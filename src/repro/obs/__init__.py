"""Structured tracing, trace export, live metrics and BSP analytics.

See :mod:`repro.obs.tracer` for the span/event model and the one window
stack trace windows share with :mod:`repro.perf`'s counting windows,
:mod:`repro.obs.export` for the Chrome-trace / JSONL / summary
exporters, :mod:`repro.obs.metrics` for the process-global
Prometheus-style aggregation layer, and :mod:`repro.obs.analyze` for
post-hoc critical-path / load-balance / cost-calibration analysis of
saved traces.  Typical use::

    from repro import obs

    with obs.trace() as t:
        run_program("bcast 2 (mkpar (fun i -> i * i))")
    obs.write_trace(t, "out.json")          # load in Perfetto
    print(obs.summarize(t))                 # latency histograms
    print(obs.analyze_trace(t).render())    # critical path + g/l fit
"""

from repro.obs.tracer import (
    INFERENCE_TRACK,
    MACHINE_TRACK,
    NONABSTRACT_ARGS,
    Trace,
    TraceRecord,
    add_sink,
    event,
    in_window,
    is_active,
    is_tracing,
    process_track,
    record,
    remove_sink,
    resume,
    span,
    start,
    stop,
    trace,
    window_open,
)
from repro.obs.export import (
    TRACE_FORMATS,
    SpanHistogram,
    histograms,
    summarize,
    superstep_rows,
    to_chrome,
    to_jsonl,
    validate_chrome_trace,
    write_chrome,
    write_jsonl,
    write_trace,
)
from repro.obs.analyze import (
    ANALYZE_FORMATS,
    AnalysisReport,
    CalibrationFit,
    DriftRow,
    SuperstepBreakdown,
    analyze_trace,
    load_trace,
    synthetic_trace,
)
from repro.obs import metrics

__all__ = [
    "ANALYZE_FORMATS",
    "AnalysisReport",
    "CalibrationFit",
    "DriftRow",
    "INFERENCE_TRACK",
    "MACHINE_TRACK",
    "NONABSTRACT_ARGS",
    "SpanHistogram",
    "SuperstepBreakdown",
    "TRACE_FORMATS",
    "Trace",
    "TraceRecord",
    "add_sink",
    "analyze_trace",
    "event",
    "histograms",
    "in_window",
    "is_active",
    "is_tracing",
    "load_trace",
    "metrics",
    "process_track",
    "record",
    "remove_sink",
    "resume",
    "span",
    "start",
    "stop",
    "summarize",
    "superstep_rows",
    "synthetic_trace",
    "to_chrome",
    "to_jsonl",
    "trace",
    "validate_chrome_trace",
    "window_open",
    "write_chrome",
    "write_jsonl",
    "write_trace",
]
