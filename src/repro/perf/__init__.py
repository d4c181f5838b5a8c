"""Performance observability for the inference pipeline and BSP engine.

See :mod:`repro.perf.counters` for the counting view and
:mod:`repro.obs.tracer` for the one window stack it shares with trace
windows.  Typical use::

    from repro import perf

    with perf.collect() as stats:
        infer(expr)
    print(stats.render())
"""

from repro.obs.tracer import increment, is_collecting, timed
from repro.perf.counters import (
    CacheReport,
    PerfStats,
    clear_caches,
    collect,
    register_cache,
    registered_caches,
    start,
    stop,
)
from repro.perf.memo import (
    BoundedMemo,
    bounded_memo,
    resize_registered,
)

__all__ = [
    "BoundedMemo",
    "CacheReport",
    "PerfStats",
    "bounded_memo",
    "clear_caches",
    "collect",
    "increment",
    "is_collecting",
    "register_cache",
    "registered_caches",
    "resize_registered",
    "start",
    "stop",
    "timed",
]
