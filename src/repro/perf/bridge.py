"""Scrape-time bridge from the perf layer to the metrics registry.

The solver-layer memoization caches (:func:`repro.perf.register_cache`)
and the hash-consing intern pools (:func:`repro.core.types.
intern_pool_stats`) already keep their own lifetime totals — the
``lru_cache``/:class:`~repro.perf.memo.BoundedMemo` bookkeeping.  Rather
than double-count every hit into the metrics registry on the hot path,
this bridge snapshots those totals *at scrape time*: :func:`cache_metrics`
is registered as a collector with the global
:class:`~repro.obs.metrics.MetricsRegistry` when metrics are enabled, so
each ``/v1/metrics`` render reads the current counts directly.

Cache hit/miss/eviction totals are exposed as counters (a
:class:`~repro.perf.memo.BoundedMemo` keeps them monotone over the life
of the process, across ``clear_caches()`` too) and sizes as gauges.
"""

from __future__ import annotations

from typing import List

from repro.obs.metrics import MetricData, MetricSample
from repro.perf.counters import registered_caches


def cache_metrics() -> List[MetricData]:
    """Current solver-cache and intern-pool statistics as metric data."""
    calls = MetricData(
        "repro_solver_cache_requests_total",
        "counter",
        "Solver memoization cache lookups by cache and result.",
    )
    size = MetricData(
        "repro_solver_cache_size",
        "gauge",
        "Live entries per solver memoization cache.",
    )
    evictions = MetricData(
        "repro_solver_cache_evictions_total",
        "counter",
        "LRU evictions per solver memoization cache.",
    )
    for name, fn in sorted(registered_caches().items()):
        info = fn.cache_info()
        calls.samples.append(
            MetricSample("", (("cache", name), ("result", "hit")), info.hits)
        )
        calls.samples.append(
            MetricSample("", (("cache", name), ("result", "miss")), info.misses)
        )
        size.samples.append(MetricSample("", (("cache", name),), info.currsize))
        evictions.samples.append(
            MetricSample("", (("cache", name),), getattr(fn, "evictions", 0))
        )

    pools = MetricData(
        "repro_intern_pool_size",
        "gauge",
        "Live hash-consed nodes per intern pool.",
    )
    try:
        from repro.core.types import intern_pool_stats

        for pool_name, count in sorted(intern_pool_stats().items()):
            pools.samples.append(MetricSample("", (("pool", pool_name),), count))
    except Exception:
        # The scrape must not depend on the core layer being importable
        # (e.g. a stripped-down deployment exposing only the service).
        pass
    return [calls, evictions, pools, size]
