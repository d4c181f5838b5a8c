"""Counters, timers and cache statistics: the counting view of a window.

:func:`collect` opens a counting window (:class:`PerfStats`) on the one
context-local window stack of :mod:`repro.obs.tracer`.  It keeps
**counters** — added by sites with :func:`repro.perf.increment`
(``Solve`` checks, cache lookups, ...) or derived from the records the
sites report once (``bsp.supersteps``/``bsp.words_exchanged`` from each
``superstep`` event, ``unify.calls``/``unify.steps`` from each ``unify``
record) — **timers** (the ``infer`` span, :func:`repro.perf.timed`), and
**cache statistics**: every memoization cache of the solver layer
registers itself with :func:`register_cache`, and a window snapshots
their bookkeeping on entry and reports hit/miss/eviction *deltas*, so
nested or repeated windows stay accurate.  Counts apply to every open
counting window, so nested scopes each see their own totals.

A counting window keeps no records and does not make
:func:`repro.obs.window_open` true, so inference keeps its product pass
under ``--stats``.  Every cached function is keyed on hash-consed
immutable nodes (:mod:`repro.core.types`, :mod:`repro.core.constraints`),
so entries never go stale; the only eviction is the bounded LRU size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Tuple

from repro.obs.tracer import Window, close_window, open_window, window

#: Registry of memoized functions: name -> lru_cache-wrapped callable.
_REGISTERED_CACHES: Dict[str, Callable[..., Any]] = {}


def register_cache(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register an ``lru_cache``-wrapped function for cache reporting.

    Returns ``fn`` so it can be used as a decoration step.
    """
    if not hasattr(fn, "cache_info"):
        raise TypeError(f"cache {name!r} has no cache_info(); wrap with lru_cache")
    _REGISTERED_CACHES[name] = fn
    return fn


def registered_caches() -> Dict[str, Callable[..., Any]]:
    """A snapshot of the cache registry (name -> cached function)."""
    return dict(_REGISTERED_CACHES)


def clear_caches() -> None:
    """Empty every registered memoization cache (cold-start state).

    Only benchmarks and tests should need this; correctness never does,
    because all cached functions are pure over immutable interned nodes.
    """
    for fn in _REGISTERED_CACHES.values():
        fn.cache_clear()


@dataclass
class CacheReport:
    """Hit/miss/eviction delta of one registered cache over a window.

    ``evictions`` is nonzero only for caches that expose an eviction
    count (:class:`repro.perf.memo.BoundedMemo`); plain ``lru_cache``
    functions report 0 — their evictions are invisible to the stdlib
    bookkeeping.
    """

    name: str
    hits: int
    misses: int
    size: int
    maxsize: int
    evictions: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from cache (0.0 when never called)."""
        return self.hits / self.calls if self.calls else 0.0


@dataclass
class PerfStats(Window):
    """The counting view: a window of counters, timers and cache deltas."""

    counters: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    _cache_baseline: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)

    def snapshot_caches(self) -> None:
        """Record the current hit/miss/eviction totals as the baseline."""
        for name, fn in _REGISTERED_CACHES.items():
            info = fn.cache_info()
            self._cache_baseline[name] = (
                info.hits,
                info.misses,
                getattr(fn, "evictions", 0),
            )

    def cache_reports(self) -> List[CacheReport]:
        """Per-cache hit/miss/eviction deltas since :meth:`snapshot_caches`."""
        reports = []
        for name, fn in sorted(_REGISTERED_CACHES.items()):
            info = fn.cache_info()
            base_hits, base_misses, base_evict = self._cache_baseline.get(
                name, (0, 0, 0)
            )
            reports.append(
                CacheReport(
                    name,
                    info.hits - base_hits,
                    info.misses - base_misses,
                    info.currsize,
                    info.maxsize or 0,
                    getattr(fn, "evictions", 0) - base_evict,
                )
            )
        return reports

    def hit_rate(self, name: str) -> float:
        """Hit rate of one registered cache over this window."""
        for report in self.cache_reports():
            if report.name == name:
                return report.hit_rate
        raise KeyError(f"no registered cache named {name!r}")

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def render(self, verbose: bool = False) -> str:
        """A human-readable report (counters, cache hit rates, timers).

        Caches are listed in deterministic name order.  By default caches
        with no calls in this window are suppressed; ``verbose=True``
        includes them (useful to confirm a cache was registered but never
        exercised by a workload).
        """
        lines = ["perf stats:"]
        if self.counters:
            lines.append("  counters:")
            for name in sorted(self.counters):
                value = self.counters[name]
                shown = f"{value:.0f}" if float(value).is_integer() else f"{value:.2f}"
                lines.append(f"    {name:<28} {shown:>12}")
        reports = self.cache_reports()
        if not verbose:
            reports = [r for r in reports if r.calls]
        if reports:
            lines.append("  caches (hits/misses, hit rate):")
            for report in reports:
                evicted = f", {report.evictions} evicted" if report.evictions else ""
                lines.append(
                    f"    {report.name:<28} {report.hits:>8}/{report.misses:<8}"
                    f" {report.hit_rate:>6.1%}  (size {report.size}/{report.maxsize}"
                    f"{evicted})"
                )
        if self.timers:
            lines.append("  timers:")
            for name in sorted(self.timers):
                lines.append(f"    {name:<28} {self.timers[name] * 1e3:>10.2f} ms")
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)


def collect() -> ContextManager[PerfStats]:
    """Collect counters, timers and cache deltas for the enclosed block."""
    stats = PerfStats()
    stats.snapshot_caches()
    return window(stats)


def start() -> PerfStats:
    """Begin an open-ended counting window (REPL sessions).

    The returned stats object accumulates until :func:`stop` is called;
    its :meth:`PerfStats.render` may be consulted live at any point.
    The window is bound to the calling context: code running on other
    threads or tasks does not report into it.
    """
    stats = PerfStats()
    stats.snapshot_caches()
    return open_window(stats)


def stop(stats: PerfStats) -> PerfStats:
    """End a window opened with :func:`start` (idempotent)."""
    return close_window(stats)
