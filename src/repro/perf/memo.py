"""Bounded, eviction-counting memoization for the solver layer.

:class:`BoundedMemo` wraps ``functools.lru_cache`` and adds what a
*server lifetime* needs on top of it:

* a monotonic ``evictions`` count — ``cache_info()`` exposes hits and
  misses but not how many entries were displaced, so a cache thrashing
  at its bound would look identical to one comfortably sized;
* a bound that can be changed after import (:meth:`BoundedMemo.resize`,
  :func:`resize_registered`; tests use it to force evictions);
* hit and miss counts that survive :meth:`BoundedMemo.cache_clear`,
  so :class:`repro.perf.counters.CacheReport` deltas and the
  ``/v1/metrics`` counters stay monotone.

The bound matters beyond the cache's own memory: entries hold strong
references to interned key and value nodes, so the bound is also what
keeps the weak hash-cons pools of :mod:`repro.core.types` from growing
without limit over a stream of distinct programs.

A call is the ``lru_cache`` call: a hit takes no Python-level lock and
does no Python-level reordering, and the wrapped function runs outside
any lock (so recursive memoized functions like ``locality`` cannot
deadlock).  A value computed twice under a race is stored once —
harmless, because every memoized function here is pure over immutable
interned nodes.

The eviction count is derived, not counted per eviction: every miss
stores one entry and only an eviction removes one, so a cache has
evicted ``misses - currsize`` entries since it was built.  That is
exact whenever no call is in flight.  A miss still computing, or one
whose result was not stored (the function raised, or a racing thread
stored the key first), reads as evicted too, so a reader on another
thread can see the count run ahead by the misses in flight; the
reported value is the largest one read so far, so it never goes down.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional

from repro.perf import counters


class CacheInfo(NamedTuple):
    """Shape-compatible with ``functools.lru_cache``'s ``cache_info()``."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


class BoundedMemo:
    """A bounded LRU memoizer over positional, hashable arguments."""

    __slots__ = (
        "__wrapped__",
        "__name__",
        "name",
        "_cached",
        "_lock",
        "_hits",
        "_misses",
        "_evicted",
        "_reported",
    )

    def __init__(
        self, fn: Callable[..., Any], maxsize: int, name: Optional[str] = None
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"BoundedMemo needs maxsize >= 1, got {maxsize}")
        self.__wrapped__ = fn
        self.__name__ = getattr(fn, "__name__", "memoized")
        self.name = name or self.__name__
        self._cached = lru_cache(maxsize)(fn)
        #: Serializes replacing ``_cached`` against the readers of the
        #: totals below; calls never take it.
        self._lock = threading.Lock()
        # Totals of the caches ``_cached`` replaced, and the largest
        # eviction count read so far.
        self._hits = 0
        self._misses = 0
        self._evicted = 0
        self._reported = 0

    @property
    def __doc__(self):  # pragma: no cover - introspection nicety
        return self.__wrapped__.__doc__

    def __call__(self, *args: Any) -> Any:
        return self._cached(*args)

    @property
    def evictions(self) -> int:
        """Entries displaced by the LRU bound over the memo's lifetime."""
        with self._lock:
            info = self._cached.cache_info()
            self._reported = max(
                self._reported, self._evicted + info.misses - info.currsize
            )
            return self._reported

    def cache_info(self) -> CacheInfo:
        with self._lock:
            info = self._cached.cache_info()
            return CacheInfo(
                self._hits + info.hits,
                self._misses + info.misses,
                info.maxsize,
                info.currsize,
            )

    def _replace(self, maxsize: Optional[int] = None) -> None:
        """Swap in an empty cache of ``maxsize`` (default: the current
        bound), folding the old one's counts into the totals.  The old
        cache is dropped, not cleared in place: clearing would zero its
        counts under a concurrent reader."""
        with self._lock:
            info = self._cached.cache_info()
            if maxsize is None:
                maxsize = info.maxsize
            self._hits += info.hits
            self._misses += info.misses
            self._evicted += info.misses - info.currsize
            self._cached = lru_cache(maxsize)(self.__wrapped__)

    def cache_clear(self) -> None:
        """Drop every entry (counters, including evictions, are kept)."""
        self._replace()

    def resize(self, maxsize: int) -> None:
        """Change the bound.  Like :meth:`cache_clear`, this drops every
        entry without counting it as evicted."""
        if maxsize < 1:
            raise ValueError(f"BoundedMemo needs maxsize >= 1, got {maxsize}")
        self._replace(maxsize)

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"<BoundedMemo {self.name} size={info.currsize}/{info.maxsize} "
            f"hits={info.hits} misses={info.misses} evictions={self.evictions}>"
        )


def bounded_memo(
    maxsize: int, name: Optional[str] = None
) -> Callable[[Callable[..., Any]], BoundedMemo]:
    """Decorator form: ``@bounded_memo(4096, name="constraints.solve")``."""

    def wrap(fn: Callable[..., Any]) -> BoundedMemo:
        return BoundedMemo(fn, maxsize, name)

    return wrap


def resize_registered(maxsize: int, prefix: str = "") -> int:
    """Resize every registered :class:`BoundedMemo` whose name starts
    with ``prefix`` (all of them by default), dropping their entries.
    Returns how many caches were resized."""
    resized = 0
    for name, fn in counters.registered_caches().items():
        if isinstance(fn, BoundedMemo) and name.startswith(prefix):
            fn.resize(maxsize)
            resized += 1
    return resized
