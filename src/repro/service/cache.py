"""A sharded in-process LRU for serialized service responses.

Keys are :func:`repro.core.digest.program_digest` hex strings, so two
requests for the same program under the same execution parameters map
to the same entry — and a hit returns the *serialized bytes* of the
original response, making cache replays byte-identical by construction.

The service keeps a second instance, the *front map*, keyed on
``sha256(route + request body)`` and holding the program digest:
it lets a byte-identical repeat find its response-cache entry without
being parsed.  The digest stays the cache identity; the front map holds
no response bytes.  Each instance counts under its constructor ``name``:
its shards keep the lookup totals (``/v1/stats``, and the metric family
:meth:`ShardedCache.metric` reads at scrape time), and each lookup adds
one ``service.<name>.*`` counter to open counting windows.

Sharding bounds lock contention: a key's leading hex digits pick its
shard, each shard is an independently locked LRU, and concurrent
requests for different programs almost always hit different locks.  The
capacity bound is global but enforced per shard (``capacity / shards``
each), which keeps eviction O(1) and is within one entry per shard of
the exact global bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro import perf
from repro.obs.metrics import MetricData, MetricSample

V = TypeVar("V")

#: Cache name -> (name, help) of the metric family of its lookups.
_FAMILIES = {
    "cache": (
        "repro_response_cache_requests_total",
        "Response-cache lookups by result (hit/miss) plus evictions.",
    ),
    "front_map": (
        "repro_front_map_requests_total",
        "Front-map lookups (request body to program digest) by result "
        "(hit/miss) plus evictions.",
    ),
}


class _Shard(Generic[V]):
    __slots__ = ("data", "lock", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.data: "OrderedDict[str, V]" = OrderedDict()
        self.lock = threading.Lock()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class ShardedCache(Generic[V]):
    """A bounded, sharded, thread-safe LRU mapping digests to values."""

    def __init__(self, capacity: int = 1024, shards: int = 8, name: str = "cache") -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if shards < 1:
            raise ValueError(f"cache needs >= 1 shard, got {shards}")
        shards = min(shards, capacity)
        per_shard = max(1, (capacity + shards - 1) // shards)
        self._shards: List[_Shard[V]] = [_Shard(per_shard) for _ in range(shards)]
        self._family = _FAMILIES[name]
        self._hit, self._miss, self._evict = (
            f"service.{name}.{result}" for result in ("hit", "miss", "evict")
        )

    def _shard(self, key: str) -> _Shard[V]:
        # Digests are uniform hex; the leading 8 digits are an adequate
        # shard selector and cheaper than hashing the whole string.
        try:
            index = int(key[:8], 16)
        except ValueError:
            index = hash(key)
        return self._shards[index % len(self._shards)]

    def get(self, key: str, count_miss: bool = True) -> Optional[V]:
        """The value under ``key``, or ``None``.  ``count_miss=False``
        makes a miss leave no trace in any counter: it is for a probe
        whose caller falls back to a path that makes its own counted
        lookup, so each request counts one lookup."""
        shard = self._shard(key)
        with shard.lock:
            try:
                value = shard.data[key]
            except KeyError:
                if count_miss:
                    shard.misses += 1
                    perf.increment(self._miss)
                return None
            shard.data.move_to_end(key)
            shard.hits += 1
            perf.increment(self._hit)
            return value

    def put(self, key: str, value: V) -> None:
        shard = self._shard(key)
        with shard.lock:
            shard.data[key] = value
            shard.data.move_to_end(key)
            while len(shard.data) > shard.capacity:
                shard.data.popitem(last=False)
                shard.evictions += 1
                perf.increment(self._evict)

    def __contains__(self, key: str) -> bool:
        shard = self._shard(key)
        with shard.lock:
            return key in shard.data

    def __len__(self) -> int:
        return sum(len(shard.data) for shard in self._shards)

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.data.clear()

    def stats(self) -> Dict[str, int]:
        """Aggregate counters across shards (point-in-time, unlocked
        aggregation: each shard's numbers are individually consistent)."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        for shard in self._shards:
            totals["hits"] += shard.hits
            totals["misses"] += shard.misses
            totals["evictions"] += shard.evictions
            totals["entries"] += len(shard.data)
        totals["shards"] = len(self._shards)
        totals["capacity"] = sum(shard.capacity for shard in self._shards)
        return totals

    def metric(self) -> MetricData:
        """The lookup totals of :meth:`stats` as a counter family (read
        at scrape time)."""
        name, help = self._family
        totals = self.stats()
        results = (("evict", "evictions"), ("hit", "hits"), ("miss", "misses"))
        samples = [MetricSample("", (("result", r),), totals[k]) for r, k in results]
        return MetricData(name, "counter", help, samples)

    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(len(shard.data) for shard in self._shards)
