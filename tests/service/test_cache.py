"""Unit tests for the sharded response cache."""

from __future__ import annotations

import threading

import pytest

from repro import perf
from repro.service.cache import ShardedCache


def k(i: int) -> str:
    """A hex-digest-shaped key."""
    return f"{i:064x}"


def test_get_put_roundtrip():
    cache: ShardedCache[bytes] = ShardedCache(capacity=16, shards=4)
    cache.put(k(1), b"one")
    assert cache.get(k(1)) == b"one"
    assert cache.get(k(2)) is None
    assert k(1) in cache and k(2) not in cache


def test_eviction_is_lru_per_shard():
    cache: ShardedCache[int] = ShardedCache(capacity=4, shards=1)
    for i in range(4):
        cache.put(k(i), i)
    cache.get(k(0))  # refresh 0; 1 becomes the eviction victim
    cache.put(k(99), 99)
    assert cache.get(k(0)) == 0
    assert cache.get(k(1)) is None
    assert cache.stats()["evictions"] == 1


def test_capacity_is_enforced_across_shards():
    cache: ShardedCache[int] = ShardedCache(capacity=64, shards=8)
    for i in range(1000):
        cache.put(k(i), i)
    assert len(cache) <= 64 + 8  # per-shard rounding slack only
    assert cache.stats()["evictions"] >= 1000 - 72


def test_keys_spread_across_shards():
    cache: ShardedCache[int] = ShardedCache(capacity=1024, shards=8)
    # Real keys are uniform sha256 digests; simulate with hashed fill.
    import hashlib

    for i in range(400):
        cache.put(hashlib.sha256(str(i).encode()).hexdigest(), i)
    sizes = cache.shard_sizes()
    assert len(sizes) == 8
    assert all(size > 10 for size in sizes), sizes


def test_stats_shape():
    cache: ShardedCache[int] = ShardedCache(capacity=10, shards=2)
    cache.put(k(1), 1)
    cache.get(k(1))
    cache.get(k(2))
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == 1
    assert stats["shards"] == 2
    assert stats["capacity"] >= 10


def test_rejects_degenerate_configuration():
    with pytest.raises(ValueError):
        ShardedCache(capacity=0)
    with pytest.raises(ValueError):
        ShardedCache(capacity=8, shards=0)
    with pytest.raises(KeyError):
        ShardedCache(capacity=8, name="unknown")


def test_uncounted_miss_leaves_no_trace():
    cache: ShardedCache[int] = ShardedCache(capacity=8, shards=2)
    with perf.collect() as window:
        assert cache.get(k(1), count_miss=False) is None
        cache.put(k(1), 1)
        assert cache.get(k(1), count_miss=False) == 1  # hits always count
    assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 0)
    assert window.counter("service.cache.miss") == 0
    assert window.counter("service.cache.hit") == 1


def test_name_selects_the_counters():
    front: ShardedCache[int] = ShardedCache(capacity=8, shards=2, name="front_map")
    with perf.collect() as window:
        front.get(k(1))
        front.put(k(1), 1)
        front.get(k(1))
    assert window.counter("service.front_map.miss") == 1
    assert window.counter("service.front_map.hit") == 1
    assert window.counter("service.cache.hit") == window.counter("service.cache.miss") == 0


def test_concurrent_puts_and_gets_are_safe():
    cache: ShardedCache[int] = ShardedCache(capacity=128, shards=8)
    errors = []

    def worker(base: int) -> None:
        try:
            for i in range(500):
                cache.put(k(base * 1000 + i), i)
                cache.get(k(base * 1000 + (i // 2)))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert len(cache) <= 128 + 8
