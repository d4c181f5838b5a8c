"""The front map: a repeated ``/v1/typecheck`` or ``/v1/run`` body is
answered on the event loop from ``sha256(route + body)`` -> digest ->
cached bytes, with the same bytes, headers and counts as the offloaded
path, and nothing but 200 answers ever enters the map."""

from __future__ import annotations

import asyncio
import http.client
import json
import sys
import threading
from collections import Counter
from typing import Dict, Tuple

import pytest

from repro.obs import metrics
from repro.obs.metrics import parse_prometheus
from repro.service import ServiceConfig, ServiceCore, start_in_background


class RawClient:
    """Sends exact body bytes over one keep-alive connection, so a
    repeat is byte-identical on the wire."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)

    def send(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes, Dict[str, str]]:
        self.conn.request(method, path, body=body or None)
        response = self.conn.getresponse()
        raw = response.read()
        headers = {name.lower(): value for name, value in response.getheaders()}
        return response.status, raw, headers

    def post(self, path: str, payload: dict) -> Tuple[int, bytes, Dict[str, str]]:
        return self.send("POST", path, json.dumps(payload).encode())

    def stats(self) -> dict:
        return json.loads(self.send("GET", "/v1/stats")[1])

    def close(self) -> None:
        self.conn.close()


@pytest.fixture()
def served():
    """A fresh core behind a fresh server, so map and cache sizes are
    this test's alone."""
    core = ServiceCore(ServiceConfig(cache_capacity=64, cache_shards=4))
    handle = start_in_background(core, max_concurrency=2, max_queue=8)
    client = RawClient(handle.port)
    try:
        yield core, handle, client
    finally:
        client.close()
        handle.stop()


def _lookups(core: ServiceCore) -> int:
    stats = core.cache.stats()
    return stats["hits"] + stats["misses"]


def test_front_hit_bytes_equal_offloaded_hit_and_miss(served):
    core, _, client = served
    program = "let x = 41 in mkpar (fun i -> i + x)"
    status, miss, headers = client.post("/v1/typecheck", {"program": program})
    assert (status, headers["x-repro-cache"]) == (200, "miss")
    # Another layout of the same program: a front miss, answered by the
    # handler's response-cache hit on a pool thread.
    status, offloaded, headers = client.post(
        "/v1/typecheck", {"program": program.replace(" in ", " in\n  ")}
    )
    assert (status, headers["x-repro-cache"]) == (200, "hit")
    assert core.front.stats()["hits"] == 0
    status, inline, headers = client.post("/v1/typecheck", {"program": program})
    assert (status, headers["x-repro-cache"]) == (200, "hit")
    assert core.front.stats()["hits"] == 1
    assert miss == offloaded == inline


def test_run_front_hit_replays_the_stored_bytes(served):
    core, _, client = served
    request = {"program": "bcast 1 (mkpar (fun i -> i * 3))", "p": 4}
    _, first, _ = client.post("/v1/run", request)
    _, second, headers = client.post("/v1/run", request)
    assert headers["x-repro-cache"] == "hit"
    assert core.front.stats()["hits"] == 1
    assert first == second  # trace_summary included: the bytes are stored


def test_whitespace_variants_get_two_front_entries_and_one_cache_entry(served):
    core, _, client = served
    for program in ("let x = 41 in x + 1", "let x = 41 in\n  x + 1"):
        for _ in range(2):
            assert client.post("/v1/run", {"program": program})[0] == 200
    assert len(core.front) == 2
    assert len(core.cache) == 1
    assert core.front.stats()["hits"] == 2


@pytest.mark.parametrize("route", ["/v1/typecheck", "/v1/run"])
def test_option_variants_never_share_an_entry(served, route):
    core, _, client = served
    base = {"program": "mkpar (fun i -> i + 1)"}
    variants = [
        base,
        {**base, "p": 2},
        {**base, "g": 3.0},
        {**base, "l": 7.0},
        {**base, "typed": False},
        {**base, "prelude": False},
    ]
    first = {}
    for index, payload in enumerate(variants):
        status, body, _ = client.post(route, payload)
        assert status == 200, body
        first[index] = body
    assert len(core.front) == len(variants)
    for index, payload in enumerate(variants):
        _, body, headers = client.post(route, payload)
        assert headers["x-repro-cache"] == "hit"
        assert body == first[index]
    assert core.front.stats()["hits"] == len(variants)
    if route == "/v1/run":
        digests = {json.loads(body)["digest"] for body in first.values()}
        assert len(digests) == len(variants)


@pytest.mark.parametrize(
    "route, payload, status",
    [
        ("/v1/run", {"program": "let = in"}, 400),
        ("/v1/typecheck", {"program": "12abc"}, 400),
        ("/v1/run", {"program": "1", "p": 0}, 400),
        ("/v1/run", {"program": "1", "g": -1}, 400),
        ("/v1/typecheck", {"program": "1 + true"}, 422),
        ("/v1/run", {"program": "mkpar (fun i -> mkpar (fun j -> j))"}, 422),
    ],
)
def test_errors_never_enter_the_map(served, route, payload, status):
    core, _, client = served
    for _ in range(3):
        answered, body, headers = client.post(route, payload)
        assert answered == status, body
        assert "x-repro-cache" not in headers
    assert len(core.front) == 0
    assert core.front.stats()["hits"] == 0


def test_evicted_digest_falls_through_with_one_lookup(served):
    core, _, client = served
    request = {"program": "mkpar (fun i -> i)"}
    _, first, _ = client.post("/v1/typecheck", request)
    core.cache.clear()
    before = _lookups(core)
    status, again, headers = client.post("/v1/typecheck", request)
    assert (status, headers["x-repro-cache"]) == (200, "miss")
    assert again == first
    assert _lookups(core) - before == 1
    assert core.cache.stats()["misses"] >= 1
    # The recomputed answer is cached again: the next repeat is inline.
    before = _lookups(core)
    _, _, headers = client.post("/v1/typecheck", request)
    assert headers["x-repro-cache"] == "hit"
    assert _lookups(core) - before == 1


def test_session_run_bypasses_the_map(served):
    core, _, client = served
    status, body, _ = client.post("/v1/session", {})
    sid = json.loads(body)["session"]
    client.post(f"/v1/session/{sid}/define", {"name": "k", "source": "3"})
    for _ in range(3):
        status, body, _ = client.post(f"/v1/session/{sid}/run", {"program": "k + 1"})
        assert status == 200, body
    front = core.front.stats()
    assert (front["entries"], front["hits"], front["misses"]) == (0, 0, 0)


def test_map_stays_within_cache_capacity():
    core = ServiceCore(ServiceConfig(cache_capacity=8, cache_shards=2))
    handle = start_in_background(core)
    client = RawClient(handle.port)
    try:
        for k in range(30):
            assert client.post("/v1/typecheck", {"program": f"{k} + 1"})[0] == 200
        front = client.stats()["front_map"]
        assert len(core.front) <= 8
        assert front["capacity"] == 8
        assert front["entries"] == len(core.front)
        assert front["evictions"] == 30 - front["entries"]
    finally:
        client.close()
        handle.stop()


def test_inline_hit_sees_admission_control():
    core = ServiceCore()
    handle = start_in_background(core, max_concurrency=1, max_queue=0)
    client = RawClient(handle.port)
    server = handle.server
    try:
        request = {"program": "1 + 2"}
        assert client.post("/v1/typecheck", request)[0] == 200
        # Hold the only slot: the server is saturated and queues nothing.
        asyncio.run_coroutine_threadsafe(
            server._semaphore.acquire(), handle._loop
        ).result(timeout=10)
        try:
            requests_before = core.requests
            status, _, headers = client.post("/v1/typecheck", request)
            assert (status, headers["retry-after"]) == (429, "1")
            assert server.rejected == 1
            assert core.requests == requests_before
        finally:
            handle._loop.call_soon_threadsafe(server._semaphore.release)
        status, _, headers = client.post("/v1/typecheck", request)
        assert (status, headers["x-repro-cache"]) == (200, "hit")
        assert server.peak_inflight == 1  # the inline hit held no slot
    finally:
        client.close()
        handle.stop()


def test_concurrent_repeats_count_every_request_once():
    """Inline hits (event loop) and offloaded handlers (pool threads)
    share the front map and the counters: under thread churn no request
    is lost or counted twice."""
    core = ServiceCore(ServiceConfig(cache_capacity=8, cache_shards=2))
    handle = start_in_background(core, max_concurrency=4, max_queue=64)
    workers, per_worker = 6, 25
    hits, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def drive(worker: int) -> None:
        client = RawClient(handle.port)
        try:
            for i in range(per_worker):
                status, _, headers = client.post(
                    "/v1/typecheck", {"program": f"{(worker + i) % 12} + 1"}
                )
                if status != 200:
                    errors.append(status)
                hits.append(headers.get("x-repro-cache") == "hit")
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(repr(error))
        finally:
            client.close()

    try:
        threads = [threading.Thread(target=drive, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        handle.stop()
    total = workers * per_worker
    assert not errors, errors
    assert core.requests == total
    assert _lookups(core) == total
    assert core.cache.stats()["hits"] == sum(hits)
    assert core.front.stats()["hits"] > 0
    assert len(core.front) <= 8


def _request_seconds_count(scrape: dict, **labels: str) -> float:
    return sum(
        value
        for name, sample_labels, value in scrape["repro_request_seconds"]["samples"]
        if name == "repro_request_seconds_count"
        and all(sample_labels.get(k) == v for k, v in labels.items())
    )


def _sample(scrape: dict, family: str, **labels: str) -> float:
    return sum(
        value
        for _, sample_labels, value in scrape.get(family, {}).get("samples", ())
        if all(sample_labels.get(k) == v for k, v in labels.items())
    )


def test_mixed_stream_counts_match_requests_sent():
    metrics.global_registry().reset()
    core = ServiceCore(ServiceConfig(cache_capacity=16, cache_shards=2))
    handle = start_in_background(core)
    client = RawClient(handle.port)
    try:
        templates = [
            ("/v1/typecheck", {"program": "fun x -> x"}),
            ("/v1/typecheck", {"program": "fun x ->\n x"}),
            ("/v1/typecheck", {"program": "1 + true"}),
            ("/v1/run", {"program": "bcast 0 (mkpar (fun i -> i))"}),
            # An ignored field: other bytes, the same digest.
            ("/v1/run", {"program": "bcast 0 (mkpar (fun i -> i))", "backend": "thread"}),
            ("/v1/run", {"program": "mkpar (fun i -> i * 2)", "p": 3}),
            ("/v1/run", {"program": "mkpar (fun i -> mkpar (fun j -> j))"}),
        ]
        # A fixed interleaving with repeats, plus programs enough to
        # evict some response-cache entries behind live front entries.
        stream = [templates[i % len(templates)] for i in range(40)]
        stream += [("/v1/run", {"program": f"{k} * 2"}) for k in range(20)]
        stream += [templates[i % len(templates)] for i in range(3, 24)]
        before = client.stats()
        before_scrape = parse_prometheus(client.send("GET", "/v1/metrics")[1].decode())
        sent = Counter()
        hit_headers = 0
        for route, payload in stream:
            status, body, headers = client.post(route, payload)
            assert status in (200, 422), body
            sent[route] += 1
            hit_headers += headers.get("x-repro-cache") == "hit"
        after = client.stats()
        scrape = parse_prometheus(client.send("GET", "/v1/metrics")[1].decode())
    finally:
        client.close()
        handle.stop()
        metrics.global_registry().reset()

    delta = lambda *keys: _nested(after, keys) - _nested(before, keys)
    assert delta("requests") == len(stream)
    for route in ("/v1/typecheck", "/v1/run"):
        counted = _sample(scrape, "repro_requests_total", route=route) - _sample(
            before_scrape, "repro_requests_total", route=route
        )
        assert counted == sent[route], route
    lookups = delta("response_cache", "hits") + delta("response_cache", "misses")
    assert lookups == len(stream)
    assert delta("response_cache", "evictions") > 0
    assert delta("response_cache", "hits") == hit_headers
    assert delta("front_map", "hits") > 0
    assert after["front_map"]["entries"] <= after["front_map"]["capacity"]
    hits_seen = _request_seconds_count(scrape, cache="hit") - _request_seconds_count(
        before_scrape, cache="hit"
    )
    assert hits_seen == hit_headers
    assert _request_seconds_count(scrape, route="/v1/run", cache="hit") >= 1
    front_hits = _sample(scrape, "repro_front_map_requests_total", result="hit")
    front_misses = _sample(scrape, "repro_front_map_requests_total", result="miss")
    assert front_hits == delta("front_map", "hits")
    assert front_misses == delta("front_map", "misses")
    assert front_hits + front_misses == len(stream)


def _nested(stats: dict, keys) -> float:
    for key in keys:
        stats = stats[key]
    return stats
