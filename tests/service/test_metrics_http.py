"""The /v1/metrics exposition and metrics behaviour under concurrent load.

Pins down the two-sided contract of the aggregation layer: the
process-global registry sums over *every* request (no lost increments),
while the contextvars-based perf/trace collectors stay request-isolated
(no cross-request leakage into windows opened elsewhere).
"""

from __future__ import annotations

import http.client
import threading

import pytest

from repro import obs, perf
from repro.obs import metrics
from repro.obs.metrics import parse_prometheus
from repro.service import ServiceConfig, ServiceCore, start_in_background


@pytest.fixture()
def server():
    metrics.global_registry().reset()
    handle = start_in_background(
        ServiceCore(ServiceConfig(cache_capacity=256)),
        max_concurrency=4,
        max_queue=32,
    )
    try:
        yield handle
    finally:
        handle.stop()
        metrics.global_registry().reset()


def fetch_metrics(port: int):
    """GET /v1/metrics raw — the body is Prometheus text, not JSON."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", "/v1/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        headers = {name.lower(): value for name, value in response.getheaders()}
        return response.status, body, headers
    finally:
        conn.close()


def post_json(port: int, path: str, payload: dict):
    import json

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestMetricsEndpoint:
    def test_serves_valid_prometheus_text(self, server):
        status, body, headers = fetch_metrics(server.port)
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in headers["content-type"]
        families = parse_prometheus(body)  # raises on any format violation
        for name in (
            "repro_request_seconds",
            "repro_requests_total",
            "repro_requests_rejected_total",
            "repro_response_cache_requests_total",
            "repro_inflight_requests",
            "repro_waiting_requests",
            "repro_sessions",
            "repro_superstep_phase_seconds",
            "repro_solver_cache_requests_total",
        ):
            assert name in families, f"family {name} missing from exposition"

    def test_latency_carries_route_backend_cache(self, server):
        program = "bcast 0 (mkpar (fun i -> i + 1))"
        status, _ = post_json(server.port, "/v1/run", {"program": program, "backend": "seq"})
        assert status == 200
        status, _ = post_json(server.port, "/v1/run", {"program": program, "backend": "seq"})
        assert status == 200  # replay: cache hit
        _, body, _ = fetch_metrics(server.port)
        families = parse_prometheus(body)
        counts = {
            tuple(sorted(labels.items())): value
            for name, labels, value in families["repro_request_seconds"]["samples"]
            if name.endswith("_count")
        }
        for cache in ("miss", "hit"):
            key = tuple(
                sorted({"route": "/v1/run", "backend": "seq", "cache": cache}.items())
            )
            assert counts.get(key, 0) >= 1, cache

    def test_cache_hit_ratio_counters(self, server):
        program = "1 + 2"
        post_json(server.port, "/v1/typecheck", {"program": program})
        post_json(server.port, "/v1/typecheck", {"program": program})
        assert metrics.CACHE_REQUESTS_TOTAL.value(result="miss") >= 1
        assert metrics.CACHE_REQUESTS_TOTAL.value(result="hit") >= 1

    def test_superstep_histograms_fed_by_service_runs(self, server):
        before = metrics.SUPERSTEP_SECONDS.count(phase="exchange")
        status, _ = post_json(
            server.port,
            "/v1/run",
            {"program": "put (mkpar (fun i -> fun dst -> i))", "p": 2},
        )
        assert status == 200
        assert metrics.SUPERSTEP_SECONDS.count(phase="exchange") > before

    def test_sessions_gauge_tracks_create_and_delete(self, server):
        status, created = post_json(server.port, "/v1/session", {})
        assert status == 201
        assert metrics.SESSIONS.value() >= 1
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
        try:
            conn.request("DELETE", f"/v1/session/{created['session']}")
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        assert metrics.SESSIONS.value() == 0

    def test_unknown_backend_label_bucketed_as_other(self, server):
        # An invalid backend is rejected, but its latency sample must
        # not mint a new label value from attacker-controlled input.
        status, _ = post_json(
            server.port, "/v1/run", {"program": "1", "backend": "zzz-evil"}
        )
        assert status == 400
        _, body, _ = fetch_metrics(server.port)
        families = parse_prometheus(body)
        backends = {
            labels["backend"]
            for name, labels, _ in families["repro_request_seconds"]["samples"]
            if name.endswith("_count")
        }
        assert "zzz-evil" not in backends
        assert "other" in backends

    def test_metrics_can_be_disabled_by_config(self):
        metrics.global_registry().reset()
        handle = start_in_background(
            ServiceCore(ServiceConfig(metrics=False)),
            max_concurrency=2,
            max_queue=8,
        )
        try:
            assert not metrics.is_enabled()
            post_json(handle.port, "/v1/typecheck", {"program": "1"})
            # The endpoint still answers (with whatever was collected —
            # here nothing), but no request was recorded.
            status, body, _ = fetch_metrics(handle.port)
            assert status == 200
            parse_prometheus(body)
            assert metrics.REQUESTS_TOTAL.value(route="/v1/typecheck", status="200") == 0
        finally:
            handle.stop()


class TestConcurrentAggregationAndIsolation:
    """Satellite: global aggregation is exact under concurrent load while
    context-local perf/trace windows see none of it."""

    def test_no_lost_increments_and_no_leakage(self, server):
        requests_per_worker = 6
        workers = 8
        errors = []
        barrier = threading.Barrier(workers)

        def drive(worker: int):
            try:
                barrier.wait(timeout=30)
                for i in range(requests_per_worker):
                    # Distinct programs per (worker, i): all cache misses,
                    # every one runs a real superstep.
                    program = f"bcast 0 (mkpar (fun i -> i + {worker * 100 + i}))"
                    status, _ = post_json(
                        server.port, "/v1/run", {"program": program, "p": 2}
                    )
                    if status != 200:
                        errors.append((worker, i, status))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append((worker, repr(error)))

        before = metrics.REQUESTS_TOTAL.value(route="/v1/run", status="200")
        supersteps_before = metrics.SUPERSTEPS_TOTAL.value()

        # The observer's own context-local windows, opened while the load
        # runs on server worker threads.
        with perf.collect() as window_stats, obs.trace() as window_trace:
            threads = [
                threading.Thread(target=drive, args=(w,)) for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

        assert not errors, errors
        total = workers * requests_per_worker
        # Exact aggregation: every request counted, none double-counted.
        after = metrics.REQUESTS_TOTAL.value(route="/v1/run", status="200")
        assert after - before == total
        # Every run executed at least one superstep through the sink.
        assert metrics.SUPERSTEPS_TOTAL.value() - supersteps_before >= total
        # Isolation: the server's cache/solver activity is invisible to a
        # perf window opened in this (different) context...
        assert window_stats.counter("service.cache.hit") == 0
        assert window_stats.counter("service.cache.miss") == 0
        # ...and no server-side span leaked into this trace window.
        assert window_trace.records == []

    def test_histogram_count_matches_request_count(self, server):
        program_base = "fst (1, mkpar (fun i -> i))"
        n = 10
        threads = []

        def drive(k: int):
            post_json(
                server.port,
                "/v1/typecheck",
                {"program": f"fst ({k}, mkpar (fun i -> i))"},
            )

        before = sum(
            metrics.REQUEST_SECONDS.count(
                route="/v1/typecheck", backend="-", cache=c
            )
            for c in ("hit", "miss", "-")
        )
        for k in range(n):
            thread = threading.Thread(target=drive, args=(k,))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=60)
        after = sum(
            metrics.REQUEST_SECONDS.count(
                route="/v1/typecheck", backend="-", cache=c
            )
            for c in ("hit", "miss", "-")
        )
        assert after - before == n
