"""Guard — service latency, measured with the repro.obs span histograms.

Boots the typecheck-and-run service in-process, drives it over real HTTP
(loopback), and records one ``service.<scenario>`` span per request
inside an :func:`repro.obs.trace` window; the p50/p95/p99/max latencies come
out of :func:`repro.obs.histograms`, exactly the machinery a production
operator would point at the service's own traces.

Scenarios:

* ``typecheck``  — POST /v1/typecheck, distinct programs (no caching);
* ``run_cold``   — POST /v1/run, distinct programs: parse + infer +
  evaluate + cost on every request;
* ``run_cached`` — POST /v1/run, one program repeated: after the first
  request every answer is a digest-keyed cache replay.

Soft assertions only sanity-check the shape (everything answered 200,
cache replays not slower than cold runs at the median, generous absolute
ceiling); the numbers themselves land in
``benchmarks/results/service_latency.txt``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from repro import obs
from repro.service import ServiceConfig, ServiceCore, start_in_background

from _util import write_table

REQUESTS_PER_SCENARIO = 60
THROUGHPUT_THREADS = 8
THROUGHPUT_REQUESTS = 120

RUN_PROGRAM = "bcast 2 (mkpar (fun i -> i * i))"


def _request(port: int, path: str, payload: dict) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _distinct_program(i: int) -> str:
    return f"let base = {i} in bcast 2 (mkpar (fun i -> i * base))"


def test_service_latency_guard():
    handle = start_in_background(
        ServiceCore(ServiceConfig(cache_capacity=4096)),
        max_concurrency=THROUGHPUT_THREADS,
        max_queue=256,
    )
    try:
        port = handle.port
        # Warm the pipeline (imports, prelude env, solver caches).
        assert _request(port, "/v1/run", {"program": RUN_PROGRAM, "p": 4}) == 200

        statuses = []
        with obs.trace() as window:
            for i in range(REQUESTS_PER_SCENARIO):
                with obs.span("service.typecheck", "service"):
                    statuses.append(
                        _request(
                            port, "/v1/typecheck", {"program": _distinct_program(i)}
                        )
                    )
            for i in range(REQUESTS_PER_SCENARIO):
                with obs.span("service.run_cold", "service"):
                    statuses.append(
                        _request(
                            port,
                            "/v1/run",
                            {"program": _distinct_program(i + 10_000), "p": 4},
                        )
                    )
            for _ in range(REQUESTS_PER_SCENARIO):
                with obs.span("service.run_cached", "service"):
                    statuses.append(
                        _request(port, "/v1/run", {"program": RUN_PROGRAM, "p": 4})
                    )
        assert all(status == 200 for status in statuses)

        histograms = {h.name: h for h in obs.histograms(window)}
        rows = []
        for scenario in (
            "service.typecheck",
            "service.run_cold",
            "service.run_cached",
        ):
            hist = histograms[scenario]
            rows.append(
                [
                    scenario.removeprefix("service."),
                    hist.count,
                    f"{hist.p50 * 1e3:.2f}",
                    f"{hist.p95 * 1e3:.2f}",
                    f"{hist.p99 * 1e3:.2f}",
                    f"{hist.max * 1e3:.2f}",
                ]
            )

        # Throughput: a saturating burst from 8 client threads.
        errors = []
        barrier = threading.Barrier(THROUGHPUT_THREADS + 1)

        def fire(worker: int) -> None:
            barrier.wait(timeout=30)
            for i in range(THROUGHPUT_REQUESTS // THROUGHPUT_THREADS):
                status = _request(port, "/v1/run", {"program": RUN_PROGRAM, "p": 4})
                if status != 200:
                    errors.append(status)

        pool = [
            threading.Thread(target=fire, args=(t,))
            for t in range(THROUGHPUT_THREADS)
        ]
        for thread in pool:
            thread.start()
        barrier.wait(timeout=30)
        started = time.perf_counter()
        for thread in pool:
            thread.join(timeout=300)
        elapsed = time.perf_counter() - started
        assert not errors
        rps = THROUGHPUT_REQUESTS / elapsed
        stats = handle.server.stats()

        write_table(
            "service_latency",
            "Service latency over loopback HTTP (ms), from repro.obs span "
            "histograms",
            ["scenario", "count", "p50", "p95", "p99", "max"],
            rows,
            footer=(
                f"throughput: {THROUGHPUT_REQUESTS} cached requests from "
                f"{THROUGHPUT_THREADS} threads in {elapsed:.2f}s = {rps:.0f} req/s; "
                f"peak_inflight={stats['server']['peak_inflight']}, "
                f"response cache: {stats['response_cache']['hits']} hits / "
                f"{stats['response_cache']['misses']} misses"
            ),
        )

        cold = histograms["service.run_cold"]
        cached = histograms["service.run_cached"]
        # Soft shape guards (the CI job running this is advisory):
        # replays skip parse/infer/evaluate, so the median must not be
        # slower than cold runs, and loopback replays are fast in any
        # reasonable environment.
        assert cached.p50 <= cold.p50 * 1.5, (cached.p50, cold.p50)
        assert cached.p95 < 0.5, f"cached p95 {cached.p95 * 1e3:.1f}ms"
        assert rps > 20, f"throughput {rps:.0f} req/s"
    finally:
        handle.stop()
