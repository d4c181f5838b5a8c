"""Service conformance sweep: every corpus program served over the API
must agree *exactly* with the local sequential reference — type,
constraints, value rendering and abstract cost — including with a
survivable fault plan armed, and while >= 8 requests are in flight.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

from repro import BspParams, infer, prelude_env, run_costed
from repro.obs.metrics import parse_prometheus
from repro.core.schemes import generalize
from repro.lang import parse_program, with_prelude
from repro.service import ServiceCore, ServiceConfig, start_in_background
from repro.service.handlers import _cost_payload, _render_constrained, _value_text
from repro.testing.differential import conformance_corpus

from tests.service.conftest import Client

#: A fault plan every corpus program survives: transient drops with
#: enough retry budget.  Deterministic (seeded), so chaos responses are
#: as reproducible as clean ones.
SURVIVABLE_FAULTS = "seed=42,drop=0.15,timeout=0.05,attempts=8"

P = 4


def _reference(source: str):
    """What the service must answer for ``source``: computed with the
    same public pipeline on the ``tree`` cost oracle, sequential
    backend, no service involved."""
    expr = parse_program(source)
    ct = infer(expr, prelude_env())
    type_text, constraint_text = _render_constrained(ct)
    result = run_costed(
        with_prelude(expr), BspParams(p=P, g=1.0, l=20.0), engine="tree"
    )
    return {
        "type": type_text,
        "constraints": constraint_text,
        "value": _value_text(result),
        "cost": _cost_payload(result),
    }


@pytest.fixture(scope="module")
def sweep_service():
    handle = start_in_background(
        ServiceCore(ServiceConfig(p=P, cache_capacity=4096)),
        max_concurrency=8,
        max_queue=256,
    )
    try:
        yield handle
    finally:
        handle.stop()


def _sweep(handle, faults=None, threads=16):
    """Fire the whole corpus concurrently; return {name: (status, body)}."""
    corpus = conformance_corpus()
    client = Client(handle.port)
    results = {}
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(threads)
    queue = list(enumerate(corpus))

    def worker(worker_index: int) -> None:
        try:
            barrier.wait(timeout=30)
            for index, (name, source) in queue:
                if index % threads != worker_index:
                    continue
                payload = {"program": source, "p": P}
                if faults:
                    payload["faults"] = faults
                status, body, _ = client.request("POST", "/v1/run", payload)
                while status == 429:
                    time.sleep(0.05)
                    status, body, _ = client.request("POST", "/v1/run", payload)
                with lock:
                    results[name] = (status, body)
        except Exception as error:  # pragma: no cover - failure path
            with lock:
                errors.append(error)

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=300)
    assert not errors, errors
    assert len(results) == len(corpus)
    return results


def test_clean_sweep_matches_sequential_reference(sweep_service):
    served = _sweep(sweep_service)
    for name, source in conformance_corpus():
        status, body = served[name]
        assert status == 200, f"{name}: {body}"
        expected = _reference(source)
        assert body["type"] == expected["type"], name
        assert body["constraints"] == expected["constraints"], name
        assert body["value"] == expected["value"], name
        assert body["cost"] == expected["cost"], name

    # The sweep itself must have exercised real concurrency: the
    # acceptance floor is >= 8 requests simultaneously in flight.
    peak = sweep_service.server.peak_inflight
    assert peak >= 8, f"peak_inflight={peak}"


def test_reference_engine_core_answers_like_the_default():
    """A core built on the oracle engines (``tree`` evaluator, Fig. 7
    ``w`` inference) answers the whole corpus with the same bytes as
    the default core (``compiled``, ``uf``) — the service surface of
    the engine-conformance property."""
    config = dict(p=P, trace_summaries=False, metrics=False)
    default = ServiceCore(ServiceConfig(**config))
    oracle = ServiceCore(ServiceConfig(engine="tree", infer_engine="w", **config))
    for name, source in conformance_corpus():
        payload = {"program": source}
        assert oracle.handle_run(payload) == default.handle_run(payload), name


def _raw_post(port, route, payload):
    """``(status, body bytes, cache header)`` of one POST."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        conn.request("POST", route, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, response.read(), response.getheader("X-Repro-Cache")
    finally:
        conn.close()


@pytest.mark.parametrize("route", ["/v1/run", "/v1/typecheck"])
@pytest.mark.parametrize(
    "field,value",
    [("engine", "tree"), ("engine", "turbo"), ("infer_engine", "w"), ("infer_engine", "bogus")],
)
def test_engine_fields_ignored(route, field, value):
    """Every engine answers bit-identically, so a body that still names
    an engine gets the bytes of the same body without the field — from
    the one cache entry the plain body created."""
    core = ServiceCore(ServiceConfig(p=P))
    handle = start_in_background(core, max_concurrency=4, max_queue=16)
    try:
        plain = {"program": "scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i + 1))"}
        status, body, cache = _raw_post(handle.port, route, plain)
        assert (status, cache) == (200, "miss"), body
        status, named, cache = _raw_post(handle.port, route, {**plain, field: value})
        assert (status, cache) == (200, "hit"), named
        assert named == body
        assert core.cache.stats()["entries"] == 1
    finally:
        handle.stop()


def test_chaos_sweep_is_bit_identical_to_clean(sweep_service):
    """With a survivable fault plan armed, every observable field equals
    the clean run: supersteps retry transactionally until they commit."""
    served = _sweep(sweep_service, faults=SURVIVABLE_FAULTS)
    for name, source in conformance_corpus():
        status, body = served[name]
        assert status == 200, f"{name}: {body}"
        expected = _reference(source)
        assert body["type"] == expected["type"], name
        assert body["value"] == expected["value"], name
        assert body["cost"] == expected["cost"], name


def test_mixed_load_stays_deterministic():
    """A burst of mixed clean/chaos traffic from many threads: no 5xx,
    no wrong answers, stats stay coherent.  CI stretches the duration
    via REPRO_SERVICE_LOAD_SECONDS (default: a quick smoke)."""
    duration = float(os.environ.get("REPRO_SERVICE_LOAD_SECONDS", "3"))
    handle = start_in_background(
        ServiceCore(ServiceConfig(p=P, cache_capacity=512)),
        max_concurrency=8,
        max_queue=32,
    )
    try:
        client = Client(handle.port)
        corpus = [
            (name, source)
            for name, source in conformance_corpus()
        ][:12]
        expected = {name: _reference(source) for name, source in corpus}
        stop_at = time.monotonic() + duration
        failures = []
        counts = {"ok": 0, "rejected": 0}
        lock = threading.Lock()

        def worker(worker_index: int) -> None:
            rounds = 0
            while time.monotonic() < stop_at:
                name, source = corpus[(worker_index + rounds) % len(corpus)]
                payload = {"program": source, "p": P}
                if (worker_index + rounds) % 3 == 0:
                    payload["faults"] = SURVIVABLE_FAULTS
                try:
                    status, body, _ = client.request("POST", "/v1/run", payload)
                except Exception as error:
                    with lock:
                        failures.append(f"{name}: transport {error}")
                    return
                rounds += 1
                if status == 429:
                    with lock:
                        counts["rejected"] += 1
                    time.sleep(0.02)
                    continue
                if status != 200:
                    with lock:
                        failures.append(f"{name}: status {status} {body}")
                    continue
                with lock:
                    counts["ok"] += 1
                if body["value"] != expected[name]["value"] or (
                    body["cost"] != expected[name]["cost"]
                ):
                    with lock:
                        failures.append(f"{name}: wrong answer under load")

        scrapes = {"count": 0, "last": ""}

        def scraper() -> None:
            # /v1/metrics is served before admission control: every scrape
            # must succeed and parse, even while the service is saturated.
            while time.monotonic() < stop_at:
                try:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", handle.port, timeout=30.0
                    )
                    try:
                        conn.request("GET", "/v1/metrics")
                        response = conn.getresponse()
                        body = response.read().decode("utf-8")
                    finally:
                        conn.close()
                    if response.status != 200:
                        raise RuntimeError(f"scrape status {response.status}")
                    parse_prometheus(body)  # raises on malformed exposition
                except Exception as error:  # noqa: BLE001 - surfaced below
                    with lock:
                        failures.append(f"metrics scrape: {error}")
                    return
                with lock:
                    scrapes["count"] += 1
                    scrapes["last"] = body
                time.sleep(0.05)

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(12)]
        pool.append(threading.Thread(target=scraper))
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=duration + 120)
        assert not failures, failures[:5]
        assert counts["ok"] > 0
        stats = handle.server.stats()
        assert stats["requests"] >= counts["ok"]
        assert stats["response_cache"]["hits"] > 0  # repeats hit the cache
        assert scrapes["count"] > 0
        families = parse_prometheus(scrapes["last"])
        for family in (
            "repro_request_seconds",
            "repro_requests_total",
            "repro_inflight_requests",
            "repro_superstep_phase_seconds",
        ):
            assert family in families, f"{family} absent from scrape under load"
    finally:
        handle.stop()
