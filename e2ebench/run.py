"""End-to-end benchmark of the mini-BSML typecheck-and-run service.

Run from the repository root::

    python3 e2ebench/run.py --workload run_mixed --seed 1 --seconds 30 --trace 0

``--workload`` is ``typecheck_cold`` or ``run_mixed`` (see ``workloads.py``).

What one run does:

1. builds the workload's requests from ``--seed`` and computes every
   expected answer with the reference implementations (``workloads.py``);
2. starts ``minibsml serve --port 0`` :data:`SETUPS` times, each time until
   the warm-up requests are answered, and reports the median as
   ``setup_s``; the last server stays up;
3. scrapes ``/v1/stats`` and ``/v1/metrics``, drives the server for
   ``--seconds`` in a closed loop from one keep-alive connection, and
   scrapes again;
4. checks every answer, reconciles the server's request counts with the
   client's, and stops the server;
5. with ``--trace 1``, replays the same requests in-process with one span
   per layer call (``replay.py``) and reports the per-layer metrics;
   otherwise it reports the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name the seed, the digest of the request list and every metric with its
unit.  Two runs with the same seed print the same digest.  To check a
change on inputs it was not tuned on, run a seed that was not used while
writing it, for example ``--seed 7919``.  Spans and server logs are written
under ``.bench_build/e2ebench/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "e2ebench"

#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The timed window is cut into this many equal slices (see sliced_metrics).
SLICES = 30
#: Upper limit on a workload's warm-up requests (``Workload.warmup``).
WARMUP_SECONDS = 60.0
#: The traced replay stops at whichever limit comes first.
REPLAY_SECONDS = 15.0
REPLAY_REQUESTS = 2000
#: Window answers after which the server's peak RSS is read.
RSS_REQUESTS = 1000
#: A tail percentile needs this many samples beyond it; a run with fewer
#: beyond its p99 is not a correct run.
TAIL_SAMPLES = 10

#: (name, unit, better)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("server_cpu_ms_per_req", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("lang.parse_ms", "ms", "lower"),
    ("core.digest_ms", "ms", "lower"),
    ("lang.prelude_ms", "ms", "lower"),
    ("lang.prelude_nodes", "count", "lower"),
    ("core.infer_ms", "ms", "lower"),
    ("core.render_ms", "ms", "lower"),
    ("core.infer_nodes", "count", "lower"),
    ("core.unify_calls", "count", "lower"),
    ("core.solve_checks", "count", "lower"),
    ("semantics.eval_ms", "ms", "lower"),
    ("bsp.supersteps", "count", "lower"),
    ("bsp.h_words", "count", "lower"),
    ("bsp.work_ops", "count", "lower"),
    ("bsp.compute_ms", "ms", "lower"),
    ("bsp.exchange_ms", "ms", "lower"),
    ("bsp.barrier_ms", "ms", "lower"),
    ("obs.trace_summary_ms", "ms", "lower"),
    ("service.serialize_ms", "ms", "lower"),
    ("service.handler_ms", "ms", "lower"),
    ("service.unattributed_ms", "ms", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.cache_lookups", "count", "higher"),
    ("service.cache_evictions", "count", "lower"),
    ("service.handler_hit_ms", "ms", "lower"),
    ("service.handler_miss_ms", "ms", "lower"),
    ("service.wait_ms", "ms", "lower"),
    ("replay.requests", "count", "higher"),
    ("client.cpu_share", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
)


def _quantile(values: List[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _delta(after: Dict, before: Dict, *keys: str) -> float:
    for key in keys:
        after, before = after[key], before[key]
    return after - before


def check(samples, workload) -> Tuple[List[bool], Dict[str, int]]:
    """Per-sample correctness, and the failures counted by reason."""
    from workloads import check_answer

    failures: Dict[str, int] = {}
    correct = []
    for sample in samples:
        reason = (
            "connection error"
            if sample.status == 0
            else check_answer(workload.expected[sample.template], sample.status, sample.body)
        )
        correct.append(reason is None)
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1
    return correct, failures


def measure(server, workload, seconds: float) -> Dict:
    """The timed window plus everything observed around it."""
    from hostspeed import slowness
    from loadgen import closed_loop
    from server import SERVER_CPUS

    warmup_failures: Dict[str, int] = {}
    if workload.warmup:
        warm, _, _ = closed_loop(
            server.connect, workload, WARMUP_SECONDS, 1, server.cpu_seconds,
            last=workload.warmup,
        )
        if len(warm) < workload.warmup:
            raise RuntimeError(f"warm-up sent {len(warm)} of {workload.warmup} requests")
        warmup_failures = check(warm, workload)[1]
    before = server.scrape()
    client_before = os.times()
    samples, elapsed, boundaries = closed_loop(
        server.connect, workload, seconds, SLICES,
        lambda: (server.cpu_seconds(), slowness(SERVER_CPUS), server.peak_rss_mb()),
        first=workload.warmup,
    )
    client_after = os.times()
    after = server.scrape()
    correct, failures = check(samples, workload)
    client_cpu = sum(client_after[:2]) - sum(client_before[:2])
    # The server's memory grows with the requests it has served, so with
    # host speed: peak RSS is read at the first slice edge after
    # RSS_REQUESTS answers (or at the last edge of a shorter window).
    finished = [sample.finished for sample in samples]
    peak_rss_mb = next(
        (rss for before, (_, _, rss), _ in boundaries
         if bisect.bisect_left(finished, before) >= RSS_REQUESTS),
        boundaries[-1][1][2],
    )
    return {
        "samples": samples,
        "correct": correct,
        "boundaries": boundaries,
        "elapsed": elapsed,
        "failed": sum(failures.values()),
        "failures": failures,
        "warmup_failures": warmup_failures,
        "client_cpu_share": client_cpu / elapsed,
        "peak_rss_mb": peak_rss_mb,
        "before": before,
        "after": after,
    }


def sliced_metrics(window: Dict) -> Dict[str, float]:
    """Throughput, median latency and server CPU per request as measured,
    each the median over the slices of the window, so a burst of load from
    outside the benchmark in one slice does not move the result."""
    rows = []
    boundaries = window["boundaries"]
    for (_, (cpu_start, *_), start), (end, (cpu_end, *_), _) in zip(boundaries, boundaries[1:]):
        inside = [
            (sample, ok)
            for sample, ok in zip(window["samples"], window["correct"])
            if start <= sample.finished < end
        ]
        if not inside:
            continue
        rows.append(
            {
                "throughput_rps": sum(ok for _, ok in inside) / (end - start),
                "latency_p50_ms": statistics.median(s.latency for s, _ in inside) * 1e3,
                "server_cpu_ms_per_req": (cpu_end - cpu_start) * 1e3 / len(inside),
            }
        )
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def scraped_metrics(window: Dict) -> Dict[str, float]:
    """Per-layer metrics from the ``/v1/stats`` and ``/v1/metrics`` deltas."""
    from server import metric_sum

    before, after = window["before"], window["after"]
    n = len(window["samples"])

    def family_delta(family: str, sample: str, **labels: str) -> float:
        return metric_sum(after, family, sample, **labels) - metric_sum(before, family, sample, **labels)

    def handler_mean_ms(**labels: str) -> float:
        count = family_delta("repro_request_seconds", "repro_request_seconds_count", **labels)
        total = family_delta("repro_request_seconds", "repro_request_seconds_sum", **labels)
        return total * 1e3 / count if count else 0.0

    hits = _delta(after, before, "stats", "response_cache", "hits")
    lookups = hits + _delta(after, before, "stats", "response_cache", "misses")
    client_mean_ms = statistics.fmean(s.latency for s in window["samples"]) * 1e3
    phase_ms = lambda phase: family_delta(
        "repro_superstep_phase_seconds", "repro_superstep_phase_seconds_sum", phase=phase
    ) * 1e3 / n
    return {
        "bsp.compute_ms": phase_ms("compute"),
        "bsp.exchange_ms": phase_ms("exchange"),
        "bsp.barrier_ms": phase_ms("barrier"),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.cache_lookups": lookups,
        "service.cache_evictions": _delta(after, before, "stats", "response_cache", "evictions"),
        "service.handler_hit_ms": handler_mean_ms(cache="hit"),
        "service.handler_miss_ms": handler_mean_ms(cache="miss"),
        "service.wait_ms": client_mean_ms - handler_mean_ms(),
        "client.cpu_share": window["client_cpu_share"],
        "error_rate": window["failed"] / n,
    }


def reconcile(window: Dict, workload) -> List[str]:
    """Disagreements between the client's request counts and the server's
    (``/v1/stats`` in total, ``repro_requests_total`` per route), which
    show dropped or double-counted requests."""
    from server import metric_sum

    samples = window["samples"]
    before, after = window["before"], window["after"]
    problems = []
    counted = _delta(after, before, "stats", "requests")
    if counted != len(samples):
        problems.append(f"/v1/stats counted {counted:.0f} requests, client sent {len(samples)}")
    sent_by_route = Counter(workload.templates[s.template].endpoint for s in samples)
    for route in ("/v1/typecheck", "/v1/run"):
        server_count = metric_sum(
            after, "repro_requests_total", "repro_requests_total", route=route
        ) - metric_sum(before, "repro_requests_total", "repro_requests_total", route=route)
        if server_count != sent_by_route[route]:
            problems.append(
                f"/v1/metrics counted {server_count:.0f} on {route}, "
                f"client sent {sent_by_route[route]}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import slowness
    from replay import replay
    from server import CLIENT_CPUS, SERVER_CPUS, ServerProcess
    from workloads import WORKLOAD_NAMES, attach_oracle, build, why_line

    if CLIENT_CPUS:
        os.sched_setaffinity(0, CLIENT_CPUS)

    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(WORKLOAD_NAMES)}")
    workload = build(args.workload, args.seed, ROOT)
    attach_oracle(workload)
    print(f"workload {workload.name}: {why_line(workload.name)}")
    print(f"seed {args.seed}, request-list digest {workload.digest()}")

    setups: List[float] = []
    setup_readings: List[float] = []
    server = None
    try:
        for attempt in range(SETUPS):
            setup_readings.append(slowness(SERVER_CPUS))
            server = ServerProcess(ROOT, OUT / f"server-{attempt}.log")
            setups.append(server.start())
            setup_readings.append(slowness(SERVER_CPUS))
            if attempt < SETUPS - 1:
                server.stop()
        window = measure(server, workload, args.seconds)
    finally:
        if server is not None:
            server.stop()

    samples = window["samples"]
    attempted, failed = len(samples), window["failed"]
    problems = reconcile(window, workload)
    latencies = [sample.latency * 1e3 for sample in samples]
    p99 = _quantile(latencies, 0.99)
    beyond_p99 = sum(1 for latency in latencies if latency > p99)
    raw = sliced_metrics(window)
    raw["latency_p99_ms"] = p99
    raw["setup_s"] = statistics.median(setups)
    # One factor for the whole window: the host switches speed within
    # seconds, so only the mean over all the window's readings tracks it.
    slow = statistics.fmean(reading for _, (_, reading, _), _ in window["boundaries"])
    print(
        f"{attempted} requests over {window['elapsed']:.2f}s from one keep-alive "
        f"connection (closed loop), {failed} failed, {beyond_p99} beyond p99"
    )
    for reason, count in sorted(window["failures"].items()):
        print(f"  failure: {reason} x{count}")
    for reason, count in sorted(window["warmup_failures"].items()):
        print(f"  warm-up failure: {reason} x{count}")
    for problem in problems:
        print(f"  reconcile: {problem}")
    if beyond_p99 < TAIL_SAMPLES:
        print(f"  too few samples for a p99: fewer than {TAIL_SAMPLES} beyond it")
    if window["client_cpu_share"] > 0.8:
        print(f"  note: client-bound run, load generator used {window['client_cpu_share']:.0%} of a core")

    scraped = scraped_metrics(window)
    print(
        f"response cache: hit ratio {scraped['service.cache_hit_ratio']:.3f} "
        f"of {scraped['service.cache_lookups']:.0f} lookups, "
        f"{scraped['service.cache_evictions']:.0f} evictions"
    )
    print(
        f"host: the reference work ran {slow:.3f}x its nominal time (mean of "
        f"{len(window['boundaries'])} readings); as measured, before scaling:"
    )
    for name, value in raw.items():
        print(f"  {name:<28} {value:>14.4f}")
    values = {
        "throughput_rps": raw["throughput_rps"] * slow,
        "latency_p50_ms": raw["latency_p50_ms"] / slow,
        "latency_p99_ms": p99 / slow,
        "server_cpu_ms_per_req": raw["server_cpu_ms_per_req"] / slow,
        "peak_rss_mb": window["peak_rss_mb"],
        "setup_s": raw["setup_s"] / statistics.fmean(setup_readings),
    }
    spec = END_TO_END
    if args.trace:
        values.update(scraped)
        values.update(
            replay(
                workload,
                REPLAY_SECONDS,
                REPLAY_REQUESTS,
                OUT / f"spans-{workload.name}-{args.seed}.jsonl",
            )
        )
        spec = PER_LAYER
    for name, unit, _ in END_TO_END + (PER_LAYER if args.trace else ()):
        print(f"  {name:<28} {values[name]:>14.4f} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    result = {
        "correct": failed == 0
        and not problems
        and not window["warmup_failures"]
        and beyond_p99 >= TAIL_SAMPLES,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
