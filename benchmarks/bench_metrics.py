"""Benchmark — the metrics layer's disabled overhead.

The metrics registry (``repro.obs.metrics``) aggregates through a
module-global trace sink, so when metrics are **off** the machine must
pay nothing beyond the tracer's existing one-truthiness-test guard: no
sink installed means ``is_tracing()`` is still false and every span site
short-circuits exactly as before the metrics layer existed.

The guard holds that promise: a superstep workload with metrics disabled
(the default state) must cost at most ``MAX_OVERHEAD`` of the same
workload with the instrumentation sites stubbed out entirely, read as
the median of per-round paired ratios (see ``ROUNDS``).

A third, informational measurement runs with ``metrics.enable()`` — that
path pays for record construction plus one histogram update per span
(it is opt-in precisely because it is not free), so it is reported but
not guarded, and timed only in every ``ENABLED_EVERY``-th round: it
costs several guarded rounds' time and no assertion reads it.

The regenerated table lands in ``benchmarks/results/metrics.txt``.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from functools import partial

from repro import obs
from repro.bsp import executor as executor_mod
from repro.bsp import machine as machine_mod
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams
from repro.obs import metrics

from _util import write_table

PARAMS = BspParams(p=4, g=2.0, l=50.0)

#: Supersteps (each: one compute phase + one exchange) per measurement.
REPS = 1000

#: Paired rounds.  Each round times the stubbed and the disabled machine
#: back to back (alternating which goes first) and keeps their ratio; the
#: guard reads the median ratio.  A pair shares the host's state of the
#: moment, so drift and bursts of outside load cancel within it, and the
#: median ignores the rounds a burst splits.  Per-mode minima would come
#: from different moments, so one burst could move one mode only.
ROUNDS = 41

#: The informational ``enabled`` mode is timed in rounds 0, 8, 16, ...
#: only (6 of the 41), beside that round's stubbed time.
ENABLED_EVERY = 8

#: The guard: metrics disabled must cost at most this factor of the
#: machine with the instrumentation sites removed.
MAX_OVERHEAD = 1.05


def _unit_task(i):
    return i * i, 1.0


TASKS = [partial(_unit_task, i) for i in range(PARAMS.p)]
SENT = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
PAYLOADS = {(0, 1): "a", (1, 2): "b", (2, 3): "c", (3, 0): "d"}


class _ObsStub:
    """The tracer's surface with every site compiled down to nothing —
    the machine as it was before the observability layers existed."""

    MACHINE_TRACK = obs.MACHINE_TRACK
    INFERENCE_TRACK = obs.INFERENCE_TRACK

    @staticmethod
    def process_track(proc):
        return f"proc {proc}"

    @staticmethod
    def is_tracing():
        return False

    @staticmethod
    def record(*args, **kwargs):
        pass

    @staticmethod
    def event(*args, **kwargs):
        pass

    @staticmethod
    @contextmanager
    def span(*args, **kwargs):
        yield None


@contextmanager
def _instrumentation_removed():
    """Swap the machine/executor layers' ``obs`` binding for the stub."""
    originals = (machine_mod.obs, executor_mod.obs)
    machine_mod.obs = executor_mod.obs = _ObsStub
    try:
        yield
    finally:
        machine_mod.obs, executor_mod.obs = originals


@contextmanager
def _metrics_on():
    metrics.enable()
    try:
        yield
    finally:
        metrics.disable()


def _drive(machine: BspMachine):
    values = None
    for _ in range(REPS):
        values = machine.run_superstep(TASKS)
        machine.exchange(SENT, payloads=dict(PAYLOADS), label="bench")
    return values


def _measure_once() -> float:
    machine = BspMachine(PARAMS)
    start = time.perf_counter()
    _drive(machine)
    return time.perf_counter() - start


def _measure_stubbed() -> float:
    with _instrumentation_removed():
        return _measure_once()


def _measure_enabled() -> float:
    with _metrics_on():
        return _measure_once()


def _measure_paired() -> dict:
    """Per-mode median time and the median of the per-round ratios
    ``disabled / stubbed`` and ``enabled / stubbed``."""
    times = {"stubbed": [], "disabled": [], "enabled": []}
    ratios = {"disabled": [], "enabled": []}
    for round_ in range(ROUNDS):
        if round_ % 2:
            disabled = _measure_once()
            stubbed = _measure_stubbed()
        else:
            stubbed = _measure_stubbed()
            disabled = _measure_once()
        times["stubbed"].append(stubbed)
        times["disabled"].append(disabled)
        ratios["disabled"].append(disabled / stubbed)
        if round_ % ENABLED_EVERY == 0:
            enabled = _measure_enabled()
            times["enabled"].append(enabled)
            ratios["enabled"].append(enabled / stubbed)
    result = {mode: statistics.median(values) for mode, values in times.items()}
    result["ratio"] = statistics.median(ratios["disabled"])
    result["enabled_ratio"] = statistics.median(ratios["enabled"])
    return result


def test_disabled_metrics_are_free(benchmark):
    assert not metrics.is_enabled(), "metrics must start disabled"

    # Correctness first: neither the stub nor live metrics changes
    # anything observable about the machine itself.
    with _instrumentation_removed():
        stub_machine = BspMachine(PARAMS)
        stub_values = _drive(stub_machine)
    plain_machine = BspMachine(PARAMS)
    plain_values = _drive(plain_machine)
    metrics.global_registry().reset()
    metered_machine = BspMachine(PARAMS)
    with _metrics_on():
        metered_values = _drive(metered_machine)
    assert stub_values == plain_values == metered_values == [0, 1, 4, 9]
    assert stub_machine.cost() == plain_machine.cost() == metered_machine.cost()
    # and the metered run actually fed the registry
    assert metrics.SUPERSTEPS_TOTAL.value() == REPS
    assert metrics.SUPERSTEP_SECONDS.count(phase="exchange") == REPS
    metrics.global_registry().reset()

    timings = _measure_paired()
    stubbed_s = timings["stubbed"]
    disabled_s = timings["disabled"]
    enabled_s = timings["enabled"]
    metrics.global_registry().reset()
    ratio = timings["ratio"]
    enabled_ratio = timings["enabled_ratio"]

    write_table(
        "metrics",
        f"Metrics overhead — {REPS} supersteps (compute + exchange), "
        f"p={PARAMS.p}, medians of {ROUNDS} paired rounds "
        f"(enabled: every {ENABLED_EVERY}th round)",
        ("machine", "total (ms)", "vs no layer (median ratio)", "verdict"),
        [
            (
                "instrumentation stubbed out",
                f"{stubbed_s * 1e3:.1f}",
                "1.00x",
                "reference",
            ),
            (
                "metrics disabled (default)",
                f"{disabled_s * 1e3:.1f}",
                f"{ratio:.2f}x",
                "within guard" if ratio <= MAX_OVERHEAD else "OVER BUDGET",
            ),
            (
                "metrics enabled (sink + histograms)",
                f"{enabled_s * 1e3:.1f}",
                f"{enabled_ratio:.2f}x",
                "informational",
            ),
        ],
        footer="Guard: with metrics disabled the instrumentation must "
        f"cost <= {MAX_OVERHEAD:.2f}x the machine with the sites removed "
        "entirely (no sink installed, so span sites short-circuit on one "
        "truthiness test).  Enabled metrics pay for record construction "
        "plus one streaming-histogram update per span and are opt-in.",
    )

    assert ratio <= MAX_OVERHEAD, (
        f"disabled-metrics overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD:.2f}x budget (median of {ROUNDS} paired rounds; "
        f"median {disabled_s * 1e3:.2f} ms vs {stubbed_s * 1e3:.2f} ms over "
        f"{REPS} supersteps)"
    )

    benchmark(lambda: _drive(BspMachine(PARAMS)))
