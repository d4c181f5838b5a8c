"""Benchmark — the instrumentation channel's disabled overhead.

Every instrumentation site of the machine reports into one channel
(``repro.obs.tracer``): trace windows, counting windows (``repro.perf``)
and the metrics registry's module-global sink all read its record
stream.  With no window open and metrics **off** (the default state)
every site must short-circuit on one truthiness test.

The guard holds that promise: a superstep workload with the channel
disabled must cost at most ``MAX_OVERHEAD`` of the same workload with
the channel stubbed out entirely, read as the median of per-round
paired ratios (see ``ROUNDS``).

Two informational measurements run with a consumer attached:
``metrics.enable()`` (record construction plus one histogram update per
span) and an open trace window (record construction plus one append
per record).  Both are opt-in precisely because they are not free, so
they are reported but not guarded, and timed only in every
``ENABLED_EVERY``-th round: they cost several guarded rounds' time and
no assertion reads them.

The regenerated table lands in ``benchmarks/results/metrics.txt``.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from functools import partial

from repro import obs
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

#: The informational ``metered`` and ``traced`` modes are timed in
#: rounds 0, 8, 16, ... only (6 of the 41), beside that round's stubbed
#: time.
ENABLED_EVERY = 8

#: The guard: the disabled channel must cost at most this factor of the
#: machine with the instrumentation sites removed.
MAX_OVERHEAD = 1.05


def _unit_task(i):
    return i * i, 1.0


TASKS = [partial(_unit_task, i) for i in range(PARAMS.p)]
SENT = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
PAYLOADS = {(0, 1): "a", (1, 2): "b", (2, 3): "c", (3, 0): "d"}


class _ObsStub:
    """The channel's surface with every site compiled down to nothing —
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
    def window_open():
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
    """Swap the machine layer's ``obs`` binding for the stub."""
    original = machine_mod.obs
    machine_mod.obs = _ObsStub
    try:
        yield
    finally:
        machine_mod.obs = original


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


def _measure_metered() -> float:
    with _metrics_on():
        return _measure_once()


def _measure_traced() -> float:
    with obs.trace():
        return _measure_once()


def _measure_paired() -> dict:
    """Per-mode median time and the median of the per-round ratios of
    each mode to ``stubbed``."""
    times = {"stubbed": [], "disabled": [], "metered": [], "traced": []}
    ratios = {"disabled": [], "metered": [], "traced": []}
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
            for mode, measure in (
                ("metered", _measure_metered),
                ("traced", _measure_traced),
            ):
                elapsed = measure()
                times[mode].append(elapsed)
                ratios[mode].append(elapsed / stubbed)
    result = {mode: statistics.median(values) for mode, values in times.items()}
    for mode, values in ratios.items():
        result[f"{mode}_ratio"] = statistics.median(values)
    return result


def test_disabled_channel_is_free(benchmark):
    assert not metrics.is_enabled(), "metrics must start disabled"
    assert not obs.is_tracing(), "no window or sink may be open"

    # Correctness first: neither the stub nor a consumer changes
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
    traced_machine = BspMachine(PARAMS)
    with obs.trace() as collected:
        traced_values = _drive(traced_machine)
    assert stub_values == plain_values == metered_values == traced_values
    assert stub_values == [0, 1, 4, 9]
    assert stub_machine.cost() == plain_machine.cost() == metered_machine.cost()
    assert traced_machine.cost() == plain_machine.cost()
    # and the metered run fed the registry, the traced run the window
    assert metrics.SUPERSTEPS_TOTAL.value() == REPS
    assert metrics.SUPERSTEP_SECONDS.count(phase="exchange") == REPS
    assert len(collected.events("superstep")) == REPS
    metrics.global_registry().reset()

    timings = _measure_paired()
    stubbed_s = timings["stubbed"]
    disabled_s = timings["disabled"]
    metrics.global_registry().reset()
    ratio = timings["disabled_ratio"]

    write_table(
        "metrics",
        f"Instrumentation overhead — {REPS} supersteps (compute + exchange), "
        f"p={PARAMS.p}, medians of {ROUNDS} paired rounds "
        f"(metered, traced: every {ENABLED_EVERY}th round)",
        ("machine", "total (ms)", "vs no layer (median ratio)", "verdict"),
        [
            (
                "instrumentation stubbed out",
                f"{stubbed_s * 1e3:.1f}",
                "1.00x",
                "reference",
            ),
            (
                "channel disabled (default)",
                f"{disabled_s * 1e3:.1f}",
                f"{ratio:.2f}x",
                "within guard" if ratio <= MAX_OVERHEAD else "OVER BUDGET",
            ),
            (
                "metrics enabled (sink + histograms)",
                f"{timings['metered'] * 1e3:.1f}",
                f"{timings['metered_ratio']:.2f}x",
                "informational",
            ),
            (
                "trace window open (full trace)",
                f"{timings['traced'] * 1e3:.1f}",
                f"{timings['traced_ratio']:.2f}x",
                "informational",
            ),
        ],
        footer="Guard: with no window open and metrics disabled the "
        f"instrumentation must cost <= {MAX_OVERHEAD:.2f}x the machine "
        "with the sites removed entirely (one truthiness test per site).  "
        "Metrics and trace windows pay for record construction and are "
        "opt-in.",
    )

    assert ratio <= MAX_OVERHEAD, (
        f"disabled-channel overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD:.2f}x budget (median of {ROUNDS} paired rounds; "
        f"median {disabled_s * 1e3:.2f} ms vs {stubbed_s * 1e3:.2f} ms over "
        f"{REPS} supersteps)"
    )

    benchmark(lambda: _drive(BspMachine(PARAMS)))
