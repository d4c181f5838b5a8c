"""The chaos conformance sweep (ISSUE acceptance criterion).

For many seeded fault plans, run the same program cleanly and under
injection on every backend: survivable plans must be observationally
invisible (bit-identical value and ``BspCost``), unsurvivable plans must
fail atomically and identically everywhere.

``CHAOS_SEEDS`` scales the sweep (the CI chaos job raises it); the
default keeps the acceptance floor of 100 seeded plans.
"""

from __future__ import annotations

import os
from functools import partial

from repro.bsp.faults import RetryPolicy
from repro.bsp.machine import NO_MESSAGE
from repro.testing import assert_chaos_conformance

SEEDS = int(os.environ.get("CHAOS_SEEDS", "104"))

#: Generous retries so the default-rate plans are (deterministically)
#: survivable — the sweep's point is that surviving leaves no trace.
SWEEP_POLICY = RetryPolicy(max_attempts=6)


# -- chaos corpus -------------------------------------------------------------
#
# BSMLlib programs built from module-level functions (and partials over
# them), plus interpreter sources whose per-process tasks carry
# closures.  Every program is deterministic.


def _square(i):
    return i * i


def _mk_add(i):
    return partial(_add, i)


def _add(i, x):
    return i + x


def _ring_sender(p, j, dst):
    return j * j if dst == (j + 1) % p else NO_MESSAGE


def _mk_ring_sender(p, j):
    return partial(_ring_sender, p, j)


def _prev(p, j):
    return (j - 1) % p


def _total_sender(j, dst):
    return j * 10 + dst


def _mk_total_sender(j):
    return partial(_total_sender, j)


def _sum_received(p, recv):
    return sum(
        value
        for value in (recv(src) for src in range(p))
        if value is not NO_MESSAGE
    )


def _mk_sum_received(p, _proc):
    return partial(_sum_received, p)


def _prog_map(ctx):
    """Pure compute: two supersteps of mkpar/apply."""
    return ctx.apply(ctx.mkpar(_mk_add), ctx.mkpar(_square)).to_list()


def _prog_ring(ctx):
    """A ring shift through put: each proc passes its square rightwards."""
    p = ctx.p
    received = ctx.put(ctx.mkpar(partial(_mk_ring_sender, p)))
    takers = ctx.mkpar(partial(_prev, p))
    return [recv(src) for recv, src in zip(received, takers)]


def _prog_total_exchange(ctx):
    """All-to-all put followed by a local reduction per process."""
    p = ctx.p
    received = ctx.put(ctx.mkpar(_mk_total_sender))
    summed = ctx.apply(ctx.mkpar(partial(_mk_sum_received, p)), received)
    return summed.to_list()


PROGRAMS = [
    _prog_map,
    _prog_ring,
    _prog_total_exchange,
    "bcast 1 (mkpar (fun i -> i * i))",
    "let v = mkpar (fun i -> i + 1) in bcast 0 v",
]


# -- the sweep ----------------------------------------------------------------


def test_chaos_sweep_over_seeded_plans():
    """Acceptance: >= 100 seeded survivable plans, values and cost
    bit-identical across seq/thread; any unsurvivable plan in
    the sweep fails atomically on every backend."""
    survivable = 0
    for seed in range(SEEDS):
        program = PROGRAMS[seed % len(PROGRAMS)]
        report = assert_chaos_conformance(program, seed=seed, policy=SWEEP_POLICY)
        survivable += 1 if report.survivable else 0
    assert survivable >= min(SEEDS, 100), (
        f"only {survivable}/{SEEDS} plans were survivable — the sweep "
        "needs >= 100 survivable conforming plans"
    )


def test_chaos_unsurvivable_plans_fail_atomically():
    """With brutal rates and a single attempt, most plans are fatal:
    conformance then means every backend raised the identical
    SuperstepFault with the machine rolled back."""
    unsurvivable = 0
    for seed in range(12):
        report = assert_chaos_conformance(
            _prog_map,
            seed=seed,
            rates={"crash": 0.7, "drop": 0.5},
            policy=RetryPolicy(max_attempts=1),
        )
        if not report.survivable:
            unsurvivable += 1
            for run in report.runs:
                assert run.faulted and run.state_restored
    assert unsurvivable >= 6


def test_chaos_zero_rate_plan_is_invisible():
    """An armed plan with all-zero rates must change nothing at all."""
    report = assert_chaos_conformance(
        _prog_total_exchange, seed=1, rates={}, policy=SWEEP_POLICY
    )
    assert report.survivable
