"""Tests for the fault-injection layer (repro.bsp.faults) and the
transactional superstep semantics it gives the machine."""

from __future__ import annotations

from functools import partial

import pytest

from repro import perf
from repro.bsp.executor import BACKENDS, get_executor
from repro.bsp.faults import (
    FaultPlan,
    FaultSpecError,
    RetryPolicy,
    SuperstepFault,
    parse_fault_spec,
)
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams


def _square(i):
    return i * i, 1.0


def _tasks(p):
    return [partial(_square, i) for i in range(p)]


def _machine(p=4, backend="seq", **kwargs):
    return BspMachine(BspParams(p=p), executor=get_executor(backend), **kwargs)


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.delay(1) == 0.0  # base_delay 0: retry immediately

    def test_backoff_is_exponential_with_deterministic_jitter(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter_seed=7)
        delays = [policy.delay(n) for n in (1, 2, 3)]
        again = [policy.delay(n) for n in (1, 2, 3)]
        assert delays == again  # same seed, same jitter
        # Exponential envelope: delay(n) in [base*2^(n-1), 1.5*base*2^(n-1)].
        for n, delay in enumerate(delays, start=1):
            floor = 0.1 * 2 ** (n - 1)
            assert floor <= delay <= 1.5 * floor

    def test_jitter_seed_changes_the_schedule(self):
        a = RetryPolicy(base_delay=0.1, jitter_seed=1)
        b = RetryPolicy(base_delay=0.1, jitter_seed=2)
        assert a.delay(1) != b.delay(1)

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=11, crash=0.3, timeout=0.2, drop=0.4)
        b = FaultPlan(seed=11, crash=0.3, timeout=0.2, drop=0.4)
        keys = [(0, 1), (1, 2), (2, 3)]
        for _ in range(5):
            assert a.draw_task_faults(range(4)) == b.draw_task_faults(range(4))
            assert a.draw_message_faults(keys) == b.draw_message_faults(keys)
            assert a.draw_pool_break() == b.draw_pool_break()

    def test_replay_rewinds_the_stream(self):
        plan = FaultPlan(seed=3, crash=0.5)
        first = plan.draw_task_faults(range(8))
        assert plan.replay().draw_task_faults(range(8)) == first

    def test_zero_rates_draw_nothing(self):
        plan = FaultPlan(seed=0)
        assert not plan.active
        assert plan.draw_task_faults(range(4)) == {}
        assert plan.draw_message_faults([(0, 1)]) == {}
        assert plan.draw_pool_break() is False

    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crash=1.5)


class TestFaultSpec:
    def test_full_spec(self):
        plan, policy = parse_fault_spec(
            "seed=42,crash=0.1,timeout=0.05,drop=0.04,dup=0.02,"
            "corrupt=0.01,pool=0.03,attempts=5,delay=0.25,jitter=9"
        )
        assert plan.seed == 42 and plan.crash == 0.1 and plan.pool == 0.03
        assert policy.max_attempts == 5
        assert policy.base_delay == 0.25 and policy.jitter_seed == 9

    def test_plan_only_spec_has_no_policy(self):
        plan, policy = parse_fault_spec("seed=1,crash=0.5")
        assert plan.crash == 0.5
        assert policy is None

    @pytest.mark.parametrize(
        "spec",
        ["crash", "crash=", "crash=lots", "warp=0.1", "crash=0.1,crash=0.2",
         "crash=2.0", "attempts=0"],
    )
    def test_bad_specs_raise_fault_spec_error(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)


class TestTransactionalCompute:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_survivable_crashes_are_observationally_invisible(self, backend):
        clean = _machine(backend=backend)
        clean_values = clean.run_superstep(_tasks(4))
        clean.barrier()

        chaotic = _machine(
            backend=backend,
            faults=FaultPlan(seed=5, crash=0.4, timeout=0.3),
            retry=RetryPolicy(max_attempts=20),
        )
        values = chaotic.run_superstep(_tasks(4))
        chaotic.barrier()
        assert values == clean_values
        assert chaotic.cost() == clean.cost()

    def test_unsurvivable_plan_raises_atomically(self):
        machine = _machine()
        machine.run_superstep(_tasks(4))
        machine.exchange(
            [[0, 2, 0, 0]] + [[0] * 4] * 3, payloads={(0, 1): "x"}, label="pre"
        )
        machine.arm_faults(FaultPlan(seed=1, crash=1.0))
        before = machine.state_fingerprint()
        with pytest.raises(SuperstepFault) as excinfo:
            machine.run_superstep(_tasks(4))
        assert machine.state_fingerprint() == before
        assert excinfo.value.phase == "compute"
        assert excinfo.value.state_restored
        # The mailbox delivered before the fault is still readable.
        assert machine.receive(1, 0) == "x"
        # And the machine still works: disarm, and the next superstep commits.
        machine.disarm_faults()
        assert machine.run_superstep(_tasks(4)) == [0, 1, 4, 9]

    def test_superstep_fault_carries_the_outcome_table(self):
        machine = _machine(faults=FaultPlan(seed=1, crash=1.0))
        with pytest.raises(SuperstepFault) as excinfo:
            machine.run_superstep(_tasks(4))
        table = excinfo.value.table
        assert len(table) == 4
        assert all(row.status == "crash" for row in table)
        assert "proc 0" in excinfo.value.render()

    def test_no_policy_means_one_attempt(self):
        machine = _machine(faults=FaultPlan(seed=2, crash=1.0))
        with pytest.raises(SuperstepFault) as excinfo:
            machine.run_superstep(_tasks(4))
        assert excinfo.value.attempts == 1

    def test_retry_counters(self):
        machine = _machine(
            faults=FaultPlan(seed=0, crash=0.6),
            retry=RetryPolicy(max_attempts=50),
        )
        with perf.collect() as stats:
            machine.run_superstep(_tasks(4))
        assert stats.counter("bsp.fault.crash") > 0
        assert stats.counter("bsp.retry.attempts") > 0
        assert stats.counter("bsp.retry.recovered") == 1


def _pool_breaks_once():
    """A fresh plan whose pool breaks on the first computation attempt
    and holds on the second (found through the public draw API, so the
    test does not depend on the plan's random-stream layout)."""
    for seed in range(1000):
        probe = FaultPlan(seed=seed, pool=0.5)
        if probe.draw_pool_break() and not probe.draw_pool_break():
            return probe.replay()
    raise AssertionError("no seed breaks the pool exactly once")


@pytest.mark.parametrize("backend", BACKENDS)
class TestInjectedPoolRecovery:
    """A broken worker pool is retried on a fresh pool (policy armed) or
    surfaces as an atomic SuperstepFault (no policy) — on every backend."""

    def test_retry_policy_recovers(self, backend):
        machine = _machine(
            p=2,
            backend=backend,
            faults=_pool_breaks_once(),
            retry=RetryPolicy(max_attempts=3),
        )
        with perf.collect() as stats:
            values = machine.run_superstep(_tasks(2))
        assert values == [0, 1]
        assert stats.counter("bsp.fault.pool") >= 1
        assert stats.counter("bsp.retry.recovered") == 1

    def test_no_policy_raises_superstep_fault_atomically(self, backend):
        machine = _machine(p=2, backend=backend)
        machine.exchange([[0, 2], [0, 0]], payloads={(0, 1): "kept"}, label="pre")
        machine.arm_faults(FaultPlan(seed=0, pool=1.0))
        before = machine.state_fingerprint()
        with pytest.raises(SuperstepFault) as excinfo:
            machine.run_superstep(_tasks(2))
        assert excinfo.value.phase == "compute"
        assert any(row.status == "pool" for row in excinfo.value.table)
        # Nothing committed, mailboxes intact.
        assert machine.state_fingerprint() == before
        assert machine.receive(1, 0) == "kept"


class TestTransactionalExchange:
    def _exchange(self, machine):
        sent = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
        payloads = {(0, 1): "a", (1, 2): "b", (2, 3): "c", (3, 0): "d"}
        machine.exchange(sent, payloads=payloads, label="ring")

    def test_survivable_message_faults_deliver_identically(self):
        clean = _machine()
        self._exchange(clean)

        chaotic = _machine(
            faults=FaultPlan(seed=9, drop=0.3, dup=0.1, corrupt=0.1),
            retry=RetryPolicy(max_attempts=50),
        )
        self._exchange(chaotic)
        assert chaotic.cost() == clean.cost()
        for proc, source in ((1, 0), (2, 1), (3, 2), (0, 3)):
            assert chaotic.receive(proc, source) == clean.receive(proc, source)

    def test_unsurvivable_exchange_keeps_previous_mailboxes(self):
        machine = _machine()
        machine.exchange(
            [[0, 3, 0, 0]] + [[0] * 4] * 3, payloads={(0, 1): "keep"}, label="ok"
        )
        before = machine.state_fingerprint()
        machine.arm_faults(FaultPlan(seed=4, drop=1.0))
        with pytest.raises(SuperstepFault) as excinfo:
            self._exchange(machine)
        assert excinfo.value.phase == "exchange"
        assert machine.state_fingerprint() == before
        assert machine.receive(1, 0) == "keep"  # old delivery intact

    def test_exchange_fault_counts(self):
        machine = _machine(faults=FaultPlan(seed=4, drop=1.0))
        with perf.collect() as stats:
            with pytest.raises(SuperstepFault):
                self._exchange(machine)
        assert stats.counter("bsp.fault.drop") > 0
        assert stats.counter("bsp.fault.supersteps_failed") == 1


class TestCrossBackendFaultDeterminism:
    def test_same_plan_same_story_on_every_backend(self):
        stories = []
        for backend in BACKENDS:
            machine = _machine(
                backend=backend,
                faults=FaultPlan(seed=21, crash=0.3, timeout=0.2, drop=0.3),
                retry=RetryPolicy(max_attempts=30),
            )
            values = machine.run_superstep(_tasks(4))
            machine.exchange(
                [[0, 1, 0, 0]] + [[0] * 4] * 3,
                payloads={(0, 1): "m"},
                label="x",
            )
            stories.append((values, machine.cost()))
        assert all(story == stories[0] for story in stories[1:])
