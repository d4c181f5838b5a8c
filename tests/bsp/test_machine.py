"""Tests for the BSP machine: superstep accounting, mailboxes and the
schedule of its computation phases."""

from __future__ import annotations

from functools import partial

import pytest

from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.machine import NO_MESSAGE, BspMachine
from repro.bsp.network import HRelation
from repro.bsp.params import PREDEFINED, BspParams
from repro.testing.differential import SCHEDULES, schedule_of

#: The default conformance axis plus a few more shuffles.
SCHEDULE_NAMES = SCHEDULES + tuple(f"shuffle:{seed}" for seed in (1, 2, 3))


def machine(p=4, g=2.0, l=50.0):
    return BspMachine(BspParams(p=p, g=g, l=l))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BspParams(p=0)
        with pytest.raises(ValueError):
            BspParams(p=2, g=-1)

    def test_superstep_time(self):
        params = BspParams(p=2, g=3.0, l=7.0)
        assert params.superstep_time(10, 4) == 10 + 12 + 7

    def test_predefined_profiles(self):
        assert set(PREDEFINED) == {"cluster", "slow-network", "shared-memory"}
        for params in PREDEFINED.values():
            assert params.p >= 1


class TestWorkAccounting:
    def test_local_work(self):
        m = machine()
        m.local(0, 5)
        m.local(1, 3)
        cost = m.cost()
        assert cost.W == 5  # max over processes

    def test_replicated_work_charges_everyone(self):
        m = machine()
        m.replicated(2)
        m.local(1, 1)
        assert m.cost().W == 3

    def test_local_out_of_range(self):
        with pytest.raises(ValueError):
            machine(p=2).local(5)


class TestSupersteps:
    def test_exchange_closes_superstep(self):
        m = machine(p=2)
        m.local(0, 4)
        m.exchange([[0, 3], [0, 0]], label="x")
        cost = m.cost()
        assert cost.S == 1
        assert cost.H == 3
        assert cost.W == 4

    def test_work_after_exchange_is_new_superstep(self):
        m = machine(p=2)
        m.local(0, 1)
        m.exchange([[0, 1], [0, 0]])
        m.local(0, 7)
        cost = m.cost()
        assert len(cost.supersteps) == 2
        assert not cost.supersteps[-1].synchronized
        assert cost.W == 8

    def test_barrier_costs_l_only(self):
        m = machine(p=2)
        m.barrier()
        cost = m.cost()
        assert cost.S == 1
        assert cost.H == 0

    def test_total_formula(self):
        params = BspParams(p=2, g=2.0, l=10.0)
        m = BspMachine(params)
        m.replicated(3)
        m.exchange([[0, 4], [0, 0]])
        m.replicated(1)
        cost = m.cost()
        # W + H*g + S*l = (3+1) + 4*2 + 1*10
        assert cost.total(params) == 4 + 8 + 10
        assert cost.check_decomposition(params)

    def test_reset(self):
        m = machine()
        m.replicated(5)
        m.exchange([[0] * 4 for _ in range(4)])
        m.reset()
        assert m.cost().supersteps == []


class TestMailboxes:
    def test_payload_delivery(self):
        m = machine(p=3)
        m.exchange(
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            payloads={(0, 1): "hello", (1, 2): "world"},
        )
        assert m.receive(1, 0) == "hello"
        assert m.receive(2, 1) == "world"
        assert m.receive(0, 1) is NO_MESSAGE
        assert m.has_message(1, 0)
        assert not m.has_message(0, 1)

    def test_next_exchange_clears_mailboxes(self):
        m = machine(p=2)
        m.exchange([[0, 1], [0, 0]], payloads={(0, 1): 42})
        m.exchange([[0, 0], [0, 0]])
        assert m.receive(1, 0) is NO_MESSAGE
        assert not m.has_message(1, 0)

    def test_transmitted_none_differs_from_no_message(self):
        # Regression: a transmitted None used to be indistinguishable from
        # "no message"; receive now keeps them apart via the sentinel.
        m = machine(p=2)
        m.exchange([[0, 1], [0, 0]], payloads={(0, 1): None})
        assert m.receive(1, 0) is None
        assert m.has_message(1, 0)
        assert m.receive(1, 1) is NO_MESSAGE
        assert not m.has_message(1, 1)

    def test_no_message_sentinel_is_falsy(self):
        assert not NO_MESSAGE
        assert repr(NO_MESSAGE) == "NO_MESSAGE"

    def test_barrier_clears_mailboxes(self):
        # Regression: barrier() closed the superstep without clearing the
        # delivery state, so a payload stayed readable across any number
        # of later barriers — a message surviving a synchronization no
        # exchange re-delivered it through.
        m = machine(p=2)
        m.exchange([[0, 1], [0, 0]], payloads={(0, 1): 42})
        assert m.receive(1, 0) == 42
        m.barrier()
        assert m.receive(1, 0) is NO_MESSAGE
        assert not m.has_message(1, 0)


class TestExchangeValidation:
    """Regression: exchange used to deliver payloads without checking them
    against the traffic matrix, silently corrupting the cost accounting."""

    def test_out_of_range_payload_key(self):
        m = machine(p=2)
        with pytest.raises(ValueError, match="out of range"):
            m.exchange([[0, 1], [0, 0]], payloads={(0, 5): "x"})
        with pytest.raises(ValueError, match="out of range"):
            m.exchange([[0, 1], [0, 0]], payloads={(-1, 1): "x"})

    def test_diagonal_self_send_rejected(self):
        m = machine(p=2)
        with pytest.raises(ValueError, match="self-send"):
            m.exchange([[0, 1], [0, 0]], payloads={(0, 0): "x"})

    def test_unaccounted_payload_rejected(self):
        # The matrix says nothing flows 1 -> 0, so a (1, 0) payload would
        # be communication the cost model never charged for.
        m = machine(p=2)
        with pytest.raises(ValueError, match="unaccounted"):
            m.exchange([[0, 1], [0, 0]], payloads={(1, 0): "x"})


class TestRunSuperstep:
    def test_values_and_work_accounting(self):
        m = machine(p=3)
        values = m.run_superstep([lambda i=i: (i * 10, float(i + 1)) for i in range(3)])
        assert values == [0, 10, 20]
        m.barrier()
        cost = m.cost()
        assert cost.S == 1
        assert cost.supersteps[0].work == (1.0, 2.0, 3.0)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="expected 2 tasks"):
            machine(p=2).run_superstep([lambda: (0, 0.0)])

    def test_lowest_index_error_wins(self):
        m = machine(p=3)

        def fail(msg):
            raise RuntimeError(msg)

        with pytest.raises(RuntimeError, match="first"):
            m.run_superstep(
                [
                    lambda: (0, 1.0),
                    lambda: fail("first"),
                    lambda: fail("second"),
                ]
            )

    def test_measured_timings_recorded(self):
        m = machine(p=2)
        m.run_superstep([lambda: (0, 1.0), lambda: (1, 1.0)])
        m.barrier()
        step = m.cost().supersteps[0]
        assert step.measured is not None
        assert len(step.measured) == 2
        assert all(seconds >= 0.0 for seconds in step.measured)
        # Wall-clock timings never participate in cost equality.
        bare = SuperstepCost(
            work=step.work, relation=step.relation, label=step.label
        )
        assert step == bare


class TestCostObjects:
    def test_superstep_time_unsynchronized(self):
        step = SuperstepCost(work=(3.0, 5.0), relation=None, synchronized=False)
        assert step.time(BspParams(p=2, g=1, l=100)) == 5.0

    def test_empty_cost(self):
        cost = BspCost(p=2, supersteps=[])
        assert cost.W == 0 and cost.H == 0 and cost.S == 0
        assert cost.total(BspParams(p=2)) == 0

    def test_render_contains_table(self):
        m = machine(p=2)
        m.local(0, 1)
        m.exchange([[0, 1], [0, 0]], label="hello")
        text = m.cost().render(m.params)
        assert "hello" in text
        assert "total" in text


class TestSuperstepAtomicity:
    """Satellite regression: a task failing mid-superstep must not leave
    partially-committed work behind (the old code folded each completed
    outcome into ``_work``/``_elapsed`` before noticing the failure, so
    catch-and-retry produced a corrupt cost decomposition)."""

    def _tasks(self, p, boom_at=None):
        def make(i):
            if i == boom_at:
                def boom():
                    raise RuntimeError(f"proc {i} exploded")
                return boom
            return lambda i=i: (i, 10.0)
        return [make(i) for i in range(p)]

    def test_failed_superstep_commits_nothing(self):
        m = machine()
        m.run_superstep(self._tasks(4))  # a clean superstep to have state
        before = m.state_fingerprint()
        with pytest.raises(RuntimeError, match="proc 2 exploded"):
            m.run_superstep(self._tasks(4, boom_at=2))
        # Procs 0 and 1 succeeded before the failure, but none of their
        # work may have been committed.
        assert m.state_fingerprint() == before

    def test_catch_and_retry_keeps_cost_decomposition_valid(self):
        m = machine()
        try:
            m.run_superstep(self._tasks(4, boom_at=1))
        except RuntimeError:
            pass  # a caller catching the error and retrying...
        values = m.run_superstep(self._tasks(4))
        m.barrier()
        assert values == [0, 1, 2, 3]
        cost = m.cost()
        # Exactly one superstep's work: 10 ops per proc, max = 10.
        assert cost.W == 10.0
        assert cost.S == 1
        assert cost.check_decomposition(m.params)


def _recorded(ran, i):
    ran.append(i)
    return i * i, 1.0


class TestSchedules:
    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    def test_values_commit_in_process_order(self, name):
        ran = []
        m = BspMachine(BspParams(p=5), schedule=schedule_of(name))
        values = m.run_superstep([partial(_recorded, ran, i) for i in range(5)])
        assert values == [0, 1, 4, 9, 16]
        assert sorted(ran) == [0, 1, 2, 3, 4]
        m.barrier()
        assert m.cost().supersteps[0].work == (1.0,) * 5

    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    def test_timings_are_measured(self, name):
        m = BspMachine(BspParams(p=3), schedule=schedule_of(name))
        m.run_superstep([partial(_recorded, [], i) for i in range(3)])
        m.barrier()
        measured = m.cost().supersteps[0].measured
        assert measured is not None and len(measured) == 3
        assert all(seconds >= 0.0 for seconds in measured)

    def test_schedule_sets_the_run_order(self):
        ran = []
        m = BspMachine(BspParams(p=4), schedule=schedule_of("reversed"))
        m.run_superstep([partial(_recorded, ran, i) for i in range(4)])
        assert ran == [3, 2, 1, 0]

    def test_shuffle_draws_a_new_permutation_per_phase_and_replays(self):
        def orders(name):
            ran = []
            m = BspMachine(BspParams(p=6), schedule=schedule_of(name))
            for _ in range(3):
                m.run_superstep([partial(_recorded, ran, i) for i in range(6)])
            return [tuple(ran[k:k + 6]) for k in range(0, 18, 6)]

        first = orders("shuffle:7")
        assert first == orders("shuffle:7")
        assert len(set(first)) > 1
        assert all(sorted(order) == list(range(6)) for order in first)


class TestErrorRule:
    """Processes 1 and 3 raise different errors: every schedule re-raises
    process 1's, and the failed phase commits nothing."""

    P = 6

    def _tasks(self, ran):
        def make(i):
            def task():
                ran.append(i)
                if i in (1, 3):
                    raise RuntimeError(f"proc {i} failed")
                return i, 10.0
            return task
        return [make(i) for i in range(self.P)]

    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    def test_lowest_index_error_under_every_schedule(self, name):
        m = BspMachine(BspParams(p=self.P), schedule=schedule_of(name))
        m.run_superstep([lambda i=i: (i, 1.0) for i in range(self.P)])
        before = m.state_fingerprint()
        with pytest.raises(RuntimeError, match="proc 1 failed"):
            m.run_superstep(self._tasks([]))
        assert m.state_fingerprint() == before

    def test_in_order_fails_fast(self):
        ran = []
        with pytest.raises(RuntimeError, match="proc 1 failed"):
            machine(p=self.P).run_superstep(self._tasks(ran))
        # Tasks 2..p-1 never ran.
        assert ran == [0, 1]

    def test_permuted_schedule_runs_only_tasks_below_the_lowest_failure(self):
        ran = []
        m = BspMachine(BspParams(p=self.P), schedule=lambda p: [3, 5, 1, 4, 0, 2])
        with pytest.raises(RuntimeError, match="proc 1 failed"):
            m.run_superstep(self._tasks(ran))
        # 5 is skipped once 3 failed; 4 and 2 once 1 failed.
        assert ran == [3, 1, 0]
