"""The BSP machine simulator: superstep engine with cost accounting.

The machine is the substrate on which both the Python BSMLlib
(:mod:`repro.bsml`) and the costed mini-BSML interpreter
(:mod:`repro.semantics.costed`) run.  It does not execute code itself —
the callers do — it *accounts*: callers report local work per process and
hand over traffic matrices for the communication phases, and the machine
folds everything into the paper's cost model ``W + H*g + S*l``.

A superstep is, per the BSP model, (1) local computation, (2) delivery of
the requested h-relation, (3) a synchronization barrier.  ``exchange``
performs (2)+(3) and opens the next superstep; ``barrier`` is an exchange
with an empty relation (``if ... at ...`` uses an explicit small one).

The machine also *executes* the computation phases:
:meth:`BspMachine.run_superstep` runs one task per process on the
calling thread, folds the tasks' abstract op counts into the ``w_i``
work accounting, and records their measured wall-clock seconds
alongside (carried on :class:`~repro.bsp.cost.SuperstepCost` but
excluded from equality).  The order in which the tasks run is the
machine's ``schedule``: in process order by default, or any permutation
a test supplies.  Values, costs and trace records are committed in
process order whatever the schedule, so a program whose result depends
on it is caught by the schedule axis of :func:`repro.testing.conform`.

Every phase is **transactional**: :meth:`run_superstep` and
:meth:`exchange` either commit — values, cost rows, mailboxes — or leave
the machine exactly as it was and raise the program's own error.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.network import HRelation, h_relation_of_matrix
from repro.bsp.params import BspParams


class _NoMessage:
    """Singleton marker for "no message was delivered".

    Distinct from every user value — in particular from a transmitted
    ``None`` — so :meth:`BspMachine.receive` never conflates "the mailbox
    is empty" with "the sender sent the value ``None``" (the BSML
    ``nc ()`` versus a sent value).  Falsy, like the absence it denotes.
    """

    _instance: Optional["_NoMessage"] = None

    def __new__(cls) -> "_NoMessage":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NO_MESSAGE"


#: The unique "mailbox empty" marker.
NO_MESSAGE = _NoMessage()

#: A unit of per-process work: returns ``(value, abstract_op_count)``.
Task = Callable[[], Any]

#: The order of one computation phase: ``schedule(p)`` returns a
#: permutation of ``range(p)``.
Schedule = Callable[[int], Sequence[int]]


class BspMachine:
    """A ``p``-process BSP machine accumulating a :class:`BspCost`."""

    def __init__(self, params: BspParams, schedule: Optional[Schedule] = None) -> None:
        """``schedule`` is a test seam: called once per computation phase,
        it gives the order the tasks run in.  None runs them in process
        order."""
        self.params = params
        self.schedule = schedule
        self._work: List[float] = [0.0] * params.p
        self._elapsed: List[float] = [0.0] * params.p
        self._steps: List[SuperstepCost] = []
        self._mailboxes: List[Dict[int, object]] = [dict() for _ in range(params.p)]

    @property
    def p(self) -> int:
        return self.params.p

    def state_fingerprint(self) -> Tuple:
        """A structural snapshot of all superstep-visible machine state:
        work, elapsed seconds, committed cost rows and mailboxes.  Two
        equal fingerprints mean the machine is observationally in the
        same place — the atomicity assertions compare fingerprints taken
        before and after a failed phase."""
        return (
            tuple(self._work),
            tuple(self._elapsed),
            tuple(self._steps),
            tuple(
                tuple(sorted(mailbox.items())) for mailbox in self._mailboxes
            ),
        )

    # -- computation phase --------------------------------------------------

    def local(self, proc: int, ops: float = 1.0) -> None:
        """Account ``ops`` units of work on process ``proc``."""
        if not 0 <= proc < self.p:
            raise ValueError(f"process {proc} out of range (p = {self.p})")
        self._work[proc] += ops

    def replicated(self, ops: float = 1.0) -> None:
        """Account work executed identically by every process (the
        replicated global control of an SPMD BSML program)."""
        for proc in range(self.p):
            self._work[proc] += ops

    def run_superstep(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute the computation phase of a superstep.

        ``tasks[i]`` is a zero-argument callable — process ``i``'s local
        computation — returning ``(value, ops)``.  The tasks run in the
        machine's ``schedule`` order; the abstract ``ops`` are folded
        into process ``i``'s ``w_i`` and the measured wall-clock seconds
        accumulate separately until the superstep closes.  Returns the
        values in process order.

        The superstep is *not* closed: like ``mkpar``/``apply`` these are
        asynchronous phases; the barrier still comes from
        :meth:`exchange` or :meth:`barrier`.

        The phase is **transactional**.  Work and elapsed time commit
        only when every process has a value; on any failure the machine
        is left exactly as it was and the error of the lowest-index
        failing task is re-raised, whatever the schedule.
        """
        if len(tasks) != self.p:
            raise ValueError(f"expected {self.p} tasks, got {len(tasks)}")
        if obs.is_tracing():
            with obs.span(
                "superstep.compute",
                obs.MACHINE_TRACK,
                superstep=len(self._steps),
                procs=self.p,
            ):
                return self._compute(tasks, tasks_traced=obs.window_open())
        return self._compute(tasks, tasks_traced=False)

    def _compute(self, tasks: Sequence[Task], tasks_traced: bool) -> List[Any]:
        """The (transactional) body of :meth:`run_superstep`.

        One loop for every schedule: a task whose index is above the
        lowest failing index seen so far is skipped, since its outcome
        can no longer matter.  In process order that is fail-fast; under
        a permutation it runs exactly the tasks needed to find the
        lowest-index error.
        """
        p = self.p
        order = range(p) if self.schedule is None else self.schedule(p)
        results: List[Any] = [None] * p
        started = [0.0] * p
        seconds = [0.0] * p
        failed, error = p, None
        clock = time.perf_counter
        for proc in order:
            if proc > failed:
                continue
            start = clock()
            try:
                results[proc] = tasks[proc]()
            except Exception as raised:
                failed, error = proc, raised
                continue
            started[proc], seconds[proc] = start, clock() - start
        if error is not None:
            # Nothing was committed, so the machine state is untouched:
            # re-raise the program's own error.
            raise error
        # Commit in process order: every process has a value.
        step_index = len(self._steps)
        values: List[Any] = []
        for proc in range(p):
            value, ops = results[proc]
            self._work[proc] += ops
            self._elapsed[proc] += seconds[proc]
            values.append(value)
            if tasks_traced:
                obs.record(
                    "task",
                    obs.process_track(proc),
                    started[proc],
                    seconds[proc],
                    proc=proc,
                    ops=ops,
                    superstep=step_index,
                )
        return values

    # -- communication + synchronization phases ------------------------------

    def exchange(
        self,
        sent_words: Sequence[Sequence[int]],
        payloads: Optional[Dict[Tuple[int, int], object]] = None,
        label: str = "",
    ) -> HRelation:
        """Deliver an h-relation and pass the barrier, closing the superstep.

        ``sent_words[i][j]`` is the number of words process ``i`` sends to
        process ``j`` (diagonal ignored).  ``payloads`` optionally carries
        the actual values; they become readable via :meth:`receive` during
        the next superstep, which is how the BSML ``put`` is built.

        Every payload key must be accounted in the traffic matrix:
        endpoints are range-checked, diagonal self-sends are rejected
        (the h-relation ignores the diagonal, so delivering them would
        undercount communication), and a payload for a ``(src, dst)``
        pair whose matrix entry is zero raises :class:`ValueError` — cost
        accounting can never miss traffic that was actually delivered.
        """
        relation = h_relation_of_matrix(sent_words)
        if payloads:
            for src, dst in payloads:
                if not (0 <= src < self.p and 0 <= dst < self.p):
                    raise ValueError(
                        f"payload endpoints ({src}, {dst}) out of range (p = {self.p})"
                    )
                if src == dst:
                    raise ValueError(
                        f"payload ({src}, {dst}) is a diagonal self-send: the "
                        "h-relation does not account it; keep local data local"
                    )
                if sent_words[src][dst] == 0:
                    raise ValueError(
                        f"payload for ({src}, {dst}) but the traffic matrix "
                        "records 0 words sent — unaccounted communication"
                    )
        if obs.is_tracing():
            # The full traffic matrix rides on the span (deterministic,
            # so abstract signatures stay schedule-independent): the trace
            # analyzer aggregates it into the per-pair communication
            # report without re-deriving routing from payload keys.
            with obs.span(
                "superstep.exchange",
                obs.MACHINE_TRACK,
                superstep=len(self._steps),
                label=label,
                h=relation.h,
                words=relation.total_words,
                matrix=tuple(tuple(int(w) for w in row) for row in sent_words),
            ):
                self._close(relation, label, deliveries=payloads)
        else:
            self._close(relation, label, deliveries=payloads)
        return relation

    def barrier(self, label: str = "barrier") -> None:
        """A pure synchronization: empty relation, still costs ``l``.

        Like every barrier passage it clears the mailboxes: a payload is
        readable only during the superstep immediately after its
        exchange, never across a later barrier.
        """
        relation = HRelation((0,) * self.p, (0,) * self.p)
        if obs.is_tracing():
            with obs.span(
                "superstep.barrier",
                obs.MACHINE_TRACK,
                superstep=len(self._steps),
                label=label,
            ):
                self._close(relation, label)
        else:
            self._close(relation, label)

    def receive(self, proc: int, source: int):
        """The payload ``source`` sent to ``proc`` in the last exchange,
        or :data:`NO_MESSAGE` when nothing was sent.

        A transmitted ``None`` is a real value and is returned as such;
        only the distinct :data:`NO_MESSAGE` sentinel means "no message"
        (use :meth:`has_message` for the boolean question).
        """
        return self._mailboxes[proc].get(source, NO_MESSAGE)

    def has_message(self, proc: int, source: int) -> bool:
        """True when ``source`` delivered a payload to ``proc`` in the
        last exchange — even if that payload was ``None``."""
        return source in self._mailboxes[proc]

    # -- results --------------------------------------------------------------

    def _close(
        self,
        relation: HRelation,
        label: str,
        deliveries: Optional[Dict[Tuple[int, int], object]] = None,
    ) -> None:
        """End the superstep: record its cost, clear delivery state, and
        deliver the new payloads (if any) for the next superstep.

        Clearing happens here — on *every* barrier passage — rather than
        in :meth:`exchange`: a ``barrier()`` between an exchange and a
        read must not leave stale payloads readable (regression: it did).
        """
        step = SuperstepCost(
            tuple(self._work),
            relation,
            synchronized=True,
            label=label,
            measured=tuple(self._elapsed) if any(self._elapsed) else None,
        )
        self._steps.append(step)
        if obs.is_tracing():
            # The committed BspCost row rides on the trace so modelled
            # cost can be read next to the measured phase spans; counting
            # windows and the metrics count supersteps and words from it.
            obs.event(
                "superstep",
                obs.MACHINE_TRACK,
                superstep=len(self._steps) - 1,
                w_max=step.w_max,
                h=step.h,
                words=relation.total_words,
                label=label,
            )
        self._work = [0.0] * self.p
        self._elapsed = [0.0] * self.p
        self._mailboxes = [dict() for _ in range(self.p)]
        if deliveries:
            for (src, dst), value in deliveries.items():
                self._mailboxes[dst][src] = value

    def cost(self) -> BspCost:
        """The cost so far, including any unfinished local-only phase."""
        steps = list(self._steps)
        if any(work > 0 for work in self._work):
            steps.append(
                SuperstepCost(
                    tuple(self._work),
                    None,
                    synchronized=False,
                    label="trailing local",
                    measured=tuple(self._elapsed) if any(self._elapsed) else None,
                )
            )
        return BspCost(self.p, steps)

    def total_time(self) -> float:
        return self.cost().total(self.params)

    def reset(self) -> None:
        """Forget all accounting (mailboxes included)."""
        self._work = [0.0] * self.p
        self._elapsed = [0.0] * self.p
        self._steps = []
        self._mailboxes = [dict() for _ in range(self.p)]
