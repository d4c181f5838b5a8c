"""The BSMLlib primitives for Python, running on the BSP simulator.

Mirrors the OCaml library's interface (section 2 of the paper)::

    bsp_p : unit -> int                     ->  Bsml.p
    mkpar : (int -> 'a) -> 'a par           ->  Bsml.mkpar(f)
    apply : ('a -> 'b) par -> 'a par -> 'b par -> Bsml.apply(fv, xv)
    put   : (int -> 'a option) par -> ...   ->  Bsml.put(fv)
    at    : bool par -> int -> bool         ->  Bsml.at(bv, n)

with BSP cost accounting per operation and *runtime* rejection of nested
parallel vectors — the invariant the paper's type system guarantees
statically for (mini-)BSML, enforced dynamically in this dynamically
typed host (documented substitution; see DESIGN.md).

OCaml's ``'a option`` distinguishes ``None`` from ``Some None``-like
payloads for free; the Python wrapper uses the distinct
:data:`NO_MESSAGE` sentinel for "no message" (the mini-BSML ``nc ()``),
so ``None`` itself is an ordinary transmissible value.  Sender functions
passed to :meth:`Bsml.put` return :data:`NO_MESSAGE` for destinations
they do not message; the delivered function likewise returns
:data:`NO_MESSAGE` (which is falsy) for sources that sent nothing.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.bsp.cost import BspCost
from repro.bsp.machine import NO_MESSAGE, BspMachine
from repro.bsp.params import BspParams
from repro.bsml.errors import ForeignVectorError, NestingViolation, VectorWidthError
from repro.bsml.sizes import words_of


class ParVector:
    """An immutable p-wide parallel vector of per-process Python values.

    Create one through :meth:`Bsml.mkpar`; vectors remember their creating
    context and can only be consumed by it.
    """

    __slots__ = ("_values", "_context")

    def __init__(self, values: Tuple[Any, ...], context: "Bsml") -> None:
        for index, value in enumerate(values):
            if _contains_vector(value):
                raise NestingViolation(
                    f"component {index} of a parallel vector contains a "
                    "parallel vector — nesting is not allowed (the BSP cost "
                    "model would stop being compositional, paper section 2.1)"
                )
        self._values = tuple(values)
        self._context = context

    @property
    def width(self) -> int:
        return len(self._values)

    def to_list(self) -> List[Any]:
        """Project to a Python list (an observation outside the language —
        convenient in examples and tests, like BSMLlib's ``proj``)."""
        return list(self._values)

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, proc: int) -> Any:
        return self._values[proc]

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParVector) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(value) for value in self._values)
        return f"<{inner}>"


def _contains_vector(value: Any) -> bool:
    if isinstance(value, ParVector):
        return True
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_contains_vector(item) for item in value)
    if isinstance(value, dict):
        return any(
            _contains_vector(k) or _contains_vector(v) for k, v in value.items()
        )
    return False


# -- per-process tasks for the machine's computation phases ------------------
#
# Module-level functions bound with ``functools.partial``.  Each returns
# ``(value, ops)``: one abstract op per component application, exactly
# what the primitives used to charge in-line.


def _call_task(fn: Callable[..., Any], *args: Any):
    return fn(*args), 1.0


def _sender_row_task(p: int, sender: Callable[[int], Any]):
    """Evaluate one sender's message function at every destination."""
    return [sender(i) for i in range(p)], float(p)


class Bsml:
    """A BSML programming context: the primitives bound to one machine.

    >>> ctx = Bsml(BspParams(p=4))
    >>> ctx.mkpar(lambda i: i * i).to_list()
    [0, 1, 4, 9]
    """

    def __init__(
        self,
        params: BspParams,
        machine: Optional[BspMachine] = None,
    ) -> None:
        """``machine`` defaults to a fresh one; pass a machine of your
        own (for instance one built with a test ``schedule``) to run the
        primitives there."""
        if machine is None:
            machine = BspMachine(params)
        self.params = params
        self.machine = machine
        if self.machine.p != params.p:
            raise VectorWidthError(
                f"machine width {self.machine.p} differs from p={params.p}"
            )

    # -- introspection -------------------------------------------------------

    @property
    def p(self) -> int:
        """The static number of processes (the paper's ``bsp_p()``)."""
        return self.params.p

    def cost(self) -> BspCost:
        """The BSP cost accumulated so far on this context's machine."""
        return self.machine.cost()

    def total_time(self) -> float:
        return self.cost().total(self.params)

    def reset_cost(self) -> None:
        self.machine.reset()

    # -- the four primitives ---------------------------------------------------

    def mkpar(self, f: Callable[[int], Any]) -> ParVector:
        """``mkpar f`` holds ``f(i)`` on process ``i`` (asynchronous).

        Runs as one machine task per process; the accounting — one op
        per component — does not depend on the order the tasks run in.
        """
        tasks = [partial(_call_task, f, i) for i in range(self.p)]
        return ParVector(tuple(self.machine.run_superstep(tasks)), self)

    def apply(self, functions: ParVector, arguments: ParVector) -> ParVector:
        """``apply fv xv`` applies component-wise (asynchronous, no barrier)."""
        self._own(functions)
        self._own(arguments)
        tasks = [
            partial(_call_task, functions[i], arguments[i]) for i in range(self.p)
        ]
        return ParVector(tuple(self.machine.run_superstep(tasks)), self)

    def put(self, senders: ParVector) -> ParVector:
        """``put fv``: global communication, ends the superstep.

        ``senders[j]`` maps each destination pid to the value to send, or
        :data:`NO_MESSAGE` for no message (``nc ()``).  The result holds,
        on each process ``i``, a function from source pid to the delivered
        value (or :data:`NO_MESSAGE`) — exactly the paper's semantics,
        with the h-relation and the barrier accounted on the machine.

        A transmitted ``None`` is a real one-word value, distinct from
        "no message".  Remote payloads are routed through the machine's
        mailboxes, so the exchange validates that every delivered value
        is accounted in the traffic matrix; self-sends stay local (the
        h-relation ignores the diagonal) and are delivered directly.
        """
        self._own(senders)
        p = self.p
        tasks = [partial(_sender_row_task, p, senders[j]) for j in range(p)]
        outgoing: List[List[Any]] = self.machine.run_superstep(tasks)
        sent = [[words_of(outgoing[j][i]) for i in range(p)] for j in range(p)]
        payloads = {
            (j, i): outgoing[j][i]
            for j in range(p)
            for i in range(p)
            if j != i and outgoing[j][i] is not NO_MESSAGE
        }
        self.machine.exchange(sent, payloads=payloads, label="put")
        deliveries = tuple(
            _Delivered(tuple(outgoing[j][i] for j in range(p))) for i in range(p)
        )
        return ParVector(deliveries, self)

    def at(self, booleans: ParVector, proc: int) -> bool:
        """``at bv n``: the boolean held at process ``n``, made global.

        Expresses a communication (a broadcast of one word from ``n``) and
        a synchronization phase; to be used as ``if ctx.at(bv, n): ...``
        like the paper's ``if ... at ... then ... else`` construct.
        """
        self._own(booleans)
        if not 0 <= proc < self.p:
            raise ValueError(f"process index {proc} out of range (p = {self.p})")
        value = booleans[proc]
        if not isinstance(value, bool):
            raise TypeError("'at' needs a parallel vector of booleans")
        sent = [[0] * self.p for _ in range(self.p)]
        for destination in range(self.p):
            if destination != proc:
                sent[proc][destination] = 1
        self.machine.exchange(sent, label="if-at")
        return value

    # -- helpers ---------------------------------------------------------------

    def vector(self, values: Iterable[Any]) -> ParVector:
        """Build a vector directly from ``p`` Python values (test helper)."""
        items = tuple(values)
        if len(items) != self.p:
            raise VectorWidthError(f"expected {self.p} values, got {len(items)}")
        return ParVector(items, self)

    def _own(self, vector: ParVector) -> None:
        if vector._context is not self:
            raise ForeignVectorError(
                "this parallel vector belongs to a different Bsml context"
            )
        if vector.width != self.p:
            raise VectorWidthError(
                f"vector width {vector.width} differs from p={self.p}"
            )


class _Delivered:
    """The function of delivered messages ``put`` leaves on a process.

    Sources that sent nothing — and out-of-range source pids — yield
    :data:`NO_MESSAGE`, never ``None``, so a transmitted ``None`` payload
    is observable as such.
    """

    __slots__ = ("_messages",)

    def __init__(self, messages: Tuple[Any, ...]) -> None:
        self._messages = messages

    def __call__(self, source: int) -> Any:
        if 0 <= source < len(self._messages):
            return self._messages[source]
        return NO_MESSAGE

    def __repr__(self) -> str:
        return f"<delivered {list(self._messages)!r}>"
