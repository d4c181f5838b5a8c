"""BSP cost objects: per-superstep records and program totals.

The execution time of a BSP program of ``S`` supersteps is the sum of
three terms (section 2)::

    W + H * g + S * l
    W = sum_s max_i w_i(s)        (computation)
    H = sum_s max_i h_i(s)        (communication)

:class:`SuperstepCost` captures one superstep, :class:`BspCost` the whole
program; both know how to evaluate themselves against a
:class:`~repro.bsp.params.BspParams` and to render a trace table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bsp.network import HRelation
from repro.bsp.params import BspParams


@dataclass(frozen=True)
class SuperstepCost:
    """One superstep: per-process work and the realized h-relation.

    ``synchronized`` is False only for a trailing purely-local phase after
    the last barrier, which contributes computation time but neither
    communication nor an ``l`` term.

    ``measured`` optionally carries per-process wall-clock seconds of the
    computation phases (:meth:`~repro.bsp.machine.BspMachine.run_superstep`).
    It is excluded from equality and hashing (``compare=False``): the
    abstract cost decomposition is deterministic and schedule-independent,
    and the differential conformance harness relies on comparing it
    bit-for-bit across schedules, while measured time naturally varies.
    """

    work: Tuple[float, ...]
    relation: Optional[HRelation] = None
    synchronized: bool = True
    label: str = ""
    measured: Optional[Tuple[float, ...]] = field(default=None, compare=False)

    @property
    def w_max(self) -> float:
        return max(self.work, default=0.0)

    @property
    def measured_max(self) -> float:
        """Slowest process's measured compute seconds (0.0 if unmeasured)."""
        return max(self.measured, default=0.0) if self.measured else 0.0

    @property
    def h(self) -> int:
        return self.relation.h if self.relation is not None else 0

    def time(self, params: BspParams) -> float:
        if not self.synchronized:
            return self.w_max
        return params.superstep_time(self.w_max, self.h)


@dataclass
class BspCost:
    """The cost of a whole program: a sequence of superstep records."""

    p: int
    supersteps: List[SuperstepCost] = field(default_factory=list)

    @property
    def W(self) -> float:
        """Total computation: ``sum_s max_i w_i``."""
        return sum(step.w_max for step in self.supersteps)

    @property
    def H(self) -> int:
        """Total communication arity: ``sum_s max_i h_i``."""
        return sum(step.h for step in self.supersteps)

    @property
    def S(self) -> int:
        """Number of synchronized supersteps (barriers executed)."""
        return sum(1 for step in self.supersteps if step.synchronized)

    @property
    def measured_seconds(self) -> float:
        """Total measured wall-clock compute, BSP-style: the sum over
        supersteps of the slowest process's seconds (the wall-clock
        analogue of ``W``; 0.0 when nothing was measured)."""
        return sum(step.measured_max for step in self.supersteps)

    def total(self, params: BspParams) -> float:
        """``W + H*g + S*l`` (equal to the sum of superstep times)."""
        return self.W + self.H * params.g + self.S * params.l

    def check_decomposition(self, params: BspParams) -> bool:
        """Consistency: summing per-superstep times equals the formula.

        The two sums associate floating-point additions differently, so
        the comparison must be *relative*: an absolute ``1e-9`` tolerance
        spuriously fails once ``W``/``H`` totals grow past ~1e7, where a
        single rounding step already exceeds it.
        """
        by_steps = sum(step.time(params) for step in self.supersteps)
        return math.isclose(by_steps, self.total(params), rel_tol=1e-9, abs_tol=1e-9)

    def render(self, params: Optional[BspParams] = None) -> str:
        """A human-readable superstep table.

        When any superstep carries measured wall-clock timings
        (``SuperstepCost.measured``) a ``measured ms`` column appears
        next to the modelled ``max w``, so modelled versus measured cost
        is visible per superstep without a full trace.
        """
        lines = [f"BSP cost over p={self.p} processes:"]
        measured = any(step.measured for step in self.supersteps)
        header = f"  {'step':>4}  {'max w':>10}  {'h':>8}  {'sync':>5}"
        if measured:
            header += f"  {'measured ms':>12}"
        lines.append(header + "  label")
        for number, step in enumerate(self.supersteps):
            row = (
                f"  {number:>4}  {step.w_max:>10.1f}  {step.h:>8}"
                f"  {'yes' if step.synchronized else 'no':>5}"
            )
            if measured:
                shown = (
                    f"{step.measured_max * 1e3:.3f}" if step.measured else "-"
                )
                row += f"  {shown:>12}"
            lines.append(row + f"  {step.label}")
        lines.append(f"  W = {self.W:.1f}, H = {self.H}, S = {self.S}")
        if self.measured_seconds:
            lines.append(
                f"  measured compute = {self.measured_seconds * 1e3:.2f} ms "
                "(wall clock, max over processes per superstep)"
            )
        if params is not None:
            lines.append(
                f"  total = W + H*g + S*l = {self.total(params):.1f}"
                f"  ({params.describe()})"
            )
        return "\n".join(lines)
