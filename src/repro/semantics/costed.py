"""Costed execution: run a mini-BSML program and get its BSP cost.

This glues the big-step evaluator to the BSP machine simulator: the
returned :class:`CostedResult` carries the value, the superstep-by-
superstep :class:`~repro.bsp.cost.BspCost`, and the totals under the given
:class:`~repro.bsp.params.BspParams` — everything the cost-model
experiments (formula (1) and the broadcast ablation) measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.bsp.cost import BspCost
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams
from repro.lang.ast import Expr
from repro.lang.limits import deep_recursion
from repro.lang.parser import parse_program
from repro.lang.prelude import with_prelude
from repro.semantics.compiled import get_engine
from repro.semantics.values import Value, to_python


@dataclass
class CostedResult:
    """A value together with the BSP cost of computing it."""

    value: Value
    cost: BspCost
    params: BspParams

    @property
    def total_time(self) -> float:
        return self.cost.total(self.params)

    @property
    def python_value(self):
        # Value-to-Python conversion recurses over the value structure.
        with deep_recursion():
            return to_python(self.value)

    def render(self) -> str:
        return self.cost.render(self.params)


def run_costed(
    expr: Expr,
    params: BspParams,
    use_prelude: bool = False,
    backend: str = "seq",
    engine: str = "compiled",
) -> CostedResult:
    """Evaluate ``expr`` at size ``params.p`` with full cost accounting.

    ``backend`` must be ``"seq"``: every computation phase runs on the
    calling thread, and the keyword stays only for callers that still
    pass it.

    ``engine`` selects the evaluation engine: ``compiled`` (the
    closure-compiling engine of :mod:`repro.semantics.compiled`, the
    product default) or ``tree`` (the environment-passing big-step
    evaluator, kept as the cost oracle).  Values, costs, and trace
    signatures are engine-independent by construction — the engine axis
    of :func:`repro.testing.conform` enforces it.

    Wrapped in :func:`deep_recursion` like the other evaluator entry
    points: prelude linking and evaluation both recurse over the AST, and
    a deep ``let`` tower is a legitimate program.
    """
    if backend != "seq":
        raise ValueError(f"unknown backend {backend!r} (the only backend is 'seq')")
    machine = BspMachine(params)
    evaluator_cls = get_engine(engine)
    with deep_recursion():
        program = with_prelude(expr) if use_prelude else expr
        value = evaluator_cls(params.p, machine).eval(program)
    return CostedResult(value, machine.cost(), params)


def run_source(
    source: str,
    params: BspParams,
    use_prelude: bool = True,
    filename: str = "<input>",
    engine: str = "compiled",
) -> CostedResult:
    """Parse a program (definitions + final expression) and run it costed."""
    return run_costed(
        parse_program(source, filename), params, use_prelude, engine=engine
    )
