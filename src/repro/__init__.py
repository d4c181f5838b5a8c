"""Reproduction of *A Polymorphic Type System for Bulk Synchronous
Parallel ML* (Gava & Loulergue, 2003).

The package is organized around the paper's pieces:

* :mod:`repro.lang` — mini-BSML: AST, parser, printer, prelude (Figure 3);
* :mod:`repro.semantics` — the small-step dynamic semantics (Figures 1,
  2, 4, 5), a fast big-step evaluator, and costed execution;
* :mod:`repro.core` — **the contribution**: the locality-constrained
  polymorphic type system (section 4, Figures 6-10) with inference,
  derivation rendering and a classic-Milner baseline;
* :mod:`repro.bsp` — a BSP machine simulator with the ``W + H*g + S*l``
  cost model (section 2);
* :mod:`repro.bsml` — BSMLlib for Python on top of the simulator.

Quickstart::

    >>> from repro import typecheck, run_program
    >>> print(typecheck("bcast"))                    # prelude names work
    [int -> 'a par -> 'a par / L('a)]
    >>> result = run_program("bcast 2 (mkpar (fun i -> i * i))", p=4)
    >>> result.python_value
    [4, 4, 4, 4]
"""

from __future__ import annotations

from typing import Union

from repro.bsp import (
    BspCost,
    BspMachine,
    BspParams,
    FaultPlan,
    RetryPolicy,
    SuperstepFault,
    parse_fault_spec,
)
from repro.core import (
    ConstrainedType,
    NestingError,
    TypeScheme,
    TypingError,
    explain,
    infer,
    infer_scheme,
    milner_infer,
    typechecks,
)
from repro.core.prelude_env import prelude_env
from repro.lang import Expr, parse_expression, parse_program, pretty, with_prelude
from repro.semantics import CostedResult, run_costed

__version__ = "1.0.0"


def _to_expr(program: Union[str, Expr]) -> Expr:
    return parse_program(program) if isinstance(program, str) else program


def typecheck(
    program: Union[str, Expr],
    use_prelude: bool = True,
) -> ConstrainedType:
    """Parse (if needed) and infer the constrained type of a program.

    With ``use_prelude=True`` the prelude's schemes are available as a
    library environment (``bcast``, ``scan``, ...).  Raises
    :class:`repro.core.NestingError` (a :class:`TypingError`) when the
    locality constraints reject the program.
    """
    env = prelude_env() if use_prelude else None
    return infer(_to_expr(program), env)


def typecheck_scheme(
    program: Union[str, Expr],
    use_prelude: bool = True,
) -> TypeScheme:
    """Like :func:`typecheck` but generalized to a type scheme."""
    env = prelude_env() if use_prelude else None
    return infer_scheme(_to_expr(program), env)


def run_program(
    program: Union[str, Expr],
    p: int = 4,
    g: float = 1.0,
    l: float = 20.0,
    use_prelude: bool = True,
    typed: bool = True,
    backend: str = "seq",
    faults=None,
    retry=None,
) -> CostedResult:
    """Typecheck (unless ``typed=False``) and run a program with costs.

    ``backend`` picks the execution backend (``seq``, ``thread``,
    ``process``) for the per-process computation phases; the value and
    the abstract cost are backend-independent.

    ``faults``/``retry`` optionally arm a deterministic
    :class:`repro.bsp.FaultPlan` and :class:`repro.bsp.RetryPolicy`:
    supersteps run transactionally, transient faults are retried with
    backoff, and a survivable fault schedule changes nothing observable.

    Returns a :class:`repro.semantics.CostedResult`: the value, the
    superstep-by-superstep BSP cost, and the totals under ``(p, g, l)``.
    """
    expr = _to_expr(program)
    if typed:
        typecheck(expr, use_prelude=use_prelude)
    runnable = with_prelude(expr) if use_prelude else expr
    return run_costed(
        runnable,
        BspParams(p=p, g=g, l=l),
        backend=backend,
        faults=faults,
        retry=retry,
    )


__all__ = [
    "BspCost",
    "BspMachine",
    "BspParams",
    "ConstrainedType",
    "CostedResult",
    "FaultPlan",
    "NestingError",
    "RetryPolicy",
    "SuperstepFault",
    "TypeScheme",
    "TypingError",
    "__version__",
    "explain",
    "infer",
    "infer_scheme",
    "milner_infer",
    "parse_expression",
    "parse_fault_spec",
    "parse_program",
    "prelude_env",
    "pretty",
    "run_costed",
    "run_program",
    "typecheck",
    "typecheck_scheme",
    "typechecks",
    "with_prelude",
]
