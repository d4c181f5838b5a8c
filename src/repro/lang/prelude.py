"""The mini-BSML prelude: derived functions written in mini-BSML itself.

The paper builds ``replicate`` and ``bcast`` from the four primitives
(section 2.1); this module collects those and the other classic BSMLlib
derived operations (``parfun``, ``shift``, total exchange, scan, fold),
all expressed in the object language.  Loading a program "with prelude"
wraps it in the corresponding ``let`` chain, so the prelude is typechecked
by the paper's type system and executed by the paper's semantics like any
user code.

The prelude is parsed once per process, on first use, and every caller
shares that one parse.  Sharing is safe because AST nodes are frozen;
their only side channels (source locations and the idempotent
free-variable cache) never change what a term means, so wrapped terms,
digests and costs are the same as with a fresh parse.

The paper's ``bcast`` has BSP cost ``p + (p-1)*s*g + l`` (formula (1));
the benchmark ``benchmarks/bench_formula1_bcast_cost.py`` checks the
simulator reproduces that shape for the ``bcast`` defined here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.lang.ast import Expr, Let
from repro.lang.parser import parse_definitions

#: Each entry is (name, mini-BSML source for the body).
PRELUDE_DEFINITIONS: Tuple[Tuple[str, str], ...] = (
    ("id", "fun x -> x"),
    ("konst", "fun k -> fun x -> k"),
    ("compose", "fun f -> fun g -> fun x -> f (g x)"),
    # -- purely parallel helpers -----------------------------------------
    ("replicate", "fun x -> mkpar (fun pid -> x)"),
    ("parfun", "fun f -> fun v -> apply (replicate f, v)"),
    (
        "parfun2",
        "fun f -> fun v -> fun w -> apply (apply (replicate f, v), w)",
    ),
    (
        "applyat",
        "fun n -> fun f1 -> fun f2 -> fun v ->\n"
        "  apply (mkpar (fun i -> if i = n then f1 else f2), v)",
    ),
    # -- communication patterns ------------------------------------------
    # Broadcast from process n (paper section 2.1, cost formula (1)).
    (
        "bcast",
        "fun n -> fun vec ->\n"
        "  let tosend = apply (mkpar (fun i -> fun v -> fun dst ->\n"
        "                               if i = n then v else nc ()), vec) in\n"
        "  let recv = put tosend in\n"
        "  parfun (fun f -> f n) recv",
    ),
    # Cyclic shift by d: process i receives the value of process (i - d).
    (
        "shift",
        "fun d -> fun vec ->\n"
        "  let tosend = apply (mkpar (fun i -> fun v -> fun dst ->\n"
        "                               if dst = ((i + d) mod nproc) then v\n"
        "                               else nc ()), vec) in\n"
        "  apply (mkpar (fun i -> fun f ->\n"
        "                   f ((i + nproc - (d mod nproc)) mod nproc)),\n"
        "         put tosend)",
    ),
    # Total exchange: afterwards every process can read every component.
    (
        "totex",
        "fun vec -> put (apply (mkpar (fun i -> fun v -> fun dst -> v), vec))",
    ),
    # Reduction of the whole vector, result replicated everywhere.
    # One total exchange (h = p*s) then a local fold: 1 superstep.
    (
        "fold",
        "fun op -> fun vec ->\n"
        "  let recv = totex vec in\n"
        "  parfun (fun f ->\n"
        "           (fix (fun loop -> fun j -> fun acc ->\n"
        "                   if j = nproc then acc\n"
        "                   else loop (j + 1) (op (acc, f j))))\n"
        "             1 (f 0))\n"
        "         recv",
    ),
    # The vector of process identifiers (BSMLlib's ``this``).
    ("procs", "mkpar (fun pid -> pid)"),
    # Read one component everywhere (a named broadcast).
    ("get", "fun n -> fun vec -> bcast n vec"),
    ("first", "fun vec -> bcast 0 vec"),
    ("last", "fun vec -> bcast (nproc - 1) vec"),
    # Gather every component at process root: the delivered function
    # there maps each pid to its value (nc () elsewhere).
    (
        "gather",
        "fun root -> fun vec ->\n"
        "  put (apply (mkpar (fun i -> fun v -> fun dst ->\n"
        "                       if dst = root then v else nc ()), vec))",
    ),
    # Inclusive parallel prefix, log2(p) supersteps (Hillis-Steele).
    (
        "scan",
        "fun op -> fun vec ->\n"
        "  (fix (fun loop -> fun s -> fun v ->\n"
        "          if nproc <= s then v\n"
        "          else\n"
        "            let recv = put (apply (mkpar (fun i -> fun x -> fun dst ->\n"
        "                                            if dst = i + s then x\n"
        "                                            else nc ()), v)) in\n"
        "            loop (2 * s)\n"
        "                 (apply (apply (mkpar (fun i -> fun f -> fun x ->\n"
        "                                         if s <= i then op (f (i - s), x)\n"
        "                                         else x), recv), v))))\n"
        "    1 vec",
    ),
    # Exclusive prefix: shift the inclusive scan right and seed with e.
    (
        "scanex",
        "fun op -> fun e -> fun vec ->\n"
        "  apply (mkpar (fun i -> fun x -> if i = 0 then e else x),\n"
        "         shift 1 (scan op vec))",
    ),
)

#: The whole prelude as one source file of top-level definitions.
PRELUDE_SOURCE: str = "\n".join(
    f"let {name} = {body}" for name, body in PRELUDE_DEFINITIONS
)


@lru_cache(maxsize=1)
def _parsed() -> Tuple[Tuple[str, Expr], ...]:
    """The one shared parse of :data:`PRELUDE_SOURCE`."""
    return tuple(parse_definitions(PRELUDE_SOURCE, filename="<prelude>"))


def prelude_asts() -> List[Tuple[str, Expr]]:
    """The prelude as (name, body) pairs, in dependency order.

    A new list per call over the shared parse, so a caller may mutate it.
    """
    return list(_parsed())


def prelude_map() -> Dict[str, Expr]:
    """The prelude as a name -> body mapping (a new dict per call)."""
    return dict(_parsed())


def needed_definitions(expr: Expr) -> List[Tuple[str, Expr]]:
    """The prelude definitions ``expr`` uses, transitively, in order.

    Starting from the free variables of ``expr``, walks backwards through
    the prelude adding each referenced definition and the definitions its
    body references in turn.
    """
    from repro.lang.substitution import free_vars

    needed = set(free_vars(expr))
    keep = []
    for name, body in reversed(_parsed()):
        if name in needed:
            keep.append((name, body))
            needed |= free_vars(body)
    keep.reverse()
    return keep


def with_prelude(expr: Expr, only: Tuple[str, ...] | None = None) -> Expr:
    """Wrap ``expr`` in ``let`` bindings for the prelude definitions it uses.

    Only the definitions ``expr`` (transitively) references are included —
    both for evaluation speed and for typing fidelity: the paper's (Let)
    rule adds ``L(tau_body) => L(tau_bound)``, so let-binding an *unused*
    global-typed helper (say ``replicate : ['a -> 'a par / L('a)]``, whose
    locality is False) around a local-typed program would reject it.  A
    real library lives in the typing environment instead (see
    :func:`repro.core.prelude_env.prelude_env`); this wrapper exists to
    give prelude-using programs a self-contained term to *evaluate*.

    ``only`` forces the inclusion of the named definitions (plus their
    dependencies) even if ``expr`` does not mention them.
    """
    from repro.lang.ast import Var
    from repro.lang.substitution import free_vars

    roots: Expr = expr
    if only is not None:
        known = {name for name, _ in PRELUDE_DEFINITIONS}
        unknown = set(only) - known
        if unknown:
            raise KeyError(f"unknown prelude definitions: {sorted(unknown)}")
        # A throwaway term whose free variables are expr's plus ``only``.
        roots = expr
        for name in only:
            roots = Let("_force", Var(name), roots)
    result = expr
    for name, bound in reversed(needed_definitions(roots)):
        result = Let(name, bound, result)
    return result
