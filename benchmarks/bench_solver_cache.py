"""Guard — the solver memoization layer must actually pay for itself.

The PR that introduced hash-consed type/constraint nodes and the
``lru_cache`` layer over ``solve``/``is_satisfiable``/``is_valid``/
``locality``/``basic_constraint`` claims a >= 2x cold-vs-warm speedup on
solver-heavy workloads.  This bench regenerates that number and *asserts*
it, so a regression (e.g. accidentally keying a cache on un-interned
nodes) fails ``pytest benchmarks/`` instead of silently rotting.

Workload: a mixed corpus of generated constraints (atoms, conjunctions,
implication chains over the locality of random mini-BSML types) solved
repeatedly — the shape ``infer`` produces at instantiation points, where
the same interned constraints recur across let-bound uses.
"""

from __future__ import annotations

import time

from repro import perf
from repro.core.constraints import (
    FALSE,
    CLoc,
    basic_constraint,
    conj,
    imp,
    is_satisfiable,
    is_valid,
    locality,
    solve,
)
from repro.testing.generators import ProgramGenerator

from _util import write_table

#: Passes over the corpus per timing; the first pass after clear_caches()
#: is the cold one, later passes are pure cache hits.
WARM_PASSES = 20

#: Length of the implication chains in the corpus.  Deep enough that the
#: cold pass is dominated by actual solving rather than call overhead —
#: with shallow chains the guard sat within timer noise of 2x, and a
#: memoized ``simplify`` pass (since deleted; it sped the *cold* side up
#: via intra-pass sharing) pushed it under.
CHAIN_LENGTH = 40


def _corpus(seed: int = 7, count: int = 60):
    generator = ProgramGenerator(seed=seed)
    constraints = []
    for index in range(count):
        ty = generator.random_type(parallel=True)
        atom = locality(ty)
        other = locality(generator.random_type(parallel=index % 2 == 0))
        chain = conj(
            *[
                imp(CLoc(f"c{seed}_{i}"), CLoc(f"c{seed}_{i+1}"))
                for i in range(CHAIN_LENGTH)
            ]
        )
        constraints.extend(
            [
                atom,
                basic_constraint(ty),
                conj(atom, other),
                imp(conj(atom, other), basic_constraint(ty)),
                conj(
                    chain,
                    imp(CLoc(f"c{seed}_{CHAIN_LENGTH}"), FALSE),
                    CLoc(f"c{seed}_0"),
                ),
            ]
        )
    return constraints


def _solve_all(constraints) -> None:
    for constraint in constraints:
        solve(constraint)
        is_satisfiable(constraint)
        is_valid(constraint)


def test_warm_cache_at_least_twice_as_fast(benchmark):
    constraints = _corpus()

    perf.clear_caches()
    start = time.perf_counter()
    _solve_all(constraints)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(WARM_PASSES):
        _solve_all(constraints)
    warm = (time.perf_counter() - start) / WARM_PASSES

    with perf.collect() as stats:
        _solve_all(constraints)
    hit_rate = stats.hit_rate("constraints.solve")

    write_table(
        "solver_cache_guard",
        "Guard — solver memoization: cold vs warm pass over the "
        f"constraint corpus ({len(constraints)} constraints)",
        ("pass", "time (ms)", "speedup", "solve hit rate"),
        [
            ("cold", f"{cold * 1e3:.2f}", "1.0x", "-"),
            (
                "warm",
                f"{warm * 1e3:.2f}",
                f"{cold / warm:.1f}x",
                f"{hit_rate:.1%}",
            ),
        ],
        footer="Invalidation-free by construction: caches are keyed on "
        "hash-consed immutable nodes.  The guard requires >= 2x.",
    )

    assert hit_rate == 1.0, "warm pass must be served entirely from cache"
    assert cold >= 2 * warm, (
        f"memoization guard: cold {cold * 1e3:.2f} ms vs warm "
        f"{warm * 1e3:.2f} ms is below the required 2x speedup"
    )

    benchmark(lambda: _solve_all(constraints))
