"""Tests for hash-consing of type/constraint nodes and the solver caches.

The performance layer must be *invisible* semantically: interned nodes
behave exactly like structurally-compared ones, and every memoized solver
function agrees with its uncached body on arbitrary inputs.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.constraints import (
    FALSE,
    TRUE,
    CAnd,
    CImp,
    CLoc,
    basic_constraint,
    conj,
    imp,
    is_satisfiable,
    is_satisfiable_branching,
    is_valid,
    locality,
    solve,
)
from repro.core.types import BOOL, INT, TArrow, TPair, TPar, TTuple, TVar
from repro.testing.generators import ProgramGenerator


class TestTypeInterning:
    def test_base_types_are_pooled(self):
        assert TArrow(INT, BOOL) is TArrow(INT, BOOL)
        assert TPair(INT, INT) is TPair(INT, INT)
        assert TPar(INT) is TPar(INT)
        assert TVar("a") is TVar("a")

    def test_distinct_structures_stay_distinct(self):
        assert TArrow(INT, BOOL) is not TArrow(BOOL, INT)
        assert TVar("a") is not TVar("b")

    def test_equality_still_structural(self):
        # Identity-based __eq__ coincides with structural equality because
        # every construction path yields the pooled representative.
        assert TArrow(TVar("a"), TPar(INT)) == TArrow(TVar("a"), TPar(INT))
        assert TArrow(INT, INT) != TArrow(INT, BOOL)

    def test_nested_interning(self):
        deep1 = TArrow(TPair(INT, TVar("x")), TPar(TVar("x")))
        deep2 = TArrow(TPair(INT, TVar("x")), TPar(TVar("x")))
        assert deep1 is deep2
        assert deep1.domain is deep2.domain

    def test_validation_still_runs(self):
        with pytest.raises(ValueError):
            TTuple((INT, BOOL))  # tuples need >= 3 components

    def test_usable_in_sets_and_dicts(self):
        pool = {TArrow(INT, INT), TArrow(INT, INT), TArrow(INT, BOOL)}
        assert len(pool) == 2


class TestInternRace:
    """Interning is atomic across threads: threads that build one
    structure at the same moment all get the same pooled object."""

    THREADS = 4
    NODES = 200
    ROUNDS = 300

    def test_concurrent_interning_mints_no_twins(self):
        barrier = threading.Barrier(self.THREADS)
        built = [[None] * self.NODES for _ in range(self.THREADS)]
        twins = 0

        def worker(slot, names):
            barrier.wait(timeout=30)
            out = built[slot]
            for index, name in enumerate(names):
                out[index] = TPair(TArrow(TVar(name), INT), INT)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(self.ROUNDS):
                # Fresh names every round: every construction is a miss,
                # so the threads race on the pool's insert path.
                names = [f"race{round_index}_{i}" for i in range(self.NODES)]
                threads = [
                    threading.Thread(target=worker, args=(slot, names))
                    for slot in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for index in range(self.NODES):
                    nodes = [built[slot][index] for slot in range(self.THREADS)]
                    for level in (
                        nodes,
                        [node.first for node in nodes],
                        [node.first.domain for node in nodes],
                    ):
                        twins += len({id(node) for node in level}) - 1
        finally:
            sys.setswitchinterval(previous)
        assert twins == 0


class TestConstraintInterning:
    def test_atoms_are_pooled(self):
        assert CLoc("a") is CLoc("a")
        assert CLoc("a") is not CLoc("b")

    def test_compounds_are_pooled(self):
        left = conj(CLoc("a"), CLoc("b"))
        right = conj(CLoc("b"), CLoc("a"))
        assert left is right  # conj builds the same frozenset
        assert imp(CLoc("a"), FALSE) is imp(CLoc("a"), FALSE)

    def test_singletons(self):
        from repro.core.constraints import CFalse, CTrue

        assert CTrue() is TRUE
        assert CFalse() is FALSE

    def test_validation_still_runs(self):
        with pytest.raises(ValueError):
            CAnd(frozenset({CLoc("a")}))  # needs >= 2 conjuncts


def _constraint_corpus(seed: int, count: int = 40):
    """Generated constraints exercising atoms, conjunction, implication."""
    generator = ProgramGenerator(seed=seed)
    constraints = []
    for index in range(count):
        ty = generator.random_type(parallel=True)
        atom = locality(ty)
        other = locality(generator.random_type(parallel=index % 2 == 0))
        constraints.extend(
            [
                atom,
                basic_constraint(ty),
                conj(atom, other),
                imp(atom, other),
                imp(conj(atom, other), basic_constraint(ty)),
            ]
        )
    return constraints


class TestCachedSolverAgreement:
    """Memoized solver functions must agree with their uncached bodies."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solve_agrees_with_uncached(self, seed):
        for constraint in _constraint_corpus(seed):
            assert solve(constraint) == solve.__wrapped__(constraint)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_satisfiability_agrees_with_branching_reference(self, seed):
        for constraint in _constraint_corpus(seed):
            assert is_satisfiable(constraint) == is_satisfiable_branching(
                constraint
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_is_valid_agrees_with_uncached(self, seed):
        for constraint in _constraint_corpus(seed):
            assert is_valid(constraint) == is_valid.__wrapped__(constraint)

    def test_repeated_calls_hit_the_cache(self):
        from repro import perf

        constraint = imp(CLoc("cache_probe"), conj(CLoc("x"), CLoc("y")))
        solve(constraint)  # prime
        with perf.collect() as stats:
            for _ in range(5):
                solve(constraint)
        assert stats.hit_rate("constraints.solve") == 1.0
