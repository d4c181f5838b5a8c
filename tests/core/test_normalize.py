"""Tests for constraint pruning (Davis-Putnam existential elimination).

The key property: pruning is an *exact projection* — for every assignment
of the observable atoms, the pruned constraint is satisfiable exactly when
the original constraint (extended over the hidden atoms) is.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.constraints import (
    FALSE,
    TRUE,
    CLoc,
    conj,
    constraint_atoms,
    evaluate,
    imp,
    is_satisfiable,
)
from repro.core.normalize import (
    eliminate_variable,
    propagate_facts,
    prune_constrained,
    prune_constraint,
)
from repro.core.schemes import ConstrainedType
from repro.core.types import INT, TVar


class TestEliminateVariable:
    def test_resolution(self):
        # (a => h) and (h => goal-False): eliminating h gives (a => False).
        clauses = [(frozenset({"a"}), "h"), (frozenset({"h"}), None)]
        result = eliminate_variable(clauses, "h")
        assert result == [(frozenset({"a"}), None)]

    def test_fact_propagates(self):
        clauses = [(frozenset(), "h"), (frozenset({"h"}), "b")]
        result = eliminate_variable(clauses, "h")
        assert result == [(frozenset(), "b")]

    def test_unrelated_clauses_survive(self):
        clauses = [(frozenset({"a"}), "b"), (frozenset(), "h")]
        result = eliminate_variable(clauses, "h")
        assert (frozenset({"a"}), "b") in result


class TestPropagateFacts:
    def test_entailed_clause_dropped(self):
        clauses = [(frozenset(), "a"), (frozenset(), "b"), (frozenset({"a"}), "b")]
        result = propagate_facts(clauses)
        assert (frozenset({"a"}), "b") not in result
        assert (frozenset(), "a") in result

    def test_unconditional_goal_is_unsat(self):
        clauses = [(frozenset(), "a"), (frozenset({"a"}), None)]
        assert propagate_facts(clauses) is None

    def test_antecedent_facts_removed(self):
        clauses = [(frozenset(), "a"), (frozenset({"a", "b"}), None)]
        result = propagate_facts(clauses)
        assert (frozenset({"b"}), None) in result


class TestPruneConstraint:
    def test_no_hidden_vars_is_identity_modulo_facts(self):
        constraint = conj(CLoc("a"), CLoc("b"))
        assert prune_constraint(constraint, {"a", "b"}) == constraint

    def test_dead_implication_disappears(self):
        # The paper's example: [int / L(a) => L(b)] with both vars dead.
        constraint = imp(CLoc("a"), CLoc("b"))
        assert prune_constraint(constraint, set()) == TRUE

    def test_chain_through_hidden_var(self):
        # L(a) => L(h), L(h) => L(b): eliminating h keeps L(a) => L(b).
        constraint = conj(imp(CLoc("a"), CLoc("h")), imp(CLoc("h"), CLoc("b")))
        result = prune_constraint(constraint, {"a", "b"})
        assert result == imp(CLoc("a"), CLoc("b"))

    def test_hidden_contradiction_stays_false(self):
        constraint = conj(CLoc("h"), imp(CLoc("h"), FALSE))
        assert prune_constraint(constraint, {"a"}) == FALSE

    def test_hidden_goal_projects(self):
        # L(a) => L(h), L(h) => False  ===  L(a) => False
        constraint = conj(imp(CLoc("a"), CLoc("h")), imp(CLoc("h"), FALSE))
        result = prune_constraint(constraint, {"a"})
        assert result == imp(CLoc("a"), FALSE)

    def test_entailed_implication_removed(self):
        constraint = conj(CLoc("a"), CLoc("b"), imp(CLoc("b"), CLoc("a")))
        assert prune_constraint(constraint, {"a", "b"}) == conj(CLoc("a"), CLoc("b"))


class TestPruneConstrained:
    def test_keeps_type_variables(self):
        ct = ConstrainedType(TVar("a"), conj(CLoc("a"), CLoc("dead")))
        result = prune_constrained(ct)
        assert result.constraint == CLoc("a")

    def test_extra_observable(self):
        ct = ConstrainedType(INT, CLoc("envvar"))
        result = prune_constrained(ct, extra_observable={"envvar"})
        assert result.constraint == CLoc("envvar")

    @pytest.mark.parametrize("ty", [INT, TVar("a")])
    def test_true_constraint_returns_its_input(self, ty):
        ct = ConstrainedType(ty, TRUE)
        assert prune_constrained(ct) is ct
        assert prune_constrained(ct, extra_observable={"envvar"}) is ct
        # the shortcut agrees with the clause path it skips
        assert prune_constraint(TRUE, {"a", "envvar"}) is TRUE


# -- the projection property, exhaustively over small random constraints ----

_atoms = st.sampled_from(["a", "b", "h1", "h2"])
_sides = st.lists(_atoms, min_size=0, max_size=2).map(
    lambda names: conj(*[CLoc(n) for n in names])
)
_clauses = st.one_of(
    _atoms.map(CLoc),
    st.tuples(_sides, st.one_of(_sides, st.just(FALSE))).map(
        lambda pair: imp(pair[0], pair[1])
    ),
)
_constraints = st.lists(_clauses, min_size=0, max_size=5).map(lambda cs: conj(*cs))


@given(_constraints)
def test_projection_is_exact(constraint):
    observable = {"a", "b"}
    pruned = prune_constraint(constraint, observable)
    hidden = sorted(constraint_atoms(constraint) - observable)
    # For every assignment of the observable atoms, satisfiability must
    # agree between `exists hidden. C` and the pruned constraint.
    for mask in range(4):
        assignment = {"a": bool(mask & 1), "b": bool(mask & 2)}
        original_sat = False
        for hidden_mask in range(1 << len(hidden)):
            full = dict(assignment)
            full.update(
                {h: bool(hidden_mask >> i & 1) for i, h in enumerate(hidden)}
            )
            full.setdefault("a", False)
            if evaluate(constraint, full):
                original_sat = True
                break
        pruned_assignment = {
            atom: assignment.get(atom, False)
            for atom in constraint_atoms(pruned) | {"a", "b"}
        }
        assert evaluate_or_ground(pruned, pruned_assignment) == original_sat


def evaluate_or_ground(constraint, assignment):
    if constraint == TRUE:
        return True
    if constraint == FALSE:
        return False
    return evaluate(constraint, assignment)


@given(_constraints)
def test_pruning_preserves_satisfiability(constraint):
    pruned = prune_constraint(constraint, {"a", "b"})
    assert is_satisfiable(constraint) == is_satisfiable(pruned)
