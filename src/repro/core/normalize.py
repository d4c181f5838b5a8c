"""Constraint pruning: existential elimination of unobservable variables.

The paper's rules faithfully accumulate the constraints of every
sub-expression, so a judgement's constraint keeps atoms over variables
that no longer occur in the type or the environment (the paper's own
example: ``let f = (fun a -> fun b -> a) in 1`` has type
``[int / L(a) => L(b)]``).  Those variables can never be instantiated
again — no future substitution reaches them — so for every question the
system ever asks (satisfiability now or after substituting the observable
variables) they are existentially quantified.

This module eliminates them *exactly* using Davis–Putnam resolution on the
Horn-clause form of the constraint: eliminating ``v`` replaces all clauses
mentioning ``v`` by all resolvents of a ``v``-headed clause with a clause
containing ``v`` in its antecedent.  DP elimination preserves the
projection of the satisfying assignments onto the remaining variables, so
pruned constraints accept and reject exactly the same instantiations of
the observable variables as the originals (property-tested in
``tests/core/test_normalize.py``).

Pruning is optional; :func:`repro.core.infer.infer` enables it at ``let``
boundaries by default to keep constraints linear in practice, while the
derivation-rendering entry point leaves constraints untouched to match
the paper's figures.  Most judgments reaching a ``let`` carry the
constraint ``TRUE``, which has nothing to eliminate:
:func:`prune_constrained` hands those back as they are, without the
clause conversion, fact propagation and rebuild that would also end in
``TRUE``.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, List, Optional, Tuple

from repro.core.constraints import (
    FALSE,
    TRUE,
    CLoc,
    Constraint,
    _horn_clauses,
    conj,
    conj_all,
    constraint_atoms,
    imp,
)
from repro.core.schemes import ConstrainedType
from repro.core.types import free_type_vars

#: A Horn clause: antecedent atoms and a single head atom (None = False).
Clause = Tuple[FrozenSet[str], Optional[str]]


def _to_clauses(constraint: Constraint) -> Optional[List[Clause]]:
    """Split a constraint into single-headed Horn clauses, or None."""
    grouped = _horn_clauses(constraint)
    if grouped is None:
        return None
    clauses: List[Clause] = []
    for antecedent, consequent in grouped:
        if consequent is None:
            clauses.append((antecedent, None))
        else:
            for head in consequent:
                if head not in antecedent:  # drop tautologies A /\ h => h
                    clauses.append((antecedent, head))
    return clauses


def _from_clauses(clauses: List[Clause]) -> Constraint:
    """Rebuild a constraint from single-headed Horn clauses."""
    parts: List[Constraint] = []
    for antecedent, head in clauses:
        body = conj_all(CLoc(var) for var in sorted(antecedent))
        head_constraint = FALSE if head is None else CLoc(head)
        parts.append(imp(body, head_constraint))
    return conj(*parts)


def _subsumes(stronger: Clause, weaker: Clause) -> bool:
    """True when ``stronger`` logically implies ``weaker``.

    ``(A => h)`` subsumes ``(B => h)`` whenever ``A`` is a subset of ``B``;
    a goal clause ``(A => False)`` also subsumes any ``(B => h)`` with
    ``A`` a subset of ``B``.
    """
    s_ante, s_head = stronger
    w_ante, w_head = weaker
    if not s_ante <= w_ante:
        return False
    return s_head is None or s_head == w_head


def _dedupe(clauses: List[Clause]) -> List[Clause]:
    unique = sorted(set(clauses), key=lambda c: (len(c[0]), sorted(c[0]), c[1] or ""))
    kept: List[Clause] = []
    for clause in unique:
        if not any(_subsumes(other, clause) for other in kept):
            kept.append(clause)
    return kept


def eliminate_variable(clauses: List[Clause], var: str) -> List[Clause]:
    """Davis–Putnam elimination of ``var`` from a Horn clause set."""
    positive = [c for c in clauses if c[1] == var]  # var in the head
    negative = [c for c in clauses if var in c[0]]  # var in the antecedent
    rest = [c for c in clauses if c[1] != var and var not in c[0]]
    for pos_ante, _ in positive:
        for neg_ante, neg_head in negative:
            antecedent = frozenset((neg_ante - {var}) | pos_ante)
            if neg_head is not None and neg_head in antecedent:
                continue  # tautology
            rest.append((antecedent, neg_head))
    return _dedupe(rest)


def propagate_facts(clauses: List[Clause]) -> Optional[List[Clause]]:
    """Simplify a clause set modulo its own unconditional facts.

    Computes the least model of the facts, then (a) drops definite clauses
    whose head is already a fact, (b) removes facts from antecedents, and
    (c) detects outright unsatisfiability (a goal clause whose antecedent
    is all facts), returning None in that case.  The result is logically
    equivalent to the input.
    """
    facts: set = set()
    changed = True
    while changed:
        changed = False
        for antecedent, head in clauses:
            if head is not None and head not in facts and antecedent <= facts:
                facts.add(head)
                changed = True
    simplified: List[Clause] = []
    for antecedent, head in clauses:
        if head in facts:
            continue
        reduced = frozenset(antecedent - facts)
        if head is None and not reduced:
            return None  # a goal became unconditional: unsatisfiable
        if head is not None and head in reduced:
            continue  # tautology after reduction
        simplified.append((reduced, head))
    simplified.extend((frozenset(), fact) for fact in sorted(facts))
    return _dedupe(simplified)


def prune_constraint(
    constraint: Constraint, observable: AbstractSet[str]
) -> Constraint:
    """Eliminate every atom over a variable outside ``observable``.

    Exact with respect to the observable variables: for any assignment of
    the observable atoms, the pruned constraint is satisfiable iff the
    original is.  The result is also simplified modulo its unconditional
    facts (a clause like ``L(a) => L(b)`` disappears when ``L(b)`` is
    already required).  Returns the constraint unchanged if it is not in
    Horn shape (which inference never produces, but callers may build).
    """
    clauses = _to_clauses(constraint)
    if clauses is None:
        return constraint
    hidden = constraint_atoms(constraint) - set(observable)
    for var in sorted(hidden):
        clauses = eliminate_variable(clauses, var)
    if any(not antecedent and head is None for antecedent, head in clauses):
        return FALSE
    simplified = propagate_facts(clauses)
    if simplified is None:
        return FALSE
    return _from_clauses(simplified)


def prune_constrained(
    ct: ConstrainedType, extra_observable: AbstractSet[str] = frozenset()
) -> ConstrainedType:
    """Prune a constrained type, keeping the type's variables observable.

    A ``TRUE`` constraint has nothing to prune: ``ct`` comes back as is.
    """
    if ct.constraint is TRUE:
        return ct
    observable = set(free_type_vars(ct.type)) | set(extra_observable)
    return ConstrainedType(ct.type, prune_constraint(ct.constraint, observable))
