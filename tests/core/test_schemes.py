"""Tests for constrained types, schemes and Definitions 1-3."""

from __future__ import annotations

import pytest

from repro.core.constraints import CLoc, FALSE, TRUE, conj, imp, solve
from repro.core.schemes import (
    ConstrainedType,
    Subst,
    TypeEnv,
    TypeScheme,
    generalize,
    instantiate,
    mono,
    scheme_of,
)
from repro.core.types import BOOL, INT, TArrow, TPair, TPar, TVar, free_type_vars


class TestConstrainedType:
    def test_free_vars_union_type_and_constraint(self):
        ct = ConstrainedType(TVar("a"), CLoc("b"))
        assert ct.free_vars() == {"a", "b"}

    def test_display_without_constraint(self):
        assert str(ConstrainedType(INT)) == "int"

    def test_display_with_constraint(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        assert str(ct) == "['a / L('a)]"


class TestScheme:
    def test_scheme_of_quantifies_all_type_vars(self):
        scheme = scheme_of(TArrow(TVar("a"), TVar("b")))
        assert set(scheme.quantified) == {"a", "b"}

    def test_free_vars_exclude_quantified(self):
        scheme = TypeScheme(("a",), ConstrainedType(TArrow(TVar("a"), TVar("b"))))
        assert scheme.free_vars() == {"b"}

    def test_mono_quantifies_nothing(self):
        assert mono(TVar("a")).quantified == ()


class TestDefinition1Substitution:
    """phi([tau/C]) = [phi tau / phi C /\\ AND C_{phi(beta)}]."""

    def test_plain_rewrite(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        result = Subst({"a": INT}).apply_constrained(ct)
        assert result.type == INT
        assert result.constraint == TRUE

    def test_rewrite_to_false(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        result = Subst({"a": TPar(INT)}).apply_constrained(ct)
        assert result.constraint == FALSE

    def test_basic_constraints_of_images_are_added(self):
        # Substituting a := (b par) must add C_(b par) = L(b) even though
        # the original constraint never mentioned locality.
        ct = ConstrainedType(TVar("a"), TRUE)
        result = Subst({"a": TPar(TVar("b"))}).apply_constrained(ct)
        assert result.constraint == CLoc("b")

    def test_fourth_projection_instantiation(self):
        # fst : [(a * b) -> a / L(a) => L(b)]; instantiating at
        # a := int, b := int par makes the constraint False (Figure 10).
        fst_type = TArrow(TPair(TVar("a"), TVar("b")), TVar("a"))
        ct = ConstrainedType(fst_type, imp(CLoc("a"), CLoc("b")))
        result = Subst({"a": INT, "b": TPar(INT)}).apply_constrained(ct)
        assert solve(result.constraint) == FALSE

    def test_third_projection_instantiation(self):
        # a := int par, b := int gives False => True = True (Figure 9).
        fst_type = TArrow(TPair(TVar("a"), TVar("b")), TVar("a"))
        ct = ConstrainedType(fst_type, imp(CLoc("a"), CLoc("b")))
        result = Subst({"a": TPar(INT), "b": INT}).apply_constrained(ct)
        assert solve(result.constraint) == TRUE

    def test_untouched_variables_add_nothing(self):
        ct = ConstrainedType(TVar("a"), CLoc("a"))
        result = Subst({"zzz": TPar(INT)}).apply_constrained(ct)
        assert result == ct

    def test_scheme_substitution_renames_out_of_reach(self):
        # phi = {a := int} on (forall a. [a / L(a)]) must not touch the
        # bound variable.
        scheme = TypeScheme(("a",), ConstrainedType(TVar("a"), CLoc("a")))
        result = Subst({"a": INT}).apply_scheme(scheme)
        assert len(result.quantified) == 1
        inner = result.body.type
        assert isinstance(inner, TVar)
        assert inner.name != "a" or inner.name in result.quantified


class TestSubstAlgebra:
    def test_identity(self):
        assert Subst.identity().apply_type(TVar("a")) == TVar("a")

    def test_compose_order(self):
        # compose(earlier): earlier first. earlier: a := b; later: b := int
        earlier = Subst({"a": TVar("b")})
        later = Subst({"b": INT})
        combined = later.compose(earlier)
        assert combined.apply_type(TVar("a")) == INT
        assert combined.apply_type(TVar("b")) == INT

    def test_compose_keeps_later_entries(self):
        combined = Subst({"b": INT}).compose(Subst({"a": BOOL}))
        assert combined.apply_type(TVar("a")) == BOOL
        assert combined.apply_type(TVar("b")) == INT

    def test_domain(self):
        assert Subst({"a": INT}).domain == {"a"}

    def test_bool(self):
        assert not Subst.identity()
        assert Subst({"a": INT})


class TestInstantiate:
    def test_fresh_variables(self):
        scheme = scheme_of(TArrow(TVar("a"), TVar("a")), CLoc("a"))
        first = instantiate(scheme)
        second = instantiate(scheme)
        assert first.type != second.type  # fresh each time
        assert free_type_vars(first.type).isdisjoint(free_type_vars(second.type))

    def test_constraint_follows_renaming(self):
        scheme = scheme_of(TVar("a"), CLoc("a"))
        ct = instantiate(scheme)
        assert isinstance(ct.type, TVar)
        assert ct.constraint == CLoc(ct.type.name)

    def test_monomorphic_instantiation_is_identity(self):
        scheme = mono(TVar("a"), CLoc("a"))
        ct = instantiate(scheme)
        assert ct.type == TVar("a")
        assert ct.constraint == CLoc("a")


class TestGeneralize:
    def test_quantifies_type_vars_not_in_env(self):
        env = TypeEnv.empty().extend("x", mono(TVar("e")))
        ct = ConstrainedType(TArrow(TVar("a"), TVar("e")))
        scheme = generalize(ct, env)
        assert scheme.quantified == ("a",)

    def test_constraint_only_vars_stay_free(self):
        # Definition 3 quantifies F(tau) \\ F(E): a variable that only
        # occurs in the constraint is not quantified.
        ct = ConstrainedType(INT, imp(CLoc("a"), CLoc("b")))
        scheme = generalize(ct, TypeEnv.empty())
        assert scheme.quantified == ()
        assert scheme.free_vars() == {"a", "b"}


class TestTypeEnv:
    def test_lookup(self):
        env = TypeEnv.empty().extend("x", mono(INT))
        assert env.lookup("x") == mono(INT)
        assert env.lookup("y") is None

    def test_extend_shadows(self):
        env = TypeEnv.empty().extend("x", mono(INT)).extend("x", mono(BOOL))
        assert env.lookup("x") == mono(BOOL)

    def test_extend_is_persistent(self):
        base = TypeEnv.empty()
        base.extend("x", mono(INT))
        assert "x" not in base

    def test_free_vars(self):
        env = TypeEnv.empty().extend("x", mono(TVar("a"), CLoc("b")))
        assert env.free_vars() == {"a", "b"}

    @staticmethod
    def _full_sweep(env):
        result = frozenset()
        for _, scheme in env.items():
            result |= scheme.free_vars()
        return result

    def test_prelude_free_vars_match_full_sweep(self):
        from repro.core.prelude_env import prelude_env

        env = prelude_env()
        assert env.open_names() == ()
        assert env.free_vars() == self._full_sweep(env) == frozenset()

    def test_open_and_shadowed_free_vars_match_full_sweep(self):
        from repro.core.prelude_env import prelude_env

        open_scheme = mono(TArrow(TVar("a"), TVar("b")), CLoc("c"))
        closed = TypeScheme(("a",), ConstrainedType(TVar("a")))
        envs = [
            # An open scheme over the prelude, then a closed scheme
            # shadowing it: "x" stays listed open, contributes nothing.
            prelude_env().extend("x", open_scheme),
            prelude_env().extend("x", open_scheme).extend("x", closed),
            # A closed name shadowed by an open one, and a partly
            # quantified scheme whose constraint-only atom stays free.
            prelude_env().extend("y", closed).extend("y", mono(TVar("d"))),
            TypeEnv({"z": TypeScheme(("a",), ConstrainedType(TVar("a"), CLoc("e")))}),
            TypeEnv.empty().extend("x", open_scheme).extend("w", mono(TPar(TVar("a")))),
        ]
        expected = [{"a", "b", "c"}, set(), {"d"}, {"e"}, {"a", "b", "c"}]
        for env, names in zip(envs, expected):
            assert env.free_vars() == self._full_sweep(env) == names

    def test_apply_substitution(self):
        env = TypeEnv.empty().extend("x", mono(TVar("a")))
        applied = env.apply(Subst({"a": INT}))
        assert applied.lookup("x").body.type == INT
