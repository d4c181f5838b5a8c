"""Tests for the simple-type algebra (section 4)."""

from __future__ import annotations

import pytest

from repro.core.types import (
    BOOL,
    INT,
    TArrow,
    TBase,
    TPair,
    TPar,
    TTuple,
    TVar,
    UNIT_TYPE,
    apply_type_subst,
    arrow,
    contains_par,
    free_type_vars,
    fresh_tvar,
    has_nested_par,
    occurs_in,
    render_type,
)


class TestConstruction:
    def test_base_types_are_distinct(self):
        assert INT != BOOL != UNIT_TYPE

    def test_arrow_helper_right_nests(self):
        assert arrow(INT, BOOL, INT) == TArrow(INT, TArrow(BOOL, INT))

    def test_arrow_single(self):
        assert arrow(INT) == INT

    def test_arrow_empty_raises(self):
        with pytest.raises(ValueError):
            arrow()

    def test_tuple_needs_three(self):
        with pytest.raises(ValueError):
            TTuple((INT, BOOL))

    def test_fresh_tvars_are_distinct(self):
        assert fresh_tvar() != fresh_tvar()

    def test_types_are_hashable(self):
        {TPar(INT), TArrow(INT, BOOL), TPair(INT, INT)}


class TestFreeVars:
    def test_base_has_none(self):
        assert free_type_vars(INT) == frozenset()

    def test_var(self):
        assert free_type_vars(TVar("a")) == {"a"}

    def test_nested(self):
        ty = TArrow(TVar("a"), TPair(TVar("b"), TPar(TVar("a"))))
        assert free_type_vars(ty) == {"a", "b"}

    def test_stored_on_the_node_and_shared(self):
        ty = TArrow(TVar("fv1"), TPair(INT, TPar(TVar("fv1"))))
        names = free_type_vars(ty)
        assert free_type_vars(ty) is names
        # A child whose set is the whole union shares it; ground nodes
        # share the one empty set.
        assert free_type_vars(TPar(TVar("fv1"))) is free_type_vars(TVar("fv1"))
        assert free_type_vars(TPair(INT, BOOL)) is free_type_vars(INT)
        assert free_type_vars(TTuple((INT, BOOL, TVar("fv2")))) == {"fv2"}

    def test_deep_type_does_not_recurse(self):
        import sys

        ty = TVar("deep")
        for index in range(sys.getrecursionlimit() * 2):
            ty = TArrow(INT, ty) if index % 2 else TPar(ty)
        assert free_type_vars(ty) == {"deep"}


class TestSubstitution:
    def test_hit(self):
        assert apply_type_subst({"a": INT}, TVar("a")) == INT

    def test_miss(self):
        assert apply_type_subst({"a": INT}, TVar("b")) == TVar("b")

    def test_structural(self):
        ty = TArrow(TVar("a"), TPar(TVar("a")))
        expected = TArrow(BOOL, TPar(BOOL))
        assert apply_type_subst({"a": BOOL}, ty) == expected

    def test_tuple(self):
        ty = TTuple((TVar("a"), INT, TVar("a")))
        assert apply_type_subst({"a": BOOL}, ty) == TTuple((BOOL, INT, BOOL))


class TestPredicates:
    def test_occurs_in(self):
        assert occurs_in("a", TPar(TVar("a")))
        assert not occurs_in("a", TPar(TVar("b")))

    def test_contains_par(self):
        assert contains_par(TArrow(INT, TPar(INT)))
        assert not contains_par(TArrow(INT, INT))

    def test_nested_par_detection(self):
        assert has_nested_par(TPar(TPar(INT)))
        assert has_nested_par(TPar(TPair(INT, TPar(BOOL))))
        assert has_nested_par(TPar(TArrow(INT, TPar(INT))))
        assert not has_nested_par(TPar(INT))
        assert not has_nested_par(TPair(TPar(INT), TPar(BOOL)))


class TestRendering:
    @pytest.mark.parametrize(
        "ty,text",
        [
            (INT, "int"),
            (TVar("x"), "'a"),
            (TArrow(INT, BOOL), "int -> bool"),
            (TArrow(TArrow(INT, INT), BOOL), "(int -> int) -> bool"),
            (TArrow(INT, TArrow(INT, BOOL)), "int -> int -> bool"),
            (TPair(INT, BOOL), "int * bool"),
            (TPair(TPair(INT, INT), BOOL), "(int * int) * bool"),
            (TPar(INT), "int par"),
            (TPar(TPar(INT)), "int par par"),
            (TPar(TArrow(INT, INT)), "(int -> int) par"),
            (TArrow(TPair(INT, INT), INT), "int * int -> int"),
            (TPair(TPar(INT), INT), "int par * int"),
            (TTuple((INT, BOOL, INT)), "int * bool * int"),
        ],
    )
    def test_render(self, ty, text):
        assert render_type(ty) == text

    def test_variables_named_in_order(self):
        ty = TArrow(TVar("zz"), TArrow(TVar("aa"), TVar("zz")))
        assert render_type(ty) == "'a -> 'b -> 'a"

    def test_str_uses_render(self):
        assert str(TPar(INT)) == "int par"

    def test_explicit_names(self):
        assert render_type(TVar("k"), {"k": "'z"}) == "'z"
