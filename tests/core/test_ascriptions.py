"""Tests for type ascriptions ``(e : ty)`` and the type surface syntax."""

from __future__ import annotations

import pytest

from repro.core.errors import NestingError, TypingError, UnificationError
from repro.core.infer import infer, type_expr_to_type
from repro.core.milner import milner_infer
from repro.core.types import INT, TArrow, TPar, TVar, render_type
from repro.lang.ast import Annot, Var
from repro.lang.errors import ParseError
from repro.lang.parser import parse_expression as parse
from repro.lang.pretty import pretty
from repro.lang.type_syntax import (
    TEArrow,
    TEBase,
    TEPar,
    TEProduct,
    TERef,
    TESum,
    TEVar,
    render_type_expr,
)
from repro.semantics.bigstep import run
from repro.semantics.smallstep import evaluate, step


class TestTypeSyntaxParsing:
    def _annot(self, source: str):
        expr = parse(f"(x : {source})")
        assert isinstance(expr, Annot)
        return expr.annotation

    def test_base_types(self):
        assert self._annot("int") == TEBase("int")
        assert self._annot("bool") == TEBase("bool")
        assert self._annot("unit") == TEBase("unit")

    def test_type_variable(self):
        assert self._annot("'a") == TEVar("a")

    @pytest.mark.parametrize(
        "source", ["'a", "fun 'x -> 'x", "let 'a = 1 in 'a", "f 'a", "case x of inl 'a -> 1 | inr y -> 2"]
    )
    def test_type_variable_outside_an_annotation_is_a_parse_error(self, source):
        with pytest.raises(ParseError):
            parse(source)

    def test_primed_identifier_is_a_name(self):
        expr = parse("x'")
        assert isinstance(expr, Var) and expr.name == "x'"

    def test_arrow_right_associative(self):
        ty = self._annot("int -> bool -> int")
        assert ty == TEArrow(TEBase("int"), TEArrow(TEBase("bool"), TEBase("int")))

    def test_product(self):
        assert self._annot("int * bool") == TEProduct((TEBase("int"), TEBase("bool")))

    def test_product_binds_tighter_than_arrow(self):
        ty = self._annot("int * int -> int")
        assert isinstance(ty, TEArrow)
        assert isinstance(ty.domain, TEProduct)

    def test_par_postfix(self):
        assert self._annot("int par") == TEPar(TEBase("int"))

    def test_par_chains(self):
        assert self._annot("int par par") == TEPar(TEPar(TEBase("int")))

    def test_ref_postfix(self):
        assert self._annot("int ref") == TERef(TEBase("int"))

    def test_mixed_postfix(self):
        assert self._annot("int ref par") == TEPar(TERef(TEBase("int")))

    def test_sum(self):
        assert self._annot("(int, bool) sum") == TESum(TEBase("int"), TEBase("bool"))

    def test_parenthesized(self):
        ty = self._annot("(int -> int) par")
        assert ty == TEPar(TEArrow(TEBase("int"), TEBase("int")))

    def test_unknown_type_name(self):
        with pytest.raises(ParseError, match="unknown type name"):
            parse("(x : float)")

    def test_pair_without_sum_keyword(self):
        with pytest.raises(ParseError, match="expected 'sum'"):
            parse("(x : (int, bool))")

    @pytest.mark.parametrize(
        "source",
        [
            "int",
            "'a -> 'b",
            "int * bool * unit",
            "(int, bool) sum par",
            "int ref",
            "('a -> 'b par) -> 'a par -> 'b par",
        ],
    )
    def test_render_round_trip(self, source):
        annotation = self._annot(source)
        again = parse(f"(x : {render_type_expr(annotation)})").annotation
        assert again == annotation


class TestConversion:
    def test_shared_variables(self):
        converted = type_expr_to_type(TEArrow(TEVar("a"), TEVar("a")))
        assert isinstance(converted, TArrow)
        assert converted.domain == converted.codomain

    def test_distinct_variables(self):
        converted = type_expr_to_type(TEArrow(TEVar("a"), TEVar("b")))
        assert converted.domain != converted.codomain

    def test_fresh_per_call(self):
        first = type_expr_to_type(TEVar("a"))
        second = type_expr_to_type(TEVar("a"))
        assert first != second


class TestTypingWithAscriptions:
    def test_confirming_annotation(self):
        assert render_type(infer(parse("(1 + 1 : int)")).type) == "int"

    def test_annotation_can_restrict(self):
        # Without the annotation: 'a -> 'a; with it: int -> int.
        ct = infer(parse("(fun x -> x : int -> int)"))
        assert render_type(ct.type) == "int -> int"

    def test_wrong_annotation_rejected(self):
        with pytest.raises(UnificationError):
            infer(parse("(1 : bool)"))

    def test_vector_annotation(self):
        ct = infer(parse("(mkpar (fun i -> i) : int par)"))
        assert render_type(ct.type) == "int par"

    def test_nested_par_annotation_rejected(self):
        with pytest.raises((NestingError, UnificationError)):
            infer(parse("(mkpar (fun i -> i) : int par par)"))

    def test_annotating_nc_with_nested_par_rejected(self):
        # nc () : 'a — the annotation alone forces the nesting.
        with pytest.raises(NestingError):
            infer(parse("(nc () : int par par)"))

    def test_annotation_interacts_with_locality(self):
        # Annotating mkpar's body type as a vector must fail.
        with pytest.raises((NestingError, UnificationError)):
            infer(parse("mkpar (fun i -> (nc () : bool par))"))

    def test_polymorphic_annotation_keeps_generality(self):
        from repro.core.infer import infer_scheme

        scheme = infer_scheme(parse("(fun x -> x : 'a -> 'a)"))
        assert render_type(scheme.body.type) == "'a -> 'a"
        assert len(scheme.quantified) == 1

    def test_milner_handles_annotations(self):
        assert render_type(milner_infer(parse("(1 : int)"))) == "int"
        with pytest.raises(TypingError):
            milner_infer(parse("(true : int)"))

    def test_ref_annotation(self):
        assert render_type(infer(parse("(ref 1 : int ref)")).type) == "int ref"


class TestOperationalErasure:
    def test_smallstep_erases(self):
        assert step(parse("(1 : int)"), 1) == parse("1")

    def test_evaluation_through_annotations(self):
        assert evaluate(parse("((2 : int) + (3 : int) : int)"), 1) == parse("5")

    def test_bigstep_transparent(self):
        assert run(parse("(41 + 1 : int)"), 1) == 42

    def test_annotation_in_function_position(self):
        assert run(parse("(fun x -> x * 2 : int -> int) 21"), 1) == 42

    def test_pretty_round_trip(self):
        source = "(mkpar (fun i -> i) : int par)"
        expr = parse(source)
        assert parse(pretty(expr)) == expr
        assert pretty(expr) == source
