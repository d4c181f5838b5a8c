"""Program digests: canonical, location-insensitive, structure-sensitive."""

from __future__ import annotations

import pytest

from repro.core.digest import chain_digest, expr_digest, program_digest
from repro.lang.parser import parse_program


def digest(source: str) -> str:
    return expr_digest(parse_program(source))


def test_digest_is_deterministic():
    assert digest("1 + 2") == digest("1 + 2")


def test_digest_ignores_layout_and_comments():
    compact = digest("let f = fun x -> x + 1 in f 2")
    spaced = digest(
        """
        let f =
            fun x ->
                x + 1
        in f 2
        """
    )
    assert compact == spaced


def test_digest_distinguishes_structure():
    assert digest("1 + 2") != digest("2 + 1")
    assert digest("fun x -> x") != digest("fun y -> y")  # names matter
    assert digest("(1, 2)") != digest("(1, 2, 3)")
    assert digest("if true then 1 else 2") != digest("if true then 2 else 1")


def test_digest_distinguishes_annotations():
    assert digest("fun x -> x") != digest("(fun x -> x : int -> int)")


def test_digest_covers_parallel_constructs():
    local = digest("mkpar (fun i -> i)")
    shifted = digest("mkpar (fun i -> i + 1)")
    assert local != shifted


def test_constants_do_not_collide_across_kinds():
    # 1 vs true: bool is an int subclass in Python, so a naive rendering
    # would merge them.
    assert digest("if true then 1 else 1") != digest("if true then true else 1")


def test_program_digest_mixes_execution_parameters():
    expr = parse_program("mkpar (fun i -> i)")
    base = program_digest(expr, p=4)
    assert program_digest(expr, p=8) != base
    assert program_digest(expr, p=4, g=3) != base
    assert program_digest(expr, p=4, l=100) != base
    assert program_digest(expr, p=4, backend="thread") != base
    assert program_digest(expr, p=4, faults="drop:put:0.5:seed=1") != base
    assert program_digest(expr, p=4, typed=False) != base
    assert program_digest(expr, p=4, use_prelude=False) != base
    assert program_digest(expr, p=4) == base


def test_chain_digest_depends_on_every_link():
    t0 = chain_digest("root", "a")
    assert chain_digest(t0, "b") != chain_digest(chain_digest("root", "x"), "b")
    assert chain_digest(t0, "b") != chain_digest(t0, "c")
    # Part boundaries matter: ("ab", "c") != ("a", "bc").
    assert chain_digest("root", "ab", "c") != chain_digest("root", "a", "bc")


def test_digest_handles_deep_programs_without_recursion():
    deep = "1" + (" + 1" * 5000)
    assert len(digest(deep)) == 64


def test_digest_rejects_foreign_payloads():
    with pytest.raises(TypeError):
        expr_digest(object())  # type: ignore[arg-type]
