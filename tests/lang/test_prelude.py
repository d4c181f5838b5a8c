"""Tests for the prelude: parsing, dependency filtering, linking."""

from __future__ import annotations

import io
import threading
from pathlib import Path

import pytest

import repro.lang.prelude as prelude_module
from repro.core.digest import expr_digest
from repro.lang.ast import Let, Var
from repro.lang.parser import parse_definitions, parse_expression, parse_program
from repro.lang.prelude import (
    PRELUDE_DEFINITIONS,
    PRELUDE_SOURCE,
    needed_definitions,
    prelude_asts,
    prelude_map,
    with_prelude,
)
from repro.lang.substitution import free_vars


class TestParsing:
    def test_all_definitions_parse(self):
        assert len(prelude_asts()) == len(PRELUDE_DEFINITIONS)

    def test_expected_names_present(self):
        names = {name for name, _ in prelude_asts()}
        assert {"replicate", "parfun", "bcast", "shift", "totex", "fold", "scan"} <= names

    def test_map_matches_list(self):
        assert set(prelude_map()) == {name for name, _ in prelude_asts()}

    def test_definitions_only_use_earlier_names(self):
        # The prelude is in dependency order: each body's free variables
        # are primitives or previously defined names.
        seen = set()
        for name, body in prelude_asts():
            assert free_vars(body) <= seen, f"{name} uses a later definition"
            seen.add(name)


class TestNeededDefinitions:
    def test_no_reference_no_definitions(self):
        assert needed_definitions(parse_expression("1 + 2")) == []

    def test_direct_reference(self):
        names = [n for n, _ in needed_definitions(parse_expression("replicate 1"))]
        assert names == ["replicate"]

    def test_transitive_dependencies(self):
        names = [n for n, _ in needed_definitions(parse_expression("bcast 0 v"))]
        # bcast uses parfun which uses replicate.
        assert names == ["replicate", "parfun", "bcast"]

    def test_fold_pulls_totex(self):
        names = [n for n, _ in needed_definitions(parse_expression("fold f v"))]
        assert "totex" in names
        assert names.index("totex") < names.index("fold")


class TestWithPrelude:
    def test_local_program_is_untouched(self):
        expr = parse_expression("1 + 2")
        assert with_prelude(expr) == expr

    def test_wrapping_produces_lets(self):
        wrapped = with_prelude(parse_expression("replicate 7"))
        assert isinstance(wrapped, Let)
        assert wrapped.name == "replicate"

    def test_wrapped_program_is_closed(self):
        wrapped = with_prelude(parse_expression("bcast 0 (replicate 1)"))
        assert free_vars(wrapped) == frozenset()

    def test_only_forces_inclusion(self):
        wrapped = with_prelude(Var("scan"), only=("scan",))
        assert free_vars(wrapped) == frozenset()

    def test_only_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown prelude"):
            with_prelude(parse_expression("1"), only=("nonexistent",))


class TestPreludeSemantics:
    """End-to-end sanity: the prelude functions compute what they claim."""

    @pytest.mark.parametrize(
        "source,p,expected",
        [
            ("replicate 9", 3, [9, 9, 9]),
            ("procs", 3, [0, 1, 2]),
            ("get 1 (mkpar (fun i -> i * 3))", 4, [3, 3, 3, 3]),
            ("first (mkpar (fun i -> i + 5))", 3, [5, 5, 5]),
            ("last (mkpar (fun i -> i + 5))", 3, [7, 7, 7]),
            ("scanex (fun ab -> fst ab + snd ab) 0 (mkpar (fun i -> i + 1))",
             4, [0, 1, 3, 6]),
            ("scanex (fun ab -> fst ab * snd ab) 1 (mkpar (fun i -> i + 1))",
             4, [1, 1, 2, 6]),
            ("parfun (fun f -> if isnc (f 1) then 0 - 1 else f 1)"
             " (gather 0 (mkpar (fun i -> i * 5)))", 3, [5, -1, -1]),
            ("parfun (fun x -> x * 2) (mkpar (fun i -> i))", 4, [0, 2, 4, 6]),
            ("parfun2 (fun a -> fun b -> a - b) (mkpar (fun i -> 10)) (mkpar (fun i -> i))",
             3, [10, 9, 8]),
            ("applyat 1 (fun x -> 0 - x) (fun x -> x) (mkpar (fun i -> i + 1))",
             3, [1, -2, 3]),
            ("bcast 1 (mkpar (fun i -> i * 5))", 4, [5, 5, 5, 5]),
            ("shift 2 (mkpar (fun i -> i))", 4, [2, 3, 0, 1]),
            ("fold (fun ab -> fst ab * snd ab) (mkpar (fun i -> i + 1))", 4,
             [24, 24, 24, 24]),
            ("scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))", 4,
             [0, 1, 3, 6]),
            ("konst 1 2", 1, 1),
            ("compose (fun a -> a + 1) (fun b -> b * 2) 5", 1, 11),
        ],
    )
    def test_prelude_behaviour(self, source, p, expected):
        from repro.lang.parser import parse_program
        from repro.semantics.bigstep import run
        from repro.semantics.values import to_python

        expr = with_prelude(parse_program(source))
        assert to_python(run(expr, p)) == expected


PROGRAMS_DIR = Path(__file__).resolve().parents[2] / "programs"


def _reference_wrap(expr):
    """``with_prelude(expr)`` rebuilt from a fresh parse of the prelude."""
    needed = set(free_vars(expr))
    keep = []
    for name, body in reversed(parse_definitions(PRELUDE_SOURCE, filename="<prelude>")):
        if name in needed:
            keep.append((name, body))
            needed |= free_vars(body)
    result = expr
    for name, body in keep:
        result = Let(name, body, result)
    return result


def _corpus():
    from repro.testing import CORPUS_GLOBAL, CORPUS_IMPERATIVE, CORPUS_LOCAL

    programs = [
        (path.name, parse_program(path.read_text(), filename=path.name))
        for path in sorted(PROGRAMS_DIR.glob("*.bsml"))
    ]
    for source in CORPUS_LOCAL + CORPUS_GLOBAL + CORPUS_IMPERATIVE:
        programs.append((source, parse_program(source)))
    return programs


@pytest.fixture
def prelude_parses(monkeypatch):
    """Clear the shared parse and record every prelude parse from here on."""
    calls = []
    real = prelude_module.parse_definitions

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(prelude_module, "parse_definitions", counting)
    prelude_module._parsed.cache_clear()
    return calls


class TestSharedParse:
    """The prelude is parsed once per process and every caller shares it."""

    def test_first_use_parses_once(self, prelude_parses):
        with_prelude(parse_expression("bcast 0 procs"))
        with_prelude(parse_expression("scan f procs"))
        assert len(prelude_parses) == 1

    def test_no_parse_after_warm_up(self, prelude_parses):
        from repro import run_program
        from repro.repl import Session
        from repro.service import ServiceCore

        prelude_asts()
        assert len(prelude_parses) == 1
        expr = parse_expression("bcast 0 (mkpar (fun i -> i))")
        for _ in range(100):
            with_prelude(expr)
        status, _, _ = ServiceCore().handle_run(
            {"program": "scan (fun ab -> fst ab + snd ab) procs"}
        )
        assert status == 200
        run_program("fold (fun ab -> fst ab + snd ab) procs", p=3)
        session = Session()
        session.reset()
        session.handle(":p 8", io.StringIO())
        assert len(prelude_parses) == 1

    @pytest.mark.parametrize(
        "expr", [pytest.param(expr, id=name) for name, expr in _corpus()]
    )
    def test_wrap_matches_a_fresh_parse(self, expr):
        wrapped = with_prelude(expr)
        reference = _reference_wrap(expr)
        assert wrapped == reference
        assert expr_digest(wrapped) == expr_digest(reference)

    def test_corpus_exercises_the_prelude(self):
        assert any(needed_definitions(expr) for _, expr in _corpus())

    def test_mutating_returned_containers_is_harmless(self):
        expr = parse_expression("bcast 0 (scan (fun ab -> fst ab + snd ab) procs)")
        before = with_prelude(expr)
        asts = prelude_asts()
        asts.clear()
        asts.append(("bcast", Var("oops")))
        mapping = prelude_map()
        mapping.clear()
        mapping["replicate"] = Var("oops")
        assert with_prelude(expr) == before
        assert len(prelude_asts()) == len(PRELUDE_DEFINITIONS)
        assert prelude_map().keys() == {name for name, _ in PRELUDE_DEFINITIONS}

    def test_concurrent_first_use_agrees(self, prelude_parses):
        expr = parse_expression("fold (fun ab -> fst ab + snd ab) (shift 1 procs)")
        barrier = threading.Barrier(8)
        results = [None] * 8

        def first_call(slot):
            barrier.wait()
            results[slot] = with_prelude(expr)

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reference = _reference_wrap(expr)
        assert all(result == reference for result in results)
        assert len({expr_digest(result) for result in results}) == 1
