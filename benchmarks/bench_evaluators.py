"""Ablation — the dynamic semantics engines.

The small-step machine is the faithful reference (it *is* Figures 1/2/5);
the big-step tree evaluator is the readable cost oracle; the
closure-compiling engine (:mod:`repro.semantics.compiled`) is the
product evaluator.  This bench checks they agree on a corpus, measures
the gaps, and **guards** one contract: compiled must be >= 2x faster
than tree on the warm scaling suite, with bit-identical BspCost tables
and abstract trace signatures.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.bsp.params import BspParams
from repro.lang.parser import parse_program
from repro.lang.prelude import with_prelude
from repro.lang.substitution import alpha_equal
from repro.semantics.bigstep import Evaluator, run
from repro.semantics.compiled import compile_program
from repro.semantics.costed import run_costed
from repro.semantics.smallstep import evaluate, step_count
from repro.semantics.values import reify
from repro.testing.generators import well_typed_corpus

from _util import write_table

PROGRAMS = {
    "factorial 8": "(fix (fun f -> fun n -> if n = 0 then 1 else n * f (n - 1))) 8",
    "bcast p=8": "bcast 0 (mkpar (fun i -> i))",
    "scan p=8": "scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))",
    "fold p=8": "fold (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))",
}

#: The scaling suite (fold is Theta(p) supersteps of Theta(p) work, put
#: in scan is Theta(p^2) messages) — also what the compiled-engine
#: speedup guard runs on.
SCALING_PROGRAM = "fold (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))"
SCALING_WIDTHS = (2, 4, 8, 16, 32)


def _warm_ms(fn, budget_s=0.25):
    """Average per-call milliseconds of ``fn`` over a fixed time budget
    (one untimed warm-up call first)."""
    fn()
    start = time.perf_counter()
    calls = 0
    while time.perf_counter() - start < budget_s:
        fn()
        calls += 1
    return (time.perf_counter() - start) / calls * 1e3


def test_engines_agree_and_compare(benchmark):
    rows = []
    for name, source in PROGRAMS.items():
        expr = with_prelude(parse_program(source))
        start = time.perf_counter()
        small = evaluate(expr, 8)
        small_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        big = run(expr, 8)
        big_ms = (time.perf_counter() - start) * 1e3
        assert alpha_equal(small, reify(big)), name
        compiled_program = compile_program(expr, 8)
        start = time.perf_counter()
        compiled = compiled_program.run()
        compiled_ms = (time.perf_counter() - start) * 1e3
        assert alpha_equal(small, reify(compiled)), name
        steps = step_count(expr, 8)
        rows.append(
            (name, steps, f"{small_ms:.2f}", f"{big_ms:.3f}",
             f"{compiled_ms:.3f}",
             f"{small_ms / max(big_ms, 1e-9):.0f}x",
             f"{big_ms / max(compiled_ms, 1e-9):.1f}x")
        )
    write_table(
        "evaluator_comparison",
        "Small-step (faithful) vs big-step (tree) vs compiled evaluator, p = 8",
        ("program", "steps", "small-step ms", "tree ms", "compiled ms",
         "tree vs small", "compiled vs tree"),
        rows,
        footer="Values agree (alpha-equivalence) on every program; the "
        "test suite checks this over the whole corpus and hundreds of "
        "random programs, with bit-identical BspCost tables and trace "
        "signatures between tree and compiled (see "
        "tests/properties/test_engine_conformance.py).  Compiled timings "
        "are single cold runs after one compile; the warm >= 2x guard is "
        "the evaluator_compiled_guard table.",
    )
    expr = with_prelude(parse_program(PROGRAMS["scan p=8"]))
    benchmark(lambda: run(expr, 8))


def test_compiled_speedup_guard():
    """The compiled engine's contract, enforced in CI: on the warm
    scaling suite it is >= 2x faster than the tree evaluator in
    aggregate, while BspCost tables and abstract trace signatures stay
    bit-identical at every machine size."""
    expr = with_prelude(parse_program(SCALING_PROGRAM))
    rows = []
    tree_total = 0.0
    compiled_total = 0.0
    for p in SCALING_WIDTHS:
        # Conformance first: costed machines + traces, both engines.
        observations = []
        for engine in ("tree", "compiled"):
            with obs.trace() as collected:
                result = run_costed(
                    expr, BspParams(p=p), use_prelude=False, engine=engine
                )
            observations.append(
                (result.python_value, result.cost, collected.abstract_signature())
            )
        (tree_value, tree_cost, tree_sig) = observations[0]
        (compiled_value, compiled_cost, compiled_sig) = observations[1]
        assert compiled_value == tree_value, f"p={p}: values diverge"
        assert compiled_cost == tree_cost, f"p={p}: BspCost diverges"
        assert compiled_sig == tree_sig, f"p={p}: trace signature diverges"
        # Warm timings: the tree engine re-walks the AST per run, the
        # compiled engine compiles once and reruns the closure tree.
        evaluator = Evaluator(p)
        tree_ms = _warm_ms(lambda: evaluator.eval(expr))
        program = compile_program(expr, p)
        compiled_ms = _warm_ms(program.run)
        tree_total += tree_ms
        compiled_total += compiled_ms
        rows.append(
            (f"p={p}", f"{tree_ms:.3f}", f"{compiled_ms:.3f}",
             f"{tree_ms / compiled_ms:.2f}x", "yes")
        )
    speedup = tree_total / compiled_total
    rows.append(
        ("total", f"{tree_total:.3f}", f"{compiled_total:.3f}",
         f"{speedup:.2f}x", "yes")
    )
    write_table(
        "evaluator_compiled_guard",
        "Compiled-engine speedup guard: warm fold scaling suite "
        "(compile once, run many)",
        ("machine", "tree ms", "compiled ms", "speedup", "cost+trace identical"),
        rows,
        footer="CI guard: aggregate speedup must stay >= 2x with "
        "bit-identical BspCost tables and abstract trace signatures at "
        "every p.",
    )
    assert speedup >= 2.0, (
        f"compiled engine regressed: {speedup:.2f}x < 2x on the warm "
        "scaling suite"
    )


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_bigstep_scales_with_p(benchmark, p):
    expr = with_prelude(parse_program(SCALING_PROGRAM))
    value = benchmark(lambda: run(expr, p))
    from repro.semantics.values import to_python

    assert to_python(value)[0] == p * (p - 1) // 2


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_compiled_scales_with_p(benchmark, p):
    expr = with_prelude(parse_program(SCALING_PROGRAM))
    program = compile_program(expr, p)
    value = benchmark(program.run)
    from repro.semantics.values import to_python

    assert to_python(value)[0] == p * (p - 1) // 2


def test_corpus_agreement(benchmark):
    exprs = [with_prelude(parse_program(s)) for s in well_typed_corpus()]

    def check_all():
        for expr in exprs:
            assert alpha_equal(evaluate(expr, 2), reify(run(expr, 2)))
            assert alpha_equal(
                evaluate(expr, 2), reify(compile_program(expr, 2).run())
            )

    benchmark.pedantic(check_all, rounds=1, iterations=1)
