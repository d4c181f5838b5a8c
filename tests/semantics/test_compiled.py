"""Unit tests for the closure-compiling evaluator: slot layout, constant
folding, cost identity with the tree engine, closures staying within the
engine that built them, and the engine selection surface."""

from __future__ import annotations

import pytest

from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams
from repro.lang.parser import parse_expression
from repro.lang.pretty import pretty
from repro.semantics.bigstep import Evaluator
from repro.semantics.compiled import (
    ENGINES,
    CompiledEvaluator,
    CompiledProgram,
    compile_program,
    get_engine,
)
from repro.semantics.errors import DivisionByZeroError, EvalError
from repro.semantics.values import (
    VClosure,
    VCompiledClosure,
    VParVec,
    reify,
    words,
)

PARAMS = BspParams(p=4, g=2.0, l=50.0)


def _both(source, env=None):
    """Evaluate on both engines with costed machines; return
    ((tree_value, tree_cost), (compiled_value, compiled_cost))."""
    expr = parse_expression(source)
    results = []
    for engine_cls in (Evaluator, CompiledEvaluator):
        machine = BspMachine(PARAMS)
        value = engine_cls(PARAMS.p, machine).eval(
            expr, dict(env) if env else None
        )
        results.append((value, machine.cost()))
    return results


def _agree(source, env=None):
    (tree_value, tree_cost), (compiled_value, compiled_cost) = _both(source, env)
    assert compiled_cost == tree_cost, source
    if isinstance(tree_value, (bool, int)):
        assert compiled_value == tree_value, source
    else:
        assert pretty(reify(compiled_value)) == pretty(reify(tree_value)), source
    return compiled_value, compiled_cost


# -- slots, shadowing, captures ----------------------------------------------


def test_let_slots_and_shadowing():
    value, _ = _agree("let x = 1 in let x = x + 1 in x * 10")
    assert value == 20


def test_case_branch_slots():
    value, _ = _agree("case inl 5 of inl x -> x + 1 | inr y -> y - 1")
    assert value == 6


def test_nested_captures():
    value, _ = _agree("let a = 5 in (fun x -> fun y -> x + y + a) 1 2")
    assert value == 8


def test_parvec_literal_items_share_outer_frame():
    # Parallel-vector literals have no surface syntax; build the AST
    # directly: let a = 10 in <a + 0, a + 1, a + 2, a + 3>.
    from repro.lang.ast import App, Const, Let, Pair, ParVec, Prim, Var

    expr = Let(
        "a",
        Const(10),
        ParVec(
            tuple(
                App(Prim("+"), Pair(Var("a"), Const(i)))
                for i in range(PARAMS.p)
            )
        ),
    )
    costs = []
    values = []
    for engine_cls in (Evaluator, CompiledEvaluator):
        machine = BspMachine(PARAMS)
        values.append(engine_cls(PARAMS.p, machine).eval(expr))
        costs.append(machine.cost())
    assert costs[0] == costs[1]
    assert all(isinstance(value, VParVec) for value in values)
    assert values[0].items == values[1].items == (10, 11, 12, 13)


def test_fix_recursion():
    value, _ = _agree(
        "(fix (fun f -> fun n -> if n <= 1 then 1 else n * f (n - 1))) 6"
    )
    assert value == 720


def test_unbound_variable_raises_at_runtime_only():
    # The dead branch references an unbound name; neither engine may
    # fail at compile/startup time.
    value, _ = _agree("if true then 1 else nowhere")
    assert value == 1
    with pytest.raises(EvalError, match="unbound variable 'nowhere'"):
        CompiledEvaluator(PARAMS.p).eval(parse_expression("nowhere"))


# -- constant folding ---------------------------------------------------------


def test_folding_preserves_cost_exactly():
    # A closed scalar subtree folds, but the folded step charges the ops
    # a tree evaluation would have charged — cost stays bit-identical.
    _agree("(1 + 2) * (3 + 4)")
    _agree("let x = 2 + 3 in x * x")
    _agree("nproc + 1")


def test_folding_keeps_error_timing():
    # 1/0 in a dead branch: folding must abort (compile-time evaluation
    # raises), and the branch must never run — on either engine.
    value, _ = _agree("if true then 1 else 1 / 0")
    assert value == 1
    # ... and in a live branch both engines raise the same error.
    expr = parse_expression("if false then 1 else 1 / 0")
    for engine_cls in (Evaluator, CompiledEvaluator):
        with pytest.raises(DivisionByZeroError):
            engine_cls(PARAMS.p).eval(expr)


def test_folding_never_rewrites_closure_bodies():
    # The stored body is the original source AST, so reification (and
    # the words() communication size) match the tree engine exactly.
    expr = parse_expression("fun x -> x + (1 + 2)")
    tree = Evaluator(PARAMS.p).eval(expr)
    compiled = CompiledEvaluator(PARAMS.p).eval(expr)
    assert isinstance(compiled, VCompiledClosure)
    assert pretty(reify(compiled)) == pretty(reify(tree))
    assert words(compiled) == words(tree)


# -- value model --------------------------------------------------------------


def test_compiled_closure_words_match_tree():
    source = "let a = 5 in let b = (1, 2) in fun x -> (a + x, b)"
    expr = parse_expression(source)
    tree = Evaluator(PARAMS.p).eval(expr)
    compiled = CompiledEvaluator(PARAMS.p).eval(expr)
    assert isinstance(tree, VClosure)
    assert isinstance(compiled, VCompiledClosure)
    assert words(compiled) == words(tree)
    assert pretty(reify(compiled)) == pretty(reify(tree))


def test_recursive_closure_reify_raises_like_tree():
    expr = parse_expression("fix (fun f -> fun n -> f n)")
    tree = Evaluator(PARAMS.p).eval(expr)
    compiled = CompiledEvaluator(PARAMS.p).eval(expr)
    for value in (tree, compiled):
        with pytest.raises(EvalError, match="recursive closure"):
            reify(value)


# -- one closure representation per run ------------------------------------


def test_closures_do_not_cross_engines():
    # Each engine applies only the closures it built; a foreign closure
    # is rejected rather than silently bridged.
    fn_expr = parse_expression("fun x -> x * x")
    for maker, runner in (
        (Evaluator, CompiledEvaluator),
        (CompiledEvaluator, Evaluator),
    ):
        fn = maker(PARAMS.p).eval(fn_expr)
        with pytest.raises(EvalError, match="non-function"):
            runner(PARAMS.p, BspMachine(PARAMS)).eval(
                parse_expression("f 9"), {"f": fn}
            )
        with pytest.raises(EvalError, match="'fix' expects a function"):
            runner(PARAMS.p).eval(parse_expression("fix f"), {"f": fn})


# -- compile once, run many ---------------------------------------------------


def test_compiled_program_reruns():
    program = compile_program(parse_expression("let x = 3 in x * x"), PARAMS.p)
    assert isinstance(program, CompiledProgram)
    assert program.run() == 9
    assert program.run() == 9


def test_compiled_program_env_names():
    program = compile_program(
        parse_expression("a + b"), PARAMS.p, env_names=("a", "b")
    )
    assert program.run(env={"a": 30, "b": 12}) == 42
    assert program.run(env={"a": 1, "b": 2}) == 3


def test_compiled_program_machine_width_check():
    program = compile_program(parse_expression("1 + 1"), PARAMS.p)
    with pytest.raises(ValueError, match="machine width"):
        program.run(machine=BspMachine(BspParams(p=2)))


# -- engine selection surface -------------------------------------------------


def test_get_engine():
    assert ENGINES == ("tree", "compiled")
    assert get_engine("tree") is Evaluator
    assert get_engine("compiled") is CompiledEvaluator
    with pytest.raises(ValueError, match="unknown engine 'x86'"):
        get_engine("x86")


def test_run_costed_engine_parameter():
    from repro.semantics.costed import run_costed

    expr = parse_expression("bcast 2 (mkpar (fun i -> i * i))")
    tree = run_costed(expr, PARAMS, use_prelude=True, engine="tree")
    compiled = run_costed(expr, PARAMS, use_prelude=True)
    assert compiled.python_value == tree.python_value == [4, 4, 4, 4]
    assert compiled.cost == tree.cost
