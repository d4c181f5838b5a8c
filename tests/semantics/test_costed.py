"""Tests for costed execution: BSP accounting of mini-BSML programs."""

from __future__ import annotations

import pytest

from repro.bsp.params import BspParams
from repro.semantics.costed import run_costed, run_source
from repro.lang.parser import parse_expression as parse


PARAMS = BspParams(p=4, g=2.0, l=100.0)


class TestSuperstepStructure:
    def test_pure_local_program_has_no_barrier(self):
        result = run_source("mkpar (fun i -> i * i)", PARAMS, use_prelude=False)
        assert result.cost.S == 0
        assert result.cost.H == 0
        assert result.cost.W > 0

    def test_put_is_one_superstep(self):
        result = run_source(
            "put (mkpar (fun j -> fun dst -> j))", PARAMS, use_prelude=False
        )
        assert result.cost.S == 1

    def test_ifat_is_one_superstep(self):
        result = run_source(
            "if mkpar (fun i -> true) at 0 then mkpar (fun i -> 1)"
            " else mkpar (fun i -> 0)",
            PARAMS,
            use_prelude=False,
        )
        assert result.cost.S == 1
        # The boolean is broadcast one-to-all: the sender moves p-1 words,
        # so the relation's arity is h = p - 1.
        assert result.cost.H == PARAMS.p - 1

    def test_two_puts_are_two_supersteps(self):
        result = run_source(
            "let a = put (mkpar (fun j -> fun d -> j)) in"
            " put (mkpar (fun j -> fun d -> j))",
            PARAMS,
            use_prelude=False,
            # note: this is rejected statically (let of global with global
            # body is fine — both are global), so it runs
        )
        assert result.cost.S == 2

    def test_scan_has_log2_p_supersteps(self):
        result = run_source(
            "scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))", PARAMS
        )
        assert result.cost.S == 2  # log2(4)

    def test_scan_supersteps_grow_with_p(self):
        result = run_source(
            "scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))",
            BspParams(p=8, g=2.0, l=100.0),
        )
        assert result.cost.S == 3  # log2(8)


class TestHRelations:
    def test_put_total_exchange_h(self):
        # Every process sends 1 word to the other p-1: h = p-1.
        result = run_source(
            "put (mkpar (fun j -> fun dst -> j))", PARAMS, use_prelude=False
        )
        assert result.cost.H == PARAMS.p - 1

    def test_nc_messages_are_free(self):
        result = run_source(
            "put (mkpar (fun j -> fun dst -> nc ()))", PARAMS, use_prelude=False
        )
        assert result.cost.H == 0
        assert result.cost.S == 1  # the barrier still happens

    def test_self_messages_are_free(self):
        result = run_source(
            "put (mkpar (fun j -> fun dst -> if dst = j then j else nc ()))",
            PARAMS,
            use_prelude=False,
        )
        assert result.cost.H == 0

    def test_single_point_to_point(self):
        result = run_source(
            "put (mkpar (fun j -> fun dst ->"
            " if j = 0 then if dst = 1 then 42 else nc () else nc ()))",
            PARAMS,
            use_prelude=False,
        )
        assert result.cost.H == 1

    def test_message_size_scales_h(self):
        # Sending a 3-word pair-of-pairs: h = 3 for one message.
        result = run_source(
            "put (mkpar (fun j -> fun dst ->"
            " if j = 0 then if dst = 1 then ((1, 2), 3) else nc () else nc ()))",
            PARAMS,
            use_prelude=False,
        )
        assert result.cost.H == 3


class TestBcastFormula:
    """Formula (1): cost of bcast = p + (p-1)*s*g + l."""

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_h_term_is_p_minus_1_times_s(self, p):
        params = BspParams(p=p, g=1.0, l=10.0)
        result = run_source("bcast 0 (mkpar (fun i -> i))", params)
        assert result.cost.H == (p - 1) * 1
        assert result.cost.S == 1

    def test_message_size_multiplies(self):
        # s = 2 (a pair of ints)
        result = run_source("bcast 0 (mkpar (fun i -> (i, i)))", PARAMS)
        assert result.cost.H == (PARAMS.p - 1) * 2

    def test_local_work_is_linear_in_p(self):
        w = {}
        for p in (2, 4, 8):
            params = BspParams(p=p, g=1.0, l=10.0)
            w[p] = run_source("bcast 0 (mkpar (fun i -> i))", params).cost.W
        # W = a + b*p (the put evaluates the send function at every
        # destination): perfectly linear across doubling machine sizes.
        assert w[8] - w[4] == pytest.approx(2 * (w[4] - w[2]))
        assert w[4] > w[2]


class TestResultPlumbing:
    def test_value_and_cost_together(self):
        result = run_source("bcast 2 (mkpar (fun i -> i * 3))", PARAMS)
        assert result.python_value == [6, 6, 6, 6]
        assert result.total_time == pytest.approx(
            result.cost.total(PARAMS)
        )

    def test_decomposition_consistency(self):
        result = run_source(
            "scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))", PARAMS
        )
        assert result.cost.check_decomposition(PARAMS)

    def test_render_mentions_supersteps(self):
        result = run_source("bcast 0 (mkpar (fun i -> i))", PARAMS)
        text = result.render()
        assert "put" in text
        assert "W =" in text

    def test_run_costed_on_ast(self):
        result = run_costed(parse("mkpar (fun i -> i)"), PARAMS)
        assert result.python_value == [0, 1, 2, 3]

    def test_seq_is_the_only_backend(self):
        result = run_costed(parse("mkpar (fun i -> i)"), PARAMS, backend="seq")
        assert result.python_value == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "backend",
        ["thread", "process", "processes", "sequential", 5, None, ["seq"]],
        ids=["thread", "process", "processes", "sequential", "int", "null", "list"],
    )
    def test_other_backends_are_a_value_error(self, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            run_costed(parse("1"), PARAMS, backend=backend)


class TestDeepPrograms:
    def test_deep_let_tower_runs_costed(self):
        # Regression: run_costed recurses over the AST (prelude linking and
        # evaluation) and must guard the frame limit for deep programs.
        source = "".join(f"let x{i} = {i} in " for i in range(1500)) + "x0"
        result = run_source(source, PARAMS, use_prelude=False)
        assert result.python_value == 0
