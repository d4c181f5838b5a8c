"""Conformance tests for the two inference engines.

The substitution engine (``w``) is the paper's Fig. 7 rules transcribed
literally; the union-find engine (``uf``) is the production default —
in-place unification with path compression and Remy-style level-based
generalization, with every resolved type frozen back into the interned
node layer at rule boundaries.  The contract is *bit-identity*: both
engines must produce literally the same interned type and constraint
nodes (pruned and unpruned), identical derivation trees, and — on
rejected programs — the same error type and message, raw variable names
included.  These tests sweep that contract over the full curated
corpora, a 200-seed generated corpus, and the rejected/unsafe programs;
the speedup itself is guarded by ``benchmarks/bench_infer_engines.py``.
"""

from __future__ import annotations

import inspect

import pytest

from repro import perf
from repro.core.infer import INFER_ENGINES, infer, typechecks
from repro.core.milner import milner_typechecks
from repro.lang.parser import parse_expression as parse
from repro.testing import (
    assert_infer_conformance,
    infer_conformance_corpus,
    run_infer_engines,
)
from repro.testing.generators import ProgramGenerator, unsafe_corpus

CORPUS = infer_conformance_corpus()
GENERATED_SEEDS = 200
MUTANT_SEEDS = 100


class TestEngineDispatch:
    def test_registered_engines(self):
        assert INFER_ENGINES == ("w", "uf")

    def test_default_is_union_find(self):
        assert inspect.signature(infer).parameters["engine"].default == "uf"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown infer engine"):
            infer(parse("1 + 1"), engine="bogus")


class TestCorpusConformance:
    """Bit-identical judgments over every shipped and curated program,
    including the rejected corpus (error parity)."""

    @pytest.mark.parametrize(
        "name,source", CORPUS, ids=[name for name, _ in CORPUS]
    )
    def test_corpus_program_conforms(self, name, source):
        assert_infer_conformance(source)

    def test_corpus_includes_rejected_programs(self):
        names = [name for name, _ in CORPUS]
        assert any(name.startswith("rejected[") for name in names)


class TestGeneratedConformance:
    def test_200_seed_generated_corpus(self):
        for seed in range(GENERATED_SEEDS):
            expr = ProgramGenerator(seed=seed, p_hint=2).expression(
                depth=3 + seed % 4
            )
            assert_infer_conformance(expr)

    def test_unsafe_corpus_error_parity(self):
        """Every nesting-unsafe program is rejected by *both* engines
        with the identical error message (raw variable names included)."""
        for source in unsafe_corpus():
            report = run_infer_engines(source)
            assert report.conforms, report.explain()
            assert not report.reference.ok, (
                f"unsafe program unexpectedly accepted: {source!r}"
            )

    def test_divergence_would_be_reported(self):
        report = run_infer_engines("fun x -> x")
        assert report.conforms
        report.runs[1].error = "corrupted"
        assert not report.conforms
        assert "DIVERGES" in report.explain()


class TestMilnerSeparation:
    """Satellite: the paper's separation argument is engine-independent.

    ``mutate_to_nesting`` builds programs that are ill-typed *by
    nesting only*: Milner typing accepts them, the constrained system
    rejects them.  Both inference engines must produce the identical
    verdict on every mutant — and the identical rejection, bit for bit.
    """

    def test_100_seed_mutant_sweep(self):
        separated = 0
        for seed in range(MUTANT_SEEDS):
            mutant = ProgramGenerator(seed=seed, p_hint=2).mutate_to_nesting(
                depth=3
            )
            verdicts = {
                engine: typechecks(mutant, engine=engine)
                for engine in INFER_ENGINES
            }
            assert len(set(verdicts.values())) == 1, (
                f"seed {seed}: engines disagree on the mutant: {verdicts}"
            )
            report = run_infer_engines(mutant)
            assert report.conforms, f"seed {seed}: {report.explain()}"
            if milner_typechecks(mutant) and not verdicts["uf"]:
                separated += 1
        assert separated == MUTANT_SEEDS, (
            f"only {separated}/{MUTANT_SEEDS} mutants separate the systems "
            "(constraint-rejected AND Milner-accepted)"
        )


class TestUfCounters:
    def test_uf_counters_emitted(self):
        expr = parse("let f = fun x -> x in (f 1, f true)")
        with perf.collect() as stats:
            infer(expr, engine="uf")
        assert stats.counter("infer.uf.runs") == 1
        assert stats.counter("infer.uf.binds") > 0
        assert stats.counter("infer.uf.freezes") > 0
        assert stats.counter("infer.runs") == 1
        assert stats.counter("infer.nodes") > 0
        assert stats.counter("unify.calls") > 0

    def test_w_engine_emits_no_uf_counters(self):
        expr = parse("let f = fun x -> x in (f 1, f true)")
        with perf.collect() as stats:
            infer(expr, engine="w")
        assert stats.counter("infer.uf.runs") == 0
        assert stats.counter("infer.runs") == 1
        assert stats.counter("unify.calls") > 0

    def test_path_compression_counter_fires_on_var_chains(self):
        # Unifying (x0,x1) then (x1,x2) while all are unbound builds the
        # link chain x0 -> x1 -> x2; binding x2 to int afterwards means
        # the final resolution walks a path of length > 1 and compresses.
        source = """fun x0 -> fun x1 -> fun x2 ->
            let a = if true then x0 else x1 in
            let b = if true then x1 else x2 in
            x2 + 0"""
        with perf.collect() as stats:
            infer(parse(source), engine="uf")
        assert stats.counter("infer.uf.compressions") > 0
