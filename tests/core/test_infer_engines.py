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
the corpus and the generated programs also run the evaluation axes, so
the conformance harness checks Theorem 1 on every value they produce.
The speedup itself is guarded by ``benchmarks/bench_infer_engines.py``.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro import obs, perf
from repro.core.constraints import CLoc, imp
from repro.core.errors import TypingError
from repro.core.infer import INFER_ENGINES, infer, typechecks
from repro.core.milner import milner_typechecks
from repro.core.schemes import ConstrainedType, TypeEnv, TypeScheme
from repro.core.types import TArrow, TVar
from repro.lang.parser import parse_expression as parse
from repro.service.handlers import ServiceConfig, ServiceCore
from repro.testing import conform, infer_conformance_corpus
from repro.testing.differential import fresh_names
from repro.testing.generators import (
    CORPUS_NAMED_ERRORS,
    ProgramGenerator,
    unsafe_corpus,
)

CORPUS = infer_conformance_corpus()
GENERATED_SEEDS = 200
MUTANT_SEEDS = 100


def _typing(program):
    """The typing axis alone: ``w`` then ``uf``, same fresh names."""
    return conform(program, schedules=())


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
    including the rejected corpus (error parity).  The corpus runs the
    whole product, so each accepted program's values are also checked
    against Theorem 1: no evaluation point gets stuck, and every value
    retypes at the inferred type."""

    @pytest.mark.parametrize(
        "name,source", CORPUS, ids=[name for name, _ in CORPUS]
    )
    def test_corpus_program_conforms(self, name, source):
        conform(source)

    def test_corpus_includes_rejected_programs(self):
        names = [name for name, _ in CORPUS]
        assert any(name.startswith("rejected[") for name in names)


class TestGeneratedConformance:
    def test_200_seed_generated_corpus(self):
        """The whole product, so Theorem 1 shares this seed budget: every
        evaluation point of every program must retype at the inferred
        type."""
        for seed in range(GENERATED_SEEDS):
            expr = ProgramGenerator(seed=seed, p_hint=2).expression(
                depth=3 + seed % 4
            )
            try:
                report = conform(expr)
            except AssertionError as error:  # pragma: no cover - diagnostic path
                raise AssertionError(f"seed {seed}: {error}") from error
            assert report.succeeded, f"seed {seed}: {report.explain()}"

    def test_unsafe_corpus_error_parity(self):
        """Every nesting-unsafe program is rejected by *both* engines
        with the identical error message (raw variable names included)."""
        for source in unsafe_corpus():
            report = _typing(source)
            assert not report.reference.ok, (
                f"unsafe program unexpectedly accepted: {source!r}"
            )

    def test_divergence_would_be_reported(self):
        report = _typing("fun x -> x")
        assert report.conforms
        report.typing[1].error = "corrupted"
        assert not report.conforms
        assert "first divergence at infer uf: error" in report.explain()


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
            try:
                _typing(mutant)
            except AssertionError as error:  # pragma: no cover - diagnostic path
                raise AssertionError(f"seed {seed}: {error}") from error
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


def _verdict(expr, checked: bool):
    """The product pass's (or, inside a trace window, the checked pass's)
    answer: the constrained type, or the error message."""
    try:
        if checked:
            with obs.trace():
                return infer(expr)
        return infer(expr)
    except TypingError as error:
        return f"{type(error).__name__}: {error}"


class TestProductPassErrorParity:
    """The product pass checks Solve(C) only at generalization points and
    re-runs the checked pass on any error, replaying its fresh names."""

    @pytest.mark.parametrize("source", CORPUS_NAMED_ERRORS)
    def test_named_errors_carry_fresh_names(self, source):
        report = _typing(source)
        assert not report.reference.ok
        assert re.search(r"'[a-z]+\d+", report.reference.error), report.reference.error

    def test_occurs_check_names_the_parameter(self):
        report = _typing("fun x -> x x")
        assert report.reference.error.startswith("OccursCheckError: occurs check: 'p")

    def test_nesting_in_let_bound_beats_body_unification_error(self):
        report = _typing(CORPUS_NAMED_ERRORS[1])
        for point in report.typing:
            assert point.error.startswith(
                "NestingError: parallel-vector nesting rejected at rule (Pair)"
            ), point.error

    def test_nesting_outside_any_let_beats_later_unification_error(self):
        report = _typing(CORPUS_NAMED_ERRORS[2])
        for point in report.typing:
            assert point.error.startswith("NestingError:"), point.error

    def test_open_scheme_with_free_constraint_atoms_prunes_like_w(self):
        """A session-style binding keeps a free constraint atom ``L(z)``;
        the environment sweep must still count it at every ``let``."""
        scheme = TypeScheme(
            ("a",),
            ConstrainedType(TArrow(TVar("a"), TVar("a")), imp(CLoc("z"), CLoc("a"))),
        )
        env = TypeEnv({"g": scheme})
        expr = parse("fun w -> let y = g w in let k = y in k")
        results = []
        with fresh_names() as rewind:
            for engine in INFER_ENGINES:
                results.append(infer(expr, env, engine=engine))
                rewind()
        reference, union_find = results
        assert union_find.type is reference.type
        assert union_find.constraint is reference.constraint
        assert "z" in str(reference.constraint)

    def test_product_rejects_iff_checked_rejects(self):
        """Property sweep over the generated and mutant seeds: the two
        passes of the union-find engine agree on the verdict, and on the
        exact type or error."""
        programs = [
            ProgramGenerator(seed=seed, p_hint=2).expression(depth=3 + seed % 4)
            for seed in range(GENERATED_SEEDS)
        ] + [
            ProgramGenerator(seed=seed, p_hint=2).mutate_to_nesting(depth=3)
            for seed in range(MUTANT_SEEDS)
        ]
        rejected = 0
        for index, expr in enumerate(programs):
            with fresh_names() as rewind:
                product = _verdict(expr, checked=False)
                rewind()
                checked = _verdict(expr, checked=True)
            if isinstance(product, str):
                rejected += 1
                assert product == checked, f"program {index}"
            else:
                assert not isinstance(checked, str), f"program {index}: {checked}"
                assert product.type is checked.type, f"program {index}"
                assert product.constraint is checked.constraint, f"program {index}"
        assert rejected >= MUTANT_SEEDS


def _let_chain(n: int) -> str:
    lines = ["let x0 = 1 in"]
    lines += [f"let x{j} = x{j - 1} + {j} in" for j in range(1, n)]
    return "\n".join(lines) + f"\nx{n - 1}"


class TestProductPassGuards:
    """Deterministic guards on what the product pass does (no timing)."""

    @pytest.mark.parametrize("n", [1, 10, 40])
    def test_solve_checks_are_linear_in_lets(self, n):
        expr = parse(_let_chain(n))
        with perf.collect() as stats:
            infer(expr)
        # A let's bound, its conclusion, and the root.
        assert stats.counter("infer.solve_checks") == 2 * n + 1
        assert stats.counter("infer.nodes") == expr.size()

    def test_checked_pass_checks_every_judgment(self):
        expr = parse(_let_chain(10))
        with perf.collect() as stats, obs.trace() as window:
            infer(expr)
        assert stats.counter("infer.solve_checks") == expr.size()
        assert len(window.spans("judgment")) == expr.size()
        assert len(window.spans("solve")) == expr.size()

    def test_product_pass_emits_no_per_node_records(self):
        records = []
        sink = records.append
        obs.add_sink(sink)
        try:
            infer(parse(_let_chain(5)))
        finally:
            obs.remove_sink(sink)
        assert [record.name for record in records] == ["infer"]

    def test_untraced_typecheck_sends_one_inference_record(self):
        from repro.core.prelude_env import prelude_env

        prelude_env()  # built once per process; keep it out of the count
        core = ServiceCore(ServiceConfig(trace_summaries=False))
        records = []

        def sink(record):
            if record.track == obs.INFERENCE_TRACK:
                records.append(record.name)

        obs.metrics.enable()
        obs.add_sink(sink)
        try:
            status, _, cache = core.handle_typecheck({"program": _let_chain(8)})
        finally:
            obs.remove_sink(sink)
            obs.metrics.disable()
        assert (status, cache) == (200, "miss")
        assert records == ["infer"]
