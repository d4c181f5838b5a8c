"""Parity of the union-find engine's shortcuts with the definitions they
replace.

* :func:`repro.core.schemes.instantiate` runs a per-scheme
  :class:`~repro.core.schemes.InstancePlan`; under the same fresh names
  its instance must be the very interned nodes the literal Definition 2
  (``Subst(mapping).apply_type`` / ``.apply_constraint``) builds.
* :meth:`repro.core.uf.UnionFind.resolve_constraint` stands in for
  ``resolve(ct).constraint`` wherever a rule drops a premise's type; at
  every call it must return the literal Definition 1 constraint, basic
  constraints of the bound variables' images included.

Both are checked on the shipped schemes and over the 200-program
generated corpus the engine-conformance sweep uses.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.constraints import basic_constraint, conj
from repro.core.errors import TypingError
from repro.core.initial_env import PRIMITIVE_SCHEMES, constant_scheme
from repro.core.prelude_env import prelude_env
from repro.core.schemes import (
    ConstrainedType,
    Subst,
    TypeEnv,
    instance_plan,
    instantiate,
)
from repro.core.types import TVar
from repro.core.uf import UFInferencer, UnionFind
from repro.lang.ast import UNIT, Const
from repro.lang.limits import deep_recursion
from repro.lang.parser import parse_program
from repro.testing.generators import ProgramGenerator, unsafe_corpus

GENERATED_SEEDS = 200

_names = itertools.count()


def _generated(seed):
    return ProgramGenerator(seed=seed, p_hint=2).expression(depth=3 + seed % 4)


def _assert_definition_2(scheme):
    """The plan's instance is Definition 2's, node for node."""
    fresh = [TVar(f"plan{next(_names)}") for _ in scheme.quantified]
    drawn = iter(fresh)
    instance = instantiate(scheme, lambda hint: next(drawn))
    assert next(drawn, None) is None, "one fresh variable per quantified one"
    literal = Subst(dict(zip(scheme.quantified, fresh)))
    assert instance.type is literal.apply_type(scheme.body.type), scheme
    assert instance.constraint is literal.apply_constraint(
        scheme.body.constraint
    ), scheme


def _shipped_schemes():
    schemes = [scheme for _, scheme in prelude_env().items()]
    schemes += PRIMITIVE_SCHEMES.values()
    schemes += [constant_scheme(Const(value)) for value in (0, 7, True, False, UNIT)]
    return schemes


class _RecordingInferencer(UFInferencer):
    """Keeps every scheme a ``let`` generalizes."""

    def __init__(self, schemes, **options):
        super().__init__(**options)
        self.schemes = schemes

    def _generalize(self, ct, entry_level):
        scheme = super()._generalize(ct, entry_level)
        self.schemes.append(scheme)
        return scheme


class _CheckingUnionFind(UnionFind):
    """Checks every constraint-only resolve against Definition 1."""

    def __init__(self):
        super().__init__()
        self.checked_sites = 0

    def resolve_constraint(self, ct: ConstrainedType):
        result = super().resolve_constraint(ct)
        bound = [name for name in ct.free_vars() if name in self.link]
        literal = conj(
            self.freeze_constraint(ct.constraint),
            conj(*(basic_constraint(self.freeze_type(TVar(name))) for name in bound)),
        )
        assert result is literal, ct
        self.checked_sites += 1
        return result


def _infer(engine, expr, env=None):
    with deep_recursion():
        try:
            engine.infer(env or TypeEnv.empty(), expr)
        except TypingError:
            pass


class TestInstantiationPlans:
    def test_shipped_schemes_match_definition_2(self):
        schemes = _shipped_schemes()
        assert any(scheme.quantified for scheme in schemes)
        for scheme in schemes:
            _assert_definition_2(scheme)

    def test_instantiating_twice_reuses_the_plan(self):
        scheme = PRIMITIVE_SCHEMES["fst"]
        _assert_definition_2(scheme)
        plan = instance_plan(scheme)
        _assert_definition_2(scheme)
        assert instance_plan(scheme) is plan

    def test_unquantified_scheme_is_its_own_instance(self):
        scheme = constant_scheme(Const(3))
        assert instantiate(scheme) is scheme.body

    def test_plan_is_invisible_to_scheme_equality(self):
        scheme = PRIMITIVE_SCHEMES["fst"]
        instance_plan(scheme)
        copy = type(scheme)(scheme.quantified, scheme.body)
        assert copy == scheme and hash(copy) == hash(scheme)
        assert "plan" not in repr(scheme).lower()

    @pytest.mark.parametrize("checked", [False, True], ids=["product", "checked"])
    def test_generated_let_schemes_match_definition_2(self, checked):
        schemes = []
        for seed in range(GENERATED_SEEDS):
            _infer(_RecordingInferencer(schemes, checked=checked), _generated(seed))
        assert any(scheme.quantified for scheme in schemes)
        for scheme in schemes:
            _assert_definition_2(scheme)


class TestConstraintOnlyResolve:
    @pytest.mark.parametrize("checked", [False, True], ids=["product", "checked"])
    def test_generated_corpus_premise_sites(self, checked):
        sites = 0
        for seed in range(GENERATED_SEEDS):
            engine = UFInferencer(checked=checked)
            engine.uf = _CheckingUnionFind()
            _infer(engine, _generated(seed))
            sites += engine.uf.checked_sites
        assert sites > GENERATED_SEEDS

    def test_rejected_programs_premise_sites(self):
        """The nesting-unsafe corpus: both passes, up to the failing rule."""
        env = prelude_env()
        for source in unsafe_corpus():
            for checked in (False, True):
                engine = UFInferencer(checked=checked)
                engine.uf = _CheckingUnionFind()
                _infer(engine, parse_program(source), env)
