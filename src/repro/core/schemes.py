"""Constrained types ``[tau/C]``, type schemes, substitution (Def. 1),
instantiation (Def. 2) and generalization (Def. 3) from the paper.

The key subtlety reproduced here is Definition 1: applying a substitution
``phi`` to a constrained type does *not* just rewrite the atoms — it also
conjoins the *basic constraints* ``C_{phi(beta)}`` of every image of a
substituted variable that was free in the judgement.  This is what makes
an instantiation like ``alpha := int * (int par)`` for ``fst`` carry the
constraint ``L(int) => L(int par) = False`` and reject the program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.constraints import (
    TRUE,
    CAnd,
    CImp,
    CLoc,
    Constraint,
    basic_constraint,
    conj,
    constraint_atoms,
    imp,
    render_constraint,
    subst_constraint,
)
from repro.core.types import (
    TTuple,
    TVar,
    Type,
    apply_type_subst,
    fresh_tvar,
    free_type_vars,
    render_type,
    _variable_display_names,
)

#: Names for the alpha-renamed bound variables of :meth:`Subst.apply_scheme`.
#: A private counter rather than :func:`repro.core.types.fresh_tvar`: the
#: renamed names never escape a scheme (instantiation replaces them with
#: fresh variables, and display names hide them), so drawing them from the
#: global counter would only make fresh-variable numbering depend on how
#: often environments are re-applied — which the differential infer-engine
#: harness relies on being engine-independent.  The ``q`` hint is reserved
#: for this counter; no other call site uses it, so the names cannot
#: collide with globally fresh variables.
_scheme_rename_counter = itertools.count()


@dataclass(frozen=True)
class ConstrainedType:
    """A constrained simple type ``[tau / C]``."""

    type: Type
    constraint: Constraint = TRUE

    def free_vars(self) -> FrozenSet[str]:
        """``F([tau/C]) = F(tau) u F(C)``."""
        return free_type_vars(self.type) | constraint_atoms(self.constraint)

    def __str__(self) -> str:
        names = _variable_display_names(self.type)
        # Constraint-only variables get display names too, deterministically.
        for var in sorted(constraint_atoms(self.constraint)):
            if var not in names:
                names[var] = f"'{var}"
        type_text = render_type(self.type, names)
        if self.constraint == TRUE:
            return type_text
        return f"[{type_text} / {render_constraint(self.constraint, names)}]"


@dataclass(frozen=True)
class TypeScheme:
    """A type scheme ``forall a1...an . [tau / C]``."""

    quantified: Tuple[str, ...]
    body: ConstrainedType

    #: The cached :class:`InstancePlan` (not a field: set on first
    #: instantiation, invisible to equality, hashing and ``repr``).
    _plan = None

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars() - set(self.quantified)

    def __str__(self) -> str:
        if not self.quantified:
            return str(self.body)
        names = _variable_display_names(self.body.type)
        shown = ", ".join(names.get(q, f"'{q}") for q in self.quantified)
        return f"forall {shown}. {self.body}"


def scheme_of(ty: Type, constraint: Constraint = TRUE) -> TypeScheme:
    """A scheme quantifying every variable of ``ty`` (used for primitives)."""
    return TypeScheme(tuple(sorted(free_type_vars(ty))), ConstrainedType(ty, constraint))


def mono(ty: Type, constraint: Constraint = TRUE) -> TypeScheme:
    """A monomorphic scheme (no quantification)."""
    return TypeScheme((), ConstrainedType(ty, constraint))


class Subst:
    """A substitution: a finite map from type-variable names to types.

    Immutable.  ``apply_constrained`` implements Definition 1, which is the
    only way constraints should ever be pushed through a substitution
    during inference.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Optional[Mapping[str, Type]] = None) -> None:
        self.mapping: Dict[str, Type] = dict(mapping or {})

    @staticmethod
    def identity() -> "Subst":
        return Subst()

    @staticmethod
    def single(var: str, ty: Type) -> "Subst":
        return Subst({var: ty})

    def __bool__(self) -> bool:
        return bool(self.mapping)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subst) and self.mapping == other.mapping

    def __repr__(self) -> str:
        inner = ", ".join(
            f"'{var} := {render_type(ty)}" for var, ty in sorted(self.mapping.items())
        )
        return f"Subst({inner})"

    @property
    def domain(self) -> FrozenSet[str]:
        return frozenset(self.mapping)

    def apply_type(self, ty: Type) -> Type:
        return apply_type_subst(self.mapping, ty)

    def apply_constraint(self, constraint: Constraint) -> Constraint:
        """Atom rewriting only — use :meth:`apply_constrained` during
        inference so Definition 1's basic constraints are not lost."""
        return subst_constraint(self.mapping, constraint)

    def apply_constrained(self, ct: ConstrainedType) -> ConstrainedType:
        """Definition 1 on an unquantified constrained type::

            phi([tau/C]) = [phi(tau) / phi(C) /\\ AND C_{phi(beta_i)}]

        for every ``beta_i`` in ``Dom(phi)`` free in ``[tau/C]``.
        """
        touched = self.domain & ct.free_vars()
        extras = conj(*(basic_constraint(self.mapping[var]) for var in touched))
        return ConstrainedType(
            self.apply_type(ct.type),
            conj(self.apply_constraint(ct.constraint), extras),
        )

    def apply_scheme(self, scheme: TypeScheme) -> TypeScheme:
        """Definition 1 on a scheme, renaming bound variables out of reach.

        Quantified variables are alpha-renamed to fresh names first, which
        always validates the paper's "out of reach" side condition.
        """
        if not scheme.quantified:
            return TypeScheme((), self.apply_constrained(scheme.body))
        renaming = {
            old: TVar(f"q{next(_scheme_rename_counter)}")
            for old in scheme.quantified
        }
        rename = Subst({old: new for old, new in renaming.items()})
        body = ConstrainedType(
            rename.apply_type(scheme.body.type),
            rename.apply_constraint(scheme.body.constraint),
        )
        return TypeScheme(
            tuple(var.name for var in renaming.values()),
            self.apply_constrained(body),
        )

    def compose(self, earlier: "Subst") -> "Subst":
        """``self.compose(earlier)`` applies ``earlier`` first, then ``self``."""
        mapping: Dict[str, Type] = {
            var: self.apply_type(ty) for var, ty in earlier.mapping.items()
        }
        for var, ty in self.mapping.items():
            mapping.setdefault(var, ty)
        return Subst(mapping)


class InstancePlan:
    """How to build an instance of one scheme from its fresh variables.

    Compiled once per scheme (:func:`instance_plan`) and cached on it.
    A plan is a straight-line program over a value list that starts with
    the fresh instances of the quantified variables (in ``quantified``
    order) followed by ``constants`` — the scheme body's ground subtrees,
    kept as they are.  Each step builds one node from earlier slots, so
    only the nodes on a path to a quantified variable are rebuilt, and a
    subtree shared within the body is rebuilt once.  ``closed`` is true
    when every free variable of the body is quantified: the instance's
    free variables are then exactly the fresh ones.
    """

    __slots__ = ("constants", "steps", "type_slot", "constraint_slot", "closed")

    def __init__(self, scheme: TypeScheme) -> None:
        quantified = {name: index for index, name in enumerate(scheme.quantified)}
        constants: List[object] = []
        steps: List[Tuple[Callable, Tuple[Tuple[str, int], ...]]] = []
        refs: Dict[object, Tuple[str, int]] = {}

        def constant(node: object) -> Tuple[str, int]:
            constants.append(node)
            return ("const", len(constants) - 1)

        def step(builder: Callable, part_refs: Tuple[Tuple[str, int], ...]):
            steps.append((builder, part_refs))
            return ("step", len(steps) - 1)

        def build(node: object, builder: Callable, parts: Sequence[object]):
            part_refs = tuple(ref(part) for part in parts)
            if all(kind == "const" for kind, _ in part_refs):
                return constant(node)  # ground: kept as is
            return step(builder, part_refs)

        def ref(node: object) -> Tuple[str, int]:
            cached = refs.get(node)
            if cached is not None:
                return cached
            if isinstance(node, TVar):
                index = quantified.get(node.name)
                result = constant(node) if index is None else ("var", index)
            elif isinstance(node, CLoc):
                # ``L(v)`` under ``v := fresh`` is ``locality(fresh)``,
                # the atom ``L(fresh)``.
                index = quantified.get(node.var)
                result = (
                    constant(node)
                    if index is None
                    else step(_atom, (("var", index),))
                )
            elif isinstance(node, CAnd):
                result = build(node, conj, tuple(node.conjuncts))
            elif isinstance(node, CImp):
                result = build(node, imp, (node.antecedent, node.consequent))
            elif isinstance(node, TTuple):
                result = build(node, _tuple_type, node.items)
            elif isinstance(node, Type) and node.children():
                result = build(node, type(node), node.children())
            else:
                result = constant(node)
            refs[node] = result
            return result

        type_ref = ref(scheme.body.type)
        constraint_ref = ref(scheme.body.constraint)
        arity = len(scheme.quantified)
        offsets = {"var": 0, "const": arity, "step": arity + len(constants)}

        def slot(kind_index: Tuple[str, int]) -> int:
            kind, index = kind_index
            return offsets[kind] + index

        self.constants = tuple(constants)
        self.steps = tuple(
            (builder, tuple(slot(part) for part in parts)) for builder, parts in steps
        )
        self.type_slot = slot(type_ref)
        self.constraint_slot = slot(constraint_ref)
        self.closed = not scheme.free_vars()

    def run(self, instances: Sequence[Type]) -> ConstrainedType:
        """The instance under ``quantified[i] := instances[i]``."""
        values: List[object] = [*instances, *self.constants]
        for builder, slots in self.steps:
            values.append(builder(*map(values.__getitem__, slots)))
        return ConstrainedType(values[self.type_slot], values[self.constraint_slot])


def _tuple_type(*items: Type) -> Type:
    return TTuple(items)


def _atom(var: TVar) -> Constraint:
    return CLoc(var.name)


def instance_plan(scheme: TypeScheme) -> InstancePlan:
    """The scheme's cached :class:`InstancePlan`, compiled on first use."""
    plan = scheme._plan
    if plan is None:
        plan = InstancePlan(scheme)
        object.__setattr__(scheme, "_plan", plan)
    return plan


def instantiate(
    scheme: TypeScheme, fresh: Callable[[str], TVar] = fresh_tvar
) -> ConstrainedType:
    """Definition 2 with fresh variables: the most general instance.

    Fresh variables have trivial basic constraints, so Definition 1 reduces
    to atom renaming here; later unifications re-introduce the images'
    basic constraints through :meth:`Subst.apply_constrained`.  ``fresh``
    draws the instance variables (an engine's own allocator, or the
    global counter), one per quantified variable in ``quantified`` order.
    The renaming runs the scheme's :class:`InstancePlan`; the result is
    the same interned nodes ``Subst(mapping).apply_type`` and
    ``.apply_constraint`` build.  A scheme with nothing quantified is its
    own instance.
    """
    if not scheme.quantified:
        return scheme.body
    return instance_plan(scheme).run([fresh("i") for _ in scheme.quantified])


def generalize(ct: ConstrainedType, env: "TypeEnv") -> TypeScheme:
    """Definition 3: ``Gen([tau/C], E)`` quantifies ``F(tau) \\ F(E)``.

    Note the paper quantifies over the *type's* free variables only;
    variables appearing only in the constraint stay free.
    """
    quantified = tuple(sorted(free_type_vars(ct.type) - env.free_vars()))
    return TypeScheme(quantified, ct)


class TypeEnv:
    """An immutable typing environment ``E``: identifiers to type schemes."""

    __slots__ = ("_bindings", "_open")

    def __init__(self, bindings: Optional[Mapping[str, TypeScheme]] = None) -> None:
        self._bindings: Dict[str, TypeScheme] = dict(bindings or {})
        #: Names bound to a scheme with free variables (see
        #: :meth:`open_names`); None until first asked for.
        self._open: Optional[Tuple[str, ...]] = None if self._bindings else ()

    @staticmethod
    def empty() -> "TypeEnv":
        return TypeEnv()

    def extend(self, name: str, scheme: TypeScheme) -> "TypeEnv":
        env = TypeEnv.__new__(TypeEnv)
        env._bindings = {**self._bindings, name: scheme}
        opened = self._open
        if opened is not None and name not in opened and scheme.free_vars():
            opened = opened + (name,)
        env._open = opened
        return env

    def open_names(self) -> Tuple[str, ...]:
        """The names whose scheme has free variables.

        A closed scheme (every prelude scheme) has no free variables
        under any substitution, so environment free-variable sweeps only
        need these bindings.  Computed once per environment and carried
        through :meth:`extend`; a name may stay listed after a closed
        scheme shadows it, which only costs a lookup.
        """
        if self._open is None:
            self._open = tuple(
                name for name, scheme in self._bindings.items() if scheme.free_vars()
            )
        return self._open

    def lookup(self, name: str) -> Optional[TypeScheme]:
        return self._bindings.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    @property
    def domain(self) -> FrozenSet[str]:
        return frozenset(self._bindings)

    def free_vars(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for scheme in self._bindings.values():
            result |= scheme.free_vars()
        return result

    def apply(self, subst: Subst) -> "TypeEnv":
        return TypeEnv(
            {name: subst.apply_scheme(s) for name, s in self._bindings.items()}
        )

    def items(self) -> Iterable[Tuple[str, TypeScheme]]:
        return self._bindings.items()
