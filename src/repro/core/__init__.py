"""The paper's primary contribution: the locality-constrained type system.

Public surface:

* types (:mod:`repro.core.types`) and constraints
  (:mod:`repro.core.constraints`) — the type algebra of section 4;
* schemes, substitution, instantiation, generalization
  (:mod:`repro.core.schemes`) — Definitions 1-3;
* the initial environment ``TC`` (:mod:`repro.core.initial_env`) — Fig. 6;
* inference (:mod:`repro.core.infer`) — the rules of Fig. 7, with
  derivation recording, plus :mod:`repro.core.judgments` to render the
  proof trees of Figs. 8-10;
* the Milner baseline (:mod:`repro.core.milner`) — what plain ML typing
  would accept, used for the comparison benchmarks.
"""

from repro.core.constraints import (
    FALSE,
    TRUE,
    CAnd,
    CFalse,
    CImp,
    CLoc,
    Constraint,
    CTrue,
    basic_constraint,
    conj,
    conj_all,
    constraint_atoms,
    evaluate,
    imp,
    is_satisfiable,
    is_satisfiable_branching,
    is_unsatisfiable,
    is_valid,
    locality,
    render_constraint,
    satisfying_assignments,
    simplify,
    solve,
    subst_constraint,
)
from repro.core.effects import (
    EffectKind,
    EffectWarning,
    analyze_effects,
    effect_errors,
    is_effect_safe,
)
from repro.core.errors import (
    NestingError,
    OccursCheckError,
    TypingError,
    UnboundVariableError,
    UnificationError,
    UnknownPrimitiveError,
)
from repro.core.infer import (
    Derivation,
    INFER_ENGINES,
    Inferencer,
    infer,
    infer_scheme,
    infer_with_derivation,
    typechecks,
)
from repro.core.uf import UFInferencer, UnionFind
from repro.core.initial_env import (
    PRIMITIVE_SCHEMES,
    constant_scheme,
    constant_type,
    primitive_scheme,
)
from repro.core.latex import (
    derivation_to_latex,
    explanation_to_latex,
    latex_escape,
)
from repro.core.judgments import (
    Explanation,
    explain,
    render_derivation,
    render_derivation_indented,
)
from repro.core.milner import milner_infer, milner_typechecks
from repro.core.prelude_env import prelude_env
from repro.core.normalize import (
    eliminate_variable,
    prune_constrained,
    prune_constraint,
)
from repro.core.schemes import (
    ConstrainedType,
    Subst,
    TypeEnv,
    TypeScheme,
    generalize,
    instantiate,
    mono,
    scheme_of,
)
from repro.core.types import (
    BOOL,
    INT,
    TArrow,
    TBase,
    TPair,
    TPar,
    TRef,
    TSum,
    TTuple,
    TVar,
    Type,
    UNIT_TYPE,
    arrow,
    contains_par,
    free_type_vars,
    fresh_tvar,
    has_nested_par,
    occurs_in,
    render_type,
)
from repro.core.unify import unifiable, unify

__all__ = [
    "BOOL",
    "CAnd",
    "CFalse",
    "CImp",
    "CLoc",
    "CTrue",
    "ConstrainedType",
    "Constraint",
    "Derivation",
    "EffectKind",
    "EffectWarning",
    "Explanation",
    "FALSE",
    "INFER_ENGINES",
    "INT",
    "Inferencer",
    "NestingError",
    "OccursCheckError",
    "PRIMITIVE_SCHEMES",
    "Subst",
    "TArrow",
    "TBase",
    "TPair",
    "TPar",
    "TRef",
    "TSum",
    "TRUE",
    "TTuple",
    "TVar",
    "Type",
    "TypeEnv",
    "TypeScheme",
    "TypingError",
    "UFInferencer",
    "UNIT_TYPE",
    "UnboundVariableError",
    "UnionFind",
    "UnificationError",
    "UnknownPrimitiveError",
    "arrow",
    "basic_constraint",
    "conj",
    "analyze_effects",
    "conj_all",
    "effect_errors",
    "constant_scheme",
    "constant_type",
    "constraint_atoms",
    "derivation_to_latex",
    "contains_par",
    "eliminate_variable",
    "evaluate",
    "explain",
    "explanation_to_latex",
    "free_type_vars",
    "fresh_tvar",
    "generalize",
    "has_nested_par",
    "imp",
    "infer",
    "infer_scheme",
    "infer_with_derivation",
    "instantiate",
    "is_effect_safe",
    "is_satisfiable",
    "is_satisfiable_branching",
    "is_unsatisfiable",
    "is_valid",
    "latex_escape",
    "locality",
    "milner_infer",
    "milner_typechecks",
    "mono",
    "occurs_in",
    "prelude_env",
    "primitive_scheme",
    "prune_constrained",
    "prune_constraint",
    "render_constraint",
    "render_derivation",
    "render_derivation_indented",
    "render_type",
    "satisfying_assignments",
    "scheme_of",
    "simplify",
    "solve",
    "subst_constraint",
    "typechecks",
    "unifiable",
    "unify",
]
