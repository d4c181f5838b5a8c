"""Test support: type-directed random program generation and the
conformance harness (:func:`conform`)."""

from repro.testing.differential import (
    Observation,
    Report,
    conform,
    conformance_corpus,
    infer_conformance_corpus,
)
from repro.testing.generators import (
    CORPUS_GLOBAL,
    CORPUS_IMPERATIVE,
    CORPUS_LOCAL,
    CORPUS_REJECTED,
    ProgramGenerator,
    unsafe_corpus,
    well_typed_corpus,
)

__all__ = [
    "CORPUS_GLOBAL",
    "CORPUS_IMPERATIVE",
    "CORPUS_LOCAL",
    "CORPUS_REJECTED",
    "Observation",
    "ProgramGenerator",
    "Report",
    "conform",
    "conformance_corpus",
    "infer_conformance_corpus",
    "unsafe_corpus",
    "well_typed_corpus",
]
