"""Robustness properties of the frontend: no crash is ever unstructured.

Whatever bytes come in, the lexer/parser must either succeed or raise the
library's own structured errors (LexError/ParseError with a location) —
never an arbitrary Python exception.  Same for the full pipeline: any
outcome must be a ReproError subclass or a value.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TypingError
from repro.core.infer import infer
from repro.lang.errors import LexError, ParseError, ReproError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_expression
from repro.lang.pretty import pretty
from repro.semantics.errors import EvalError
from repro.semantics.smallstep import evaluate

_source_alphabet = st.text(
    alphabet="abcxyz01 ()->=<>*+-/,;:!|'funletincaseofmkparputrefthenelseattrue²٣é\f\v",
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_source_alphabet)
def test_lexer_never_crashes_unstructured(source):
    try:
        tokenize(source)
    except LexError:
        pass  # structured failure is fine


@settings(max_examples=300, deadline=None)
@given(_source_alphabet)
def test_parser_never_crashes_unstructured(source):
    try:
        parse_expression(source)
    except (LexError, ParseError):
        pass


@settings(max_examples=150, deadline=None)
@given(_source_alphabet)
def test_full_pipeline_is_structured(source):
    try:
        expr = parse_expression(source)
    except (LexError, ParseError):
        return
    try:
        infer(expr)
    except TypingError:
        return
    try:
        evaluate(expr, 2, max_steps=5_000)
    except (EvalError, ReproError):
        pass


@settings(max_examples=150, deadline=None)
@given(_source_alphabet)
def test_parse_pretty_parse_is_stable(source):
    """Whenever a string parses, pretty-printing reaches a fixpoint."""
    try:
        expr = parse_expression(source)
    except (LexError, ParseError):
        return
    printed = pretty(expr)
    reparsed = parse_expression(printed)
    assert reparsed == expr
    assert pretty(reparsed) == printed


def test_error_messages_carry_locations():
    with pytest.raises(ParseError) as error:
        parse_expression("fun 1 -> x")
    assert error.value.loc is not None
    assert str(error.value.loc.line) in str(error.value)
