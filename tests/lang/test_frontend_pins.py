"""Pins on the frontend's exact output: tokens, ASTs, locations, errors.

The lexer and parser are tuned for speed; these tests hold every
observable result fixed while they change.  The golden digests hash each
parsed node's class, its non-child fields and its source location, so a
change that moves a single ``Loc`` or regroups a single operator fails
here even when the tree still evaluates the same.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

import pytest

from repro.lang import parser as parser_module
from repro.lang.ast import App, Const, Expr, Let, Pair, Prim, Var
from repro.lang.errors import LexError, ParseError
from repro.lang.lexer import TokenKind, tokenize
from repro.lang.parser import parse_definitions, parse_expression, parse_program
from repro.lang.prelude import PRELUDE_SOURCE

PROGRAMS = Path(__file__).resolve().parents[2] / "programs"


def _is_child(value) -> bool:
    return isinstance(value, Expr) or (
        isinstance(value, tuple) and any(isinstance(item, Expr) for item in value)
    )


def _update(hasher, expr: Expr) -> None:
    for node in expr.walk():
        scalars = "|".join(
            f"{field.name}={getattr(node, field.name)!r}"
            for field in fields(node)
            if not _is_child(getattr(node, field.name))
        )
        loc = node.loc
        where = "-" if loc is None else f"{loc.line}:{loc.column}"
        hasher.update(f"{type(node).__name__}({scalars})@{where}\n".encode())


def program_digest(source: str) -> str:
    """SHA-256 over the pre-order (class, non-child fields, loc) stream."""
    hasher = hashlib.sha256()
    _update(hasher, parse_program(source))
    return hasher.hexdigest()


def prelude_digest() -> str:
    hasher = hashlib.sha256()
    for name, body in parse_definitions(PRELUDE_SOURCE, filename="<prelude>"):
        hasher.update(f"def {name}\n".encode())
        _update(hasher, body)
    return hasher.hexdigest()


#: Produced by the character-loop lexer and layered recursive-descent
#: parser this frontend replaced.
GOLDEN_PROGRAMS = {
    "broadcast.bsml": "3f3fde9abcaa432c48a9d46e62fdec60659bb280774ea6c79e5f757aff05a4ca",
    "inner_product.bsml": "82ddce9a016e1240a9c19dc93df1406f6c1a8f709d544b638119a9f57af102f1",
    "maximum.bsml": "7d7a44b55a49961f591a40e599bdcd4bb3466c84046bac84d25a66fa3d860bf5",
    "odd_even_sort.bsml": "8b5020c31b88c666bccfe67d0f09b823fb84840c49869df44b2e0d83ea915eb7",
    "parallel_prefix.bsml": "dd9b7f64a28c4c9695b5ee30cf8fc51920776f262e99ca6d3e1b64faebe26bb5",
}
GOLDEN_PRELUDE = "25b721f648d6145b92f36c68d728baf3bca3121e5273fddb6e9b20e292e9ed81"


class TestGoldenDigests:
    def test_every_program_is_pinned(self):
        assert sorted(path.name for path in PROGRAMS.glob("*.bsml")) == sorted(
            GOLDEN_PROGRAMS
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
    def test_program(self, name):
        source = (PROGRAMS / name).read_text()
        assert program_digest(source) == GOLDEN_PROGRAMS[name]

    def test_prelude(self):
        assert prelude_digest() == GOLDEN_PRELUDE


def _pos(loc):
    return None if loc is None else (loc.line, loc.column)


def _locs(source):
    return [(t.text, t.loc.line, t.loc.column) for t in tokenize(source)]


class TestLexerLocations:
    def test_tab_is_one_column(self):
        assert _locs("a\tb\t\tc") == [("a", 1, 1), ("b", 1, 3), ("c", 1, 6), ("", 1, 7)]

    def test_crlf_ends_a_line_and_cr_is_one_column(self):
        assert _locs("a\r\nb\r c") == [("a", 1, 1), ("b", 2, 1), ("c", 2, 4), ("", 2, 5)]

    def test_comment_spanning_lines(self):
        assert _locs("x (* one\n two *) y\n\n z") == [
            ("x", 1, 1),
            ("y", 2, 9),
            ("z", 4, 2),
            ("", 4, 3),
        ]

    def test_nested_comment(self):
        assert _locs("(* a (* b\n *) c *)\n  d (* (**) *)e") == [
            ("d", 3, 3),
            ("e", 3, 15),
            ("", 3, 16),
        ]

    def test_eof_after_trailing_newline(self):
        assert _locs("a\n") == [("a", 1, 1), ("", 2, 1)]

    def test_unterminated_nested_comment_points_at_the_outer_opener(self):
        with pytest.raises(LexError) as error:
            tokenize("x\n  (* a (* b *) c\n d")
        assert _pos(error.value.loc) == (2, 3)
        assert str(error.value) == "2:3: unterminated comment"

    def test_error_after_a_comment_and_tab(self):
        with pytest.raises(LexError) as error:
            tokenize("1 (* x\n*)\t@")
        assert str(error.value) == "2:4: unexpected character '@'"

    def test_malformed_number_message(self):
        with pytest.raises(LexError) as error:
            tokenize("x\n 12abc")
        assert str(error.value) == "2:2: malformed number '12a'"

    @pytest.mark.parametrize("source, char", [("²", "²"), ("1 + ٣", "٣"), ("x\f", "\f")])
    def test_only_ascii_digits_and_spaces(self, source, char):
        with pytest.raises(LexError, match="unexpected character") as error:
            tokenize(source)
        assert repr(char) in str(error.value)

    def test_token_kinds(self):
        kinds = [t.kind for t in tokenize("let x' = 'a mod 1")]
        assert kinds == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.SYMBOL,
            TokenKind.TYVAR,
            TokenKind.SYMBOL,
            TokenKind.INT,
            TokenKind.EOF,
        ]


def _offset(source, loc):
    """The offset of ``loc``: lines end at ``\\n``; every other
    character, tab and ``\\r`` included, is one column."""
    line_start = 0
    for _ in range(loc.line - 1):
        line_start = source.index("\n", line_start) + 1
    return line_start + loc.column - 1


def _relayouts(source):
    """The same tokens laid out with tabs, CRLF line ends, nested
    comments and trailing whitespace."""
    return (
        source,
        source.replace(" ", "\t"),
        source.replace("\n", "\r\n"),
        "(* lead (* nested\n *) *)" + source.replace("\n", " (* a (* b *)\n c *)\n"),
        source.replace("\n", " \t\n") + "  \r\n\t \n",
    )


def _location_corpus():
    """The shipped programs (part of the conformance corpus), the
    rejected corpora, the prelude and 200 generated programs."""
    from repro.lang.pretty import pretty
    from repro.testing import infer_conformance_corpus
    from repro.testing.generators import ProgramGenerator

    sources = [source for _, source in infer_conformance_corpus()]
    sources.append(PRELUDE_SOURCE)
    sources += [
        pretty(ProgramGenerator(seed=seed, p_hint=2).expression(depth=3 + seed % 4))
        for seed in range(200)
    ]
    return sources


class TestTokenLocationsOverCorpora:
    def test_every_token_starts_at_its_location(self):
        checked = 0
        for base in _location_corpus():
            for source in _relayouts(base):
                tokens = tokenize(source)
                previous = -1
                for token in tokens[:-1]:
                    offset = _offset(source, token.loc)
                    assert offset > previous, (source, token)
                    assert source.startswith(token.text, offset), (source, token)
                    previous = offset
                    checked += 1
                eof = tokens[-1]
                assert eof.kind is TokenKind.EOF and eof.text == ""
                assert _offset(source, eof.loc) == len(source), source
        assert checked > 10_000

    @pytest.mark.parametrize(
        "source, message",
        [
            ("let x =   @ 1", "1:11: unexpected character '@'"),
            ("let x = 1\n  # 2", "2:3: unexpected character '#'"),
            ("x\r\n\t$", "2:2: unexpected character '$'"),
            ("f  3x", "1:4: malformed number '3x'"),
            ("1\n\t (* a\n *) 42_", "3:5: malformed number '42_'"),
        ],
    )
    def test_lex_error_messages_and_locations(self, source, message):
        with pytest.raises(LexError) as error:
            tokenize(source)
        assert str(error.value) == message


def _op(symbol, left, right):
    return App(Prim(symbol), Pair(left, right))


def _shape(expr):
    """(class, (line, column)) of every node, pre-order."""
    return [(type(node).__name__, _pos(node.loc)) for node in expr.walk()]


class TestOperatorParsing:
    def test_comparisons_under_and(self):
        expr = parse_expression("a < b && c < d")
        assert expr == _op("&&", _op("<", Var("a"), Var("b")), _op("<", Var("c"), Var("d")))
        assert [loc for _, loc in _shape(expr) if loc is not None] == [
            (1, 7), (1, 3), (1, 1), (1, 5), (1, 12), (1, 10), (1, 14),
        ]

    def test_comparison_binds_tighter_than_and(self):
        expr = parse_expression("a && b < c")
        assert expr == _op("&&", Var("a"), _op("<", Var("b"), Var("c")))
        assert _pos(expr.loc) == (1, 3)

    @pytest.mark.parametrize(
        "source, message",
        [
            ("a < b < c", "1:7: unexpected '<' after expression"),
            ("x && a < b < c", "1:12: unexpected '<' after expression"),
            ("a + b = c <> d", "1:11: unexpected '<>' after expression"),
            ("(a < b < c)", "1:8: expected ')', found '<'"),
        ],
    )
    def test_comparisons_do_not_chain(self, source, message):
        with pytest.raises(ParseError) as error:
            parse_expression(source)
        assert str(error.value) == message

    def test_negation_then_product(self):
        expr = parse_expression("-x * y")
        assert expr == _op("*", _op("-", Const(0), Var("x")), Var("y"))
        assert _shape(expr)[:4] == [
            ("App", (1, 4)), ("Prim", None), ("Pair", None), ("App", (1, 1)),
        ]

    def test_product_with_negated_operand(self):
        expr = parse_expression("a * -b")
        assert expr == _op("*", Var("a"), _op("-", Const(0), Var("b")))
        assert _pos(expr.arg.second.loc) == (1, 5)

    def test_sequence_after_toplevel_let_in(self):
        expr = parse_program("let x = 1 in x ; 2")
        assert expr == Let("x", Const(1), Let("_", Var("x"), Const(2)))
        assert _pos(expr.loc) == (1, 1)
        assert _pos(expr.body.loc) == (1, 16)

    def test_assignment_is_loosest_and_right_associative(self):
        expr = parse_expression("a := b := c || d")
        assert expr == _op(":=", Var("a"), _op(":=", Var("b"), _op("||", Var("c"), Var("d"))))


class TestSinglePassToplevel:
    """A top-level ``let`` bound is parsed once, whether a definition or
    a ``let … in`` follows."""

    @pytest.fixture
    def entries(self, monkeypatch):
        starts = []
        original = parser_module._Parser.parse_expr

        def counting(self):
            starts.append(self.index)
            return original(self)

        monkeypatch.setattr(parser_module._Parser, "parse_expr", counting)
        return starts

    @pytest.mark.parametrize(
        "source", ["let a = (1 + 2) in a", "let a = (1 + 2) ;; a", "let a = (1 + 2)"]
    )
    def test_bound_is_entered_once(self, entries, source):
        if source.endswith(")"):
            parse_definitions(source)
        else:
            parse_program(source)
        bound_start = 3  # let a = (
        assert entries.count(bound_start) == 1
