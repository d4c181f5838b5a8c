"""Lexer for the concrete syntax of mini-BSML.

The concrete syntax is a small OCaml-like surface language::

    let bcast = fun n -> fun vec ->
      let tosend = mkpar (fun i -> fun v -> fun dst ->
                            if i = n then v else nc ()) in
      let recv = put (apply (tosend, vec)) in
      apply (recv, mkpar (fun pid -> n))
    in bcast

Comments are OCaml style ``(* ... *)`` and nest.  Integers, the booleans
``true``/``false`` and the unit literal ``()`` are the constants.  Binary
operators ``+ - * / mod = <> < <= > >= && ||`` are sugar for the pair-taking
primitives of the paper (``e1 + e2`` parses to ``(+) (e1, e2)``).
"""

from __future__ import annotations

import re
from enum import Enum, auto, unique
from typing import Iterator, List, NamedTuple

from repro.lang.ast import Loc
from repro.lang.errors import LexError


@unique
class TokenKind(Enum):
    INT = auto()
    IDENT = auto()
    KEYWORD = auto()
    SYMBOL = auto()
    EOF = auto()


#: Reserved words that can never be identifiers.
KEYWORDS = frozenset(
    (
        "fun", "let", "in", "if", "then", "else", "at", "true", "false",
        # sum types (extension, paper section 6)
        "case", "of", "inl", "inr",
    )
)

#: Multi-character symbols, longest first so maximal munch works.
_SYMBOLS = (
    ";;",
    ":=",
    ":",
    "->",
    "<=",
    ">=",
    "<>",
    "&&",
    "||",
    "(",
    ")",
    ",",
    "=",
    "+",
    "-",
    "*",
    "/",
    "<",
    ">",
    "|",
    "!",
    ";",
)

#: One alternative per token class, tried in order at each position.
#: ``(*`` comes before the symbols so it always opens a comment, and a
#: digit run glued to a letter is caught before a plain integer.  Only
#: ASCII digits and letters are accepted.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>\(\*)"
    r"|(?P<badint>[0-9]+[A-Za-z_])"
    r"|(?P<int>[0-9]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<tyvar>'[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")"
)

#: The delimiters a (nested) comment body is scanned for.
_COMMENT_RE = re.compile(r"\(\*|\*\)")

#: Kinds of the non-word token classes; a type variable such as ``'a``
#: (used in ascriptions) is an identifier.
_GROUP_KINDS = {
    "int": TokenKind.INT,
    "tyvar": TokenKind.IDENT,
    "symbol": TokenKind.SYMBOL,
}

#: Words that are not identifiers; ``mod`` is a binary operator spelled
#: as a word.
_WORD_KINDS = dict.fromkeys(KEYWORDS, TokenKind.KEYWORD)
_WORD_KINDS["mod"] = TokenKind.SYMBOL


class Token(NamedTuple):
    """A lexical token with its kind, text and source location."""

    kind: TokenKind
    text: str
    loc: Loc

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<end of input>"
        return repr(self.text)


class Lexer:
    """A one-pass lexer over a source string."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.source = source
        self.filename = filename

    def tokens(self) -> Iterator[Token]:
        """Yield every token of the input, ending with a single EOF token.

        Tabs and carriage returns count as one column each; a column is
        the offset from the character after the last newline.
        """
        source = self.source
        match = _TOKEN_RE.match
        ident = TokenKind.IDENT
        pos, end = 0, len(source)
        line, line_start = 1, 0
        while pos < end:
            found = match(source, pos)
            if found is None:
                loc = Loc(line, pos - line_start + 1)
                raise LexError(f"unexpected character {source[pos]!r}", loc)
            group = found.lastgroup
            stop = found.end()
            if group == "space" or group == "comment":
                if group == "comment":
                    stop = _comment_end(source, pos, Loc(line, pos - line_start + 1))
                newlines = source.count("\n", pos, stop)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", pos, stop) + 1
            else:
                loc = Loc(line, pos - line_start + 1)
                text = found.group()
                if group == "word":
                    yield Token(_WORD_KINDS.get(text, ident), text, loc)
                elif group == "badint":
                    raise LexError(f"malformed number {text!r}", loc)
                else:
                    yield Token(_GROUP_KINDS[group], text, loc)
            pos = stop
        yield Token(TokenKind.EOF, "", Loc(line, pos - line_start + 1))


def _comment_end(source: str, start: int, loc: Loc) -> int:
    """The offset just past the comment opening at ``start``; comments nest."""
    depth = 0
    for delimiter in _COMMENT_RE.finditer(source, start):
        depth += 1 if delimiter.group() == "(*" else -1
        if depth == 0:
            return delimiter.end()
    raise LexError("unterminated comment", loc)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    return list(Lexer(source, filename).tokens())
