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

A type variable such as ``'a`` lexes as a ``TYVAR`` token, which only a
type annotation ``(e : 'a -> 'a)`` accepts; as an expression or binder
name it is a syntax error.  ``x'`` is an ordinary identifier.

The lexer makes one master-regex match per token: the match takes the
whitespace before the token with it, and line/column come from counting
the newlines between the previous token and this one.  Comments are
found by the same match and then scanned for their (nested) end.
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
    #: A type variable such as ``'a``; only a type annotation takes one.
    TYVAR = auto()
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

#: One match per token: the whitespace before it, then one alternative
#: per token class, tried in order.  ``(*`` comes before the symbols so
#: it always opens a comment, and a digit run glued to a letter is
#: caught before a plain integer.  Only ASCII digits and letters are
#: accepted; ``eof`` matches after trailing whitespace and ``bad`` takes
#: any other character.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<comment>\(\*)"
    r"|(?P<badint>[0-9]+[A-Za-z_])"
    r"|(?P<int>[0-9]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<tyvar>'[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>[\s\S]))"
)

#: The delimiters a (nested) comment body is scanned for.
_COMMENT_RE = re.compile(r"\(\*|\*\)")

#: Kinds of the non-word token classes.
_GROUP_KINDS = {
    "int": TokenKind.INT,
    "tyvar": TokenKind.TYVAR,
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
        count = source.count
        ident = TokenKind.IDENT
        # Newlines are counted from ``mark``, the start of the previous
        # token or comment, so a comment's own lines count at the next
        # match.
        pos = mark = 0
        line, line_start = 1, 0
        while True:
            found = match(source, pos)
            group = found.lastgroup
            start = found.start(group)
            newlines = count("\n", mark, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", mark, start) + 1
            mark = start
            loc = Loc(line, start - line_start + 1)
            pos = found.end()
            if group == "word":
                text = found[group]
                yield Token(_WORD_KINDS.get(text, ident), text, loc)
            elif group in _GROUP_KINDS:
                yield Token(_GROUP_KINDS[group], found[group], loc)
            elif group == "comment":
                pos = _comment_end(source, start, loc)
            elif group == "eof":
                yield Token(TokenKind.EOF, "", loc)
                return
            elif group == "badint":
                raise LexError(f"malformed number {found[group]!r}", loc)
            else:
                raise LexError(f"unexpected character {source[start]!r}", loc)


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
