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

:class:`Scan` makes one pass of a master regex over the source: each
match takes the whitespace before a token with it, and the token's kind,
text and start offset go into three flat lists, so no token or location
object is made per token.  A :class:`~repro.lang.ast.Loc` is computed
from an offset and a table of line starts, only for the tokens that need
one: a parsed node's location or an error's position.  Comments are
found by the same match and then scanned for their (nested) end.  The
parser reads the lists directly; :func:`tokenize` is the view of a scan
as :class:`Token` objects.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum, auto, unique
from typing import List, NamedTuple

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

#: The group numbers of the token classes: a match's ``lastindex`` is
#: the class it found.
_COMMENT, _BADINT, _INT, _WORD, _TYVAR, _SYMBOL, _EOF = (
    _TOKEN_RE.groupindex[name]
    for name in ("comment", "badint", "int", "word", "tyvar", "symbol", "eof")
)

#: The delimiters a (nested) comment body is scanned for.
_COMMENT_RE = re.compile(r"\(\*|\*\)")

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


#: ``Loc(line, column)`` without the named tuple's Python-level
#: ``__new__``: the parser makes one per located node.
_new_loc = tuple.__new__


class Scan:
    """The tokens of one source as three flat lists, ending with EOF.

    ``kinds[i]``, ``texts[i]`` and ``starts[i]`` are the kind, text and
    start offset of token ``i``.  No token or location object is made
    per token: :meth:`loc` computes a location from the offset and a
    table of line starts, only for the tokens that need one.
    """

    __slots__ = ("kinds", "texts", "starts", "line_starts")

    def __init__(self, source: str) -> None:
        kinds: List[TokenKind] = []
        texts: List[str] = []
        starts: List[int] = []
        self.kinds, self.texts, self.starts = kinds, texts, starts
        self.line_starts = _line_starts(source)
        add_kind, add_text, add_start = kinds.append, texts.append, starts.append
        word_kind = _WORD_KINDS.get
        ident, symbol, integer = TokenKind.IDENT, TokenKind.SYMBOL, TokenKind.INT
        pos = 0
        while True:
            # ``finditer`` restarts only after a comment: every other
            # match starts where the previous one ended.
            for found in _TOKEN_RE.finditer(source, pos):
                group = found.lastindex
                if group == _WORD:
                    text = found[group]
                    add_kind(word_kind(text, ident))
                elif group == _SYMBOL:
                    text = found[group]
                    add_kind(symbol)
                elif group == _INT:
                    text = found[group]
                    add_kind(integer)
                elif group == _TYVAR:
                    text = found[group]
                    add_kind(TokenKind.TYVAR)
                elif group == _COMMENT:
                    pos = _comment_end(source, found.start(group))
                    break
                elif group == _EOF:
                    add_kind(TokenKind.EOF)
                    add_text("")
                    add_start(found.start(group))
                    return
                elif group == _BADINT:
                    loc = _error_loc(source, found.start(group))
                    raise LexError(f"malformed number {found[group]!r}", loc)
                else:
                    start = found.start(group)
                    raise LexError(
                        f"unexpected character {source[start]!r}",
                        _error_loc(source, start),
                    )
                add_text(text)
                add_start(found.start(group))

    def loc(self, index: int) -> Loc:
        """The location of token ``index``.

        Tabs and carriage returns count as one column each; a column is
        the offset from the character after the last newline.
        """
        offset = self.starts[index]
        line_starts = self.line_starts
        line = bisect_right(line_starts, offset)
        return _new_loc(Loc, (line, offset - line_starts[line - 1] + 1))

    def token(self, index: int) -> Token:
        """Token ``index`` as a :class:`Token`."""
        return Token(self.kinds[index], self.texts[index], self.loc(index))


def _line_starts(source: str) -> List[int]:
    """The offset at which each line starts; only a newline ends a line."""
    starts = [0]
    end = source.find("\n")
    while end >= 0:
        starts.append(end + 1)
        end = source.find("\n", end + 1)
    return starts


def _error_loc(source: str, offset: int) -> Loc:
    """The location of a lexical error at ``offset``.  The offending text
    never becomes a token, so :meth:`Scan.loc`, which takes a token
    index, cannot place it; counting newlines can."""
    return Loc(source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset))


def _comment_end(source: str, start: int) -> int:
    """The offset just past the comment opening at ``start``; comments nest."""
    depth = 0
    for delimiter in _COMMENT_RE.finditer(source, start):
        depth += 1 if delimiter.group() == "(*" else -1
        if depth == 0:
            return delimiter.end()
    raise LexError("unterminated comment", _error_loc(source, start))


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    scan = Scan(source)
    return [scan.token(index) for index in range(len(scan.texts))]
