"""Content digests for mini-BSML programs.

The typecheck-and-run service caches results keyed on *what a program
means*, not on the bytes the client happened to send: two requests whose
sources differ only in whitespace, comments or layout parse to the same
AST and must hit the same cache entry.  :func:`expr_digest` computes a
SHA-256 over a canonical s-expression rendering of the parsed tree —
dataclass fields in declaration order, source locations excluded — and
:func:`program_digest` mixes in every execution parameter that changes
the observable result (machine size, BSP cost parameters, backend,
fault plan, typed/untyped mode, prelude).

The rendering walks the dataclass fields generically, so new AST node
kinds digest correctly without this module changing; field *names* are
part of the rendering, so reordering or renaming fields changes digests
(as it should — it changes what the tree means structurally).

Digests are also the session tokens of :mod:`repro.core.incremental`:
a definition chain is digested link by link, so an edit invalidates
exactly its own suffix.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any, Iterator, Mapping, Optional, Union

from repro.lang.ast import Expr, UnitType

#: Bumped whenever the canonical rendering changes shape, so stale
#: service caches can never serve a digest computed by an older scheme.
DIGEST_VERSION = "bsml-digest-v1"


def _tokens(node: Any) -> Iterator[str]:
    """Canonical token stream of an AST (or type-syntax) tree, iterative
    so deep programs need no recursion headroom."""
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # control token pushed below
            yield item
        elif is_dataclass(item) and not isinstance(item, type):
            yield f"({type(item).__name__}"
            stack.append(")")
            for field in reversed(fields(item)):
                stack.append(getattr(item, field.name))
                stack.append(f":{field.name}")
        elif isinstance(item, tuple):
            yield "(tuple"
            stack.append(")")
            stack.extend(reversed(item))
        elif isinstance(item, bool):
            yield "#t" if item else "#f"
        elif isinstance(item, int):
            yield f"i{item}"
        elif isinstance(item, UnitType):
            yield "#u"
        elif item is None:
            yield "#n"
        else:
            raise TypeError(
                f"expr_digest: unsupported node payload {type(item).__name__}"
            )


def expr_digest(expr: Expr) -> str:
    """SHA-256 hex digest of the canonical form of ``expr``.

    Location-insensitive: reformatting a program does not change its
    digest.  Structure-sensitive: any change to the tree (or to an
    ascribed type annotation) does.
    """
    hasher = hashlib.sha256()
    hasher.update(DIGEST_VERSION.encode("ascii"))
    for token in _tokens(expr):
        hasher.update(b"\x00")
        hasher.update(token.encode("utf-8"))
    return hasher.hexdigest()


def chain_digest(previous: str, *parts: str) -> str:
    """Fold ``parts`` into a running chain token (see
    :mod:`repro.core.incremental`): ``chain(t, name, digest)`` depends on
    every link before it, so equal prefixes give equal tokens and any
    edit changes every downstream token."""
    hasher = hashlib.sha256()
    hasher.update(previous.encode("ascii"))
    for part in parts:
        hasher.update(b"\x00")
        hasher.update(part.encode("utf-8"))
    return hasher.hexdigest()


def program_digest(
    expr: Expr,
    *,
    p: int,
    g: Union[int, float] = 1,
    l: Union[int, float] = 1,
    backend: str = "seq",
    faults: Optional[str] = None,
    typed: bool = True,
    use_prelude: bool = True,
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """The service's cache key: the expression digest plus every knob
    that changes the response payload.

    ``faults`` is the textual fault-spec (already deterministic — a spec
    names its seed); ``extra`` admits forward-compatible additions
    without a digest-version bump (keys are sorted).
    """
    parts = [
        expr_digest(expr),
        f"p={p}",
        f"g={g}",
        f"l={l}",
        f"backend={backend}",
        f"faults={faults or ''}",
        f"typed={typed}",
        f"prelude={use_prelude}",
    ]
    for key in sorted(extra or {}):
        parts.append(f"{key}={extra[key]}")
    return chain_digest(DIGEST_VERSION, *parts)
