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
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.lang.ast import Expr, UnitType

#: Bumped whenever the canonical rendering changes shape, so stale
#: service caches can never serve a digest computed by an older scheme.
DIGEST_VERSION = "bsml-digest-v1"


#: Per AST class: its opening token and its ``(field name, ":name")``
#: pairs in reverse declaration order (the order they are pushed).
_LAYOUTS: Dict[type, Tuple[str, Tuple[Tuple[str, str], ...]]] = {}


def _layout(cls: type) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    layout = _LAYOUTS.get(cls)
    if layout is None:
        pairs = tuple((field.name, f":{field.name}") for field in fields(cls))
        layout = _LAYOUTS[cls] = (f"({cls.__name__}", pairs[::-1])
    return layout


def _tokens(node: Any) -> List[str]:
    """Canonical token stream of an AST (or type-syntax) tree, iterative
    so deep programs need no recursion headroom."""
    tokens: List[str] = []
    emit = tokens.append
    stack = [node]
    push = stack.append
    pop = stack.pop
    while stack:
        item = pop()
        if isinstance(item, str):  # a control token pushed below, or a name
            emit(item)
            continue
        layout = _LAYOUTS.get(type(item))
        if layout is None and is_dataclass(item) and not isinstance(item, type):
            layout = _layout(type(item))
        if layout is not None:
            opening, pairs = layout
            emit(opening)
            push(")")
            for name, label in pairs:
                push(getattr(item, name))
                push(label)
        elif isinstance(item, tuple):
            emit("(tuple")
            push(")")
            stack.extend(reversed(item))
        elif isinstance(item, bool):
            emit("#t" if item else "#f")
        elif isinstance(item, int):
            emit(f"i{item}")
        elif isinstance(item, UnitType):
            emit("#u")
        elif item is None:
            emit("#n")
        else:
            raise TypeError(
                f"expr_digest: unsupported node payload {type(item).__name__}"
            )
    return tokens


def expr_digest(expr: Expr) -> str:
    """SHA-256 hex digest of the canonical form of ``expr``.

    Location-insensitive: reformatting a program does not change its
    digest.  Structure-sensitive: any change to the tree (or to an
    ascribed type annotation) does.  The hashed bytes are the version
    tag followed by ``"\x00" + token`` for every token, fed to the
    hasher in one update.
    """
    hasher = hashlib.sha256()
    hasher.update(DIGEST_VERSION.encode("ascii"))
    hasher.update(("\x00" + "\x00".join(_tokens(expr))).encode("utf-8"))
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
