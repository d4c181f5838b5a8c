"""Frontend cost per token: lexing and parsing mini-BSML source.

Every request the service answers starts by lexing and parsing the user
program, and on a response-cache hit that is most of the handler's work.
This module times both stages over the shipped programs, the prelude and
an 80-binder ``let`` chain shaped like the end-to-end benchmark's, and
writes ``results/frontend.txt``:

* ``lex``: :func:`repro.lang.lexer.tokenize` from source text;
* ``parse``: :func:`repro.lang.parser.parse_toplevel` from source text
  (lexing included — the entry point callers use);

each as the median over ``REPEATS`` runs, in microseconds per token.  It
is a table only: wall-clock times depend on the host, so nothing here is
asserted about speed.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_frontend.py -q --benchmark-disable
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from repro.lang.lexer import tokenize
from repro.lang.parser import parse_toplevel
from repro.lang.prelude import PRELUDE_SOURCE

from _util import write_table

PROGRAMS_DIR = Path(__file__).resolve().parents[1] / "programs"
REPEATS = 25
CHAIN_LENGTH = 80


def let_chain(length: int) -> str:
    """``let x0 = 7 in … in x{length-1}``, cycling through four binder shapes."""
    lines = ["let x0 = 7 in"]
    for j in range(1, length):
        prev, k = f"x{j - 1}", j % 97
        shape = (
            f"{prev} + {k}",
            f"if {prev} < {k} then {prev} else {k}",
            f"fst ({prev} * {k}, {prev} = {k})",
            f"(fun y -> y * {k}) {prev}",
        )[j % 4]
        lines.append(f"let x{j} = {shape} in")
    lines.append(f"x{length - 1}")
    return "\n".join(lines)


def _sources():
    sources = {
        path.name: path.read_text() for path in sorted(PROGRAMS_DIR.glob("*.bsml"))
    }
    sources["prelude"] = PRELUDE_SOURCE
    sources[f"let chain ({CHAIN_LENGTH})"] = let_chain(CHAIN_LENGTH)
    return sources


def _median_us(action, source: str) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        action(source)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def test_frontend_table():
    rows = []
    for name, source in _sources().items():
        tokens = len(tokenize(source)) - 1  # not the EOF token
        lex = _median_us(tokenize, source)
        parse = _median_us(parse_toplevel, source)
        rows.append(
            (
                name,
                tokens,
                f"{lex / tokens:.2f}",
                f"{parse / tokens:.2f}",
                f"{parse / 1e3:.2f}",
            )
        )
    write_table(
        "frontend",
        f"Frontend cost per token (median of {REPEATS} runs)",
        ("source", "tokens", "lex us/token", "parse us/token", "parse ms"),
        rows,
        footer="parse = lex + parse from source text (parse_toplevel). "
        "Times depend on the host; no bound is asserted.",
    )
