"""Frontend cost per token: lexing, parsing and digesting mini-BSML source.

Every request the service answers starts by lexing, parsing and
digesting the user program.  The lexer is one pass of a master regex
that records each token's kind, text and start offset in flat lists;
the parser reads those lists and computes a location only for the
tokens that become a node's location or an error's position.  This
module times the stages over the shipped programs, the prelude and an
80-binder ``let`` chain shaped like the end-to-end benchmark's, and
writes ``results/frontend.txt``:

* ``lex``: :func:`repro.lang.lexer.tokenize` from source text (the
  token view: one :class:`~repro.lang.lexer.Token` per token);
* ``parse``: :func:`repro.lang.parser.parse_toplevel` from source text
  (scanning included — the entry point callers use);
* ``digest``: :func:`repro.core.digest.program_digest` of the parsed
  program (the service's cache key);

each as the median over ``REPEATS`` runs, in microseconds per token.

The table is not asserted on: wall-clock times depend on the host.  The
guard (:func:`test_parse_cost_relative_to_a_bare_scan`) is a ratio on
one host instead: ``parse_toplevel`` of the 80-binder chain over a bare
``finditer`` scan of the same source with the same master regex, the
median over alternating pairs.  The bare scan is the floor of any lexer
built on that regex, so the ratio is the work the front end adds per
token, measured in the host's own units.  On a 2-vCPU x86-64 host with
CPython 3.11, the front end that allocated a token object and a
location per token read 11.1-13.4, and the list scanner reads 7.0-8.1;
``MAX_PARSE_TO_SCAN`` sits between the two.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_frontend.py -q --benchmark-disable
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from repro.core.digest import program_digest
from repro.lang.lexer import _TOKEN_RE, tokenize
from repro.lang.parser import parse_program, parse_toplevel
from repro.lang.prelude import PRELUDE_SOURCE

from _util import write_table

PROGRAMS_DIR = Path(__file__).resolve().parents[1] / "programs"
REPEATS = 25
CHAIN_LENGTH = 80
#: Alternating (parse, bare scan) pairs behind the guard's median ratio.
PAIRS = 101
#: Bound on parse time over bare-scan time for the 80-binder chain.
MAX_PARSE_TO_SCAN = 10.0


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


def _median_us(action, argument) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        action(argument)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def _bare_scan(source: str) -> None:
    for _ in _TOKEN_RE.finditer(source):
        pass


def _seconds(action, source: str) -> float:
    started = time.perf_counter()
    action(source)
    return time.perf_counter() - started


def parse_to_scan_ratio(source: str, pairs: int = PAIRS) -> float:
    """Median over alternating pairs of ``parse_toplevel`` time divided
    by bare-scan time, after one untimed round of each."""
    parse_toplevel(source)
    _bare_scan(source)
    ratios = []
    for _ in range(pairs):
        parse = _seconds(parse_toplevel, source)
        scan = _seconds(_bare_scan, source)
        ratios.append(parse / scan)
    return statistics.median(ratios)


def test_frontend_table():
    rows = []
    for name, source in _sources().items():
        tokens = len(tokenize(source)) - 1  # not the EOF token
        lex = _median_us(tokenize, source)
        parse = _median_us(parse_toplevel, source)
        digest = None
        if name != "prelude":  # the prelude has no final expression
            expr = parse_program(source)
            digest = _median_us(lambda tree: program_digest(tree, p=4), expr)
        rows.append(
            (
                name,
                tokens,
                f"{lex / tokens:.2f}",
                f"{parse / tokens:.2f}",
                "-" if digest is None else f"{digest / tokens:.2f}",
                f"{parse / 1e3:.2f}",
            )
        )
    ratio = parse_to_scan_ratio(let_chain(CHAIN_LENGTH))
    write_table(
        "frontend",
        f"Frontend cost per token (median of {REPEATS} runs)",
        (
            "source", "tokens", "lex us/token", "parse us/token",
            "digest us/token", "parse ms",
        ),
        rows,
        footer="lex = tokenize (Token objects); parse = scan + parse from source "
        "text (parse_toplevel); digest = program_digest of the parsed program.\n"
        f"Guard: parse / bare finditer scan of the {CHAIN_LENGTH}-binder chain = "
        f"{ratio:.2f} (median of {PAIRS} alternating pairs; bound "
        f"{MAX_PARSE_TO_SCAN:g}).",
    )


def test_parse_cost_relative_to_a_bare_scan():
    ratio = parse_to_scan_ratio(let_chain(CHAIN_LENGTH))
    assert ratio <= MAX_PARSE_TO_SCAN, (
        f"parse_toplevel of the {CHAIN_LENGTH}-binder chain costs {ratio:.2f}x "
        f"a bare scan of it (bound {MAX_PARSE_TO_SCAN:g}x)"
    )
