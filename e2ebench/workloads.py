"""Workloads of the end-to-end service benchmark: inputs and expected answers.

A workload is a pool of *templates* (a program and the route it is sent
to) plus a seeded draw sequence over that pool.  Request
``i`` is the template of draw ``i`` with a one-line prefix
``let bench_nonce = N ;;`` in front of it.  The prefix binds an unused
integer, so it changes the program digest (and therefore the response-cache
key) without changing the type, value or cost of the answer.  Workloads
that must never hit the response cache use ``N = i``; ``run_mixed`` uses a
small per-template variant number, so its working set is a fixed number of
distinct programs that Zipf-skewed draws revisit.

Expected answers are computed once per template, before any timing, by an
in-process :class:`~repro.service.handlers.ServiceCore` that uses the
Fig. 7 ``w`` inference engine and the ``tree`` cost oracle.  Every run
answer is cross-checked against the ``compiled`` engine (with ``uf``
inference), and pure programs against the small-step machine when that
finishes within :data:`SMALLSTEP_FUEL` steps.  If the oracles disagree the
benchmark stops: it cannot tell a right answer from a wrong one.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

TYPECHECK = "/v1/typecheck"
RUN = "/v1/run"

#: Requests drawn per workload.  Far more than a run can send; only the
#: prefix a run actually sends is ever formatted.
MAX_DRAWS = 100_000

#: Small-step fuel for the value cross-check of pure programs.
SMALLSTEP_FUEL = 20_000

#: The response-cache capacity of ``minibsml serve`` at its defaults; the
#: ``run_mixed`` working set is sized against it.
SERVICE_CACHE_CAPACITY = 1024

#: Layers, named after the repository's modules.
LAYERS = (
    "repro.lang",
    "repro.core",
    "repro.semantics",
    "repro.bsp",
    "repro.obs",
    "repro.service",
)


class OracleError(RuntimeError):
    """The reference implementations disagree about a template."""


@dataclass(frozen=True)
class Template:
    endpoint: str
    source: str
    #: Imperative programs are outside the small-step machine's fragment.
    pure: bool = True


@dataclass(frozen=True)
class Expected:
    """The answer a template must get: HTTP status plus the response
    fields that are pure functions of the request."""

    status: int
    fields: Dict[str, Any]


@dataclass(frozen=True)
class Request:
    index: int
    endpoint: str
    body: bytes
    template: int


@dataclass
class Workload:
    """One traffic mix: what it is for, and the inputs one seed gives."""

    name: str
    seed: int
    #: Requests sent before the timed window starts (which then starts at
    #: this index), so the window begins from the same cache state
    #: however fast the server is.
    warmup: int = 0
    templates: List[Template] = field(default_factory=list)
    #: draw i -> template index (``run_mixed``: working-set item index).
    draws: List[int] = field(default_factory=list)
    #: run_mixed only: working-set item -> (template index, variant).
    items: List[Tuple[int, int]] = field(default_factory=list)
    expected: List[Expected] = field(default_factory=list)

    def request(self, index: int) -> Request:
        draw = self.draws[index]
        if self.items:
            template, nonce = self.items[draw]
        else:
            template, nonce = draw, index
        chosen = self.templates[template]
        payload = {"program": with_nonce(chosen.source, nonce)}
        return Request(index, chosen.endpoint, json.dumps(payload).encode(), template)

    def digest(self) -> str:
        """SHA-256 over the whole request list: templates, working set and
        draw sequence.  Equal digests mean identical inputs."""
        hasher = hashlib.sha256()
        for template in self.templates:
            hasher.update(repr((template.endpoint, template.source)).encode())
        hasher.update(repr(self.items).encode())
        hasher.update(repr(self.draws).encode())
        return hasher.hexdigest()


def with_nonce(source: str, nonce: int) -> str:
    return f"let bench_nonce = {nonce} ;;\n{source}"


# -- the workloads ------------------------------------------------------------

_DESCRIPTIONS = {
    "typecheck_cold": (
        "inference-bound: typecheck only, a fresh digest per request, no "
        "evaluation, no cache hit, no trace window",
        ("repro.lang", "repro.core", "repro.service"),
        ("repro.semantics", "repro.bsp", "repro.obs"),
    ),
    "run_mixed": (
        "Zipf draws over ~2.5x the response cache: hits pay HTTP+parse+digest, "
        "misses pay infer, prelude, evaluate, trace summary",
        LAYERS,
        (),
    ),
}

WORKLOAD_NAMES = tuple(_DESCRIPTIONS)


def describe(name: str) -> Tuple[str, Tuple[str, ...], Tuple[str, ...]]:
    """``(reason, layers it should move, layers it should not move)``."""
    return _DESCRIPTIONS[name]


def why_line(name: str) -> str:
    """The one-line ``why`` of BENCHMARK.json: reason plus predictions."""
    reason, moves, unchanged = describe(name)
    short = lambda layers: "+".join(layer.split(".")[1] for layer in layers)
    line = f"{reason}; moves {short(moves)}"
    if unchanged:
        line += f"; not {short(unchanged)}"
    return line


def build(name: str, seed: int, root: Path) -> Workload:
    """The templates and draw sequence of workload ``name`` for ``seed``
    (no oracle yet: see :func:`attach_oracle`)."""
    workload = Workload(name, seed)
    rng = random.Random(f"{name}:{seed}")
    {"typecheck_cold": _typecheck_cold, "run_mixed": _run_mixed}[name](workload, rng, root)
    return workload


def _generated(rng: random.Random, depth: int) -> str:
    from repro.lang import pretty
    from repro.testing.generators import ProgramGenerator

    return pretty(ProgramGenerator(seed=rng.randrange(2**31), p_hint=4).expression(depth))


def _let_chain(rng: random.Random, length: int) -> str:
    """A let-chain of ``length`` binders: one generalization per binder.
    The binder shapes cycle in a fixed order and only the constants come
    from ``rng``, so a chain of a given length costs the same on every
    seed."""
    lines = [f"let x0 = {rng.randrange(100)} in"]
    for j in range(1, length):
        k = rng.randrange(1, 50)
        shape = j % 4
        if shape == 0:
            lines.append(f"let x{j} = x{j - 1} + {k} in")
        elif shape == 1:
            lines.append(f"let x{j} = if x{j - 1} < {k} then x{j - 1} else {k} in")
        elif shape == 2:
            lines.append(f"let x{j} = fst (x{j - 1} * {k}, x{j - 1} = {k}) in")
        else:
            lines.append(f"let x{j} = (fun y -> y * {k}) x{j - 1} in")
    lines.append(f"x{length - 1}")
    return "\n".join(lines)


def _draw_rounds(
    rng: random.Random, categories: Sequence[Tuple[int, Sequence[int]]]
) -> List[int]:
    """Draws in shuffled rounds: each round takes ``count`` templates from
    every category, cycling through the category in a shuffled order.
    Every stretch of a round's length then has the same mix, so the mix a
    run sends does not depend on how far it gets or on the seed."""
    cycles = [[] for _ in categories]
    draws: List[int] = []
    while len(draws) < MAX_DRAWS:
        round_draws = []
        for (count, members), cycle in zip(categories, cycles):
            for _ in range(count):
                if not cycle:
                    cycle.extend(rng.sample(members, len(members)))
                round_draws.append(cycle.pop())
        rng.shuffle(round_draws)
        draws.extend(round_draws)
    return draws


#: Pool sizes of ``typecheck_cold``.
GENERATED_TYPECHECKS = 160
NESTING_MUTANTS = 45


def _typecheck_cold(workload: Workload, rng: random.Random, root: Path) -> None:
    from repro.testing.generators import CORPUS_REJECTED, ProgramGenerator
    from repro.lang import pretty

    templates = workload.templates
    # Chain lengths are spread evenly over 20..80 on every seed, so the
    # tail (set by the longest chains) does not move with the seed.
    chains = []
    for length in range(20, 81, 12):
        chains.append(len(templates))
        templates.append(Template(TYPECHECK, _let_chain(rng, length)))
    # Pools are large so that their cost distribution, and with it the
    # median latency, varies little from seed to seed.
    generated = []
    for _ in range(GENERATED_TYPECHECKS):
        generated.append(len(templates))
        templates.append(Template(TYPECHECK, _generated(rng, 4)))
    rejected = []
    for source in CORPUS_REJECTED:
        rejected.append(len(templates))
        templates.append(Template(TYPECHECK, source))
    mutator = ProgramGenerator(seed=rng.randrange(2**31), p_hint=4)
    for _ in range(NESTING_MUTANTS):
        rejected.append(len(templates))
        templates.append(Template(TYPECHECK, pretty(mutator.mutate_to_nesting(3))))
    # The quarter of rejected programs is the mix the workload is defined
    # with.  The 4:26 split of the rest between chains and generated
    # programs is not a measured traffic mix: it is tuned for steadiness.
    # Chains cost about ten times a generated program, so at a tenth of the
    # draws they set the tail and a run still leaves enough samples beyond
    # its p99, while the median stays among the generated programs.
    workload.draws = _draw_rounds(rng, [(4, chains), (26, generated), (10, rejected)])


#: Zipf exponent of the ``run_mixed`` draws.  An assumption: the repository
#: has no measured traffic.  Studies of web-cache request streams report
#: Zipf-like popularity with exponents of about 0.64 to 0.83 (Breslau et
#: al., "Web Caching and Zipf-like Distributions: Evidence and
#: Implications", INFOCOM 1999); 0.8 is near the top of that range.  The
#: exponent sets the hit/miss split, which decides the layers
#: ``latency_p50_ms`` and ``throughput_rps`` measure, so ``run.py`` prints
#: the cache hit ratio it produces beside the metrics.
ZIPF_S = 0.8
#: Share of the curated and generated programs sent to ``/v1/typecheck``
#: instead of ``/v1/run``.  Also an assumption, not a measured mix.
TYPECHECK_EVERY = 5


def _run_mixed(workload: Workload, rng: random.Random, root: Path) -> None:
    from repro.testing.generators import CORPUS_GLOBAL, CORPUS_IMPERATIVE, CORPUS_LOCAL

    templates = workload.templates
    for path in sorted((root / "programs").glob("*.bsml")):
        templates.append(Template(RUN, path.read_text()))
    # Every TYPECHECK_EVERY-th curated or generated program is a typecheck,
    # by position, so the route of each curated program is the same on
    # every seed.
    sources = list(CORPUS_LOCAL + CORPUS_GLOBAL) + [_generated(rng, 3) for _ in range(60)]
    for position, source in enumerate(sources):
        endpoint = TYPECHECK if position % TYPECHECK_EVERY == TYPECHECK_EVERY - 1 else RUN
        templates.append(Template(endpoint, source))
    for source in CORPUS_IMPERATIVE:
        templates.append(Template(RUN, source, pure=False))
    variants = -(-int(2.5 * SERVICE_CACHE_CAPACITY) // len(templates))
    # Item rank = Zipf rank.  Ranks cycle through the templates in a seeded
    # order, one variant per cycle, so every template is as common in the
    # cache-missing tail as any other and the cost of a miss does not
    # depend on the seed.
    order = rng.sample(range(len(templates)), len(templates))
    workload.items = [(order[r % len(templates)], r // len(templates))
                      for r in range(variants * len(templates))]
    items = workload.items
    cumulative, total = [], 0.0
    for rank in range(1, len(items) + 1):
        total += rank ** -ZIPF_S
        cumulative.append(total)
    # The warm-up sends the cache-capacity most popular programs, least
    # popular first, so the timed window starts from the cache's steady
    # state and its hit ratio does not grow with the number of requests
    # the server manages to answer.
    workload.warmup = SERVICE_CACHE_CAPACITY
    workload.draws = list(range(workload.warmup - 1, -1, -1)) + [
        min(bisect.bisect_left(cumulative, rng.random() * total), len(items) - 1)
        for _ in range(MAX_DRAWS)
    ]


# -- the oracle ---------------------------------------------------------------


def _call(handler, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    from repro.service.handlers import RequestError

    try:
        status, body, _ = handler(payload)
    except RequestError as error:
        return error.status, error.payload()
    return status, json.loads(body)


#: Response fields that depend on the request bytes or on wall-clock time,
#: not only on the program: excluded from the comparison.
_UNCHECKED = ("digest", "trace_summary")

_HEX64 = re.compile(r"^[0-9a-f]{64}$")


def _answer(status: int, body: Dict[str, Any]) -> Expected:
    return Expected(status, {k: v for k, v in body.items() if k not in _UNCHECKED})


def attach_oracle(workload: Workload) -> None:
    """Compute the expected answer of every template (before timing)."""
    from repro.lang import parse_program, pretty, with_prelude
    from repro.semantics import StepLimitExceeded, evaluate
    from repro.service.handlers import ServiceConfig, ServiceCore

    def core(**config: Any) -> ServiceCore:
        return ServiceCore(ServiceConfig(trace_summaries=False, metrics=False, **config))

    reference = core(infer_engine="w", engine="tree")
    cross = core(infer_engine="uf", engine="compiled")
    workload.expected = []
    for template in workload.templates:
        payload = {"program": with_nonce(template.source, 0)}
        handle = "handle_typecheck" if template.endpoint == TYPECHECK else "handle_run"
        expected = _answer(*_call(getattr(reference, handle), payload))
        if template.endpoint == RUN:
            check = _answer(*_call(cross.handle_run, payload))
            if check != expected:
                raise OracleError(f"tree/w and compiled/uf disagree on {template.source!r}")
            if expected.status == 200 and template.pure:
                expr = with_prelude(parse_program(payload["program"]))
                try:
                    value = evaluate(expr, reference.config.p, max_steps=SMALLSTEP_FUEL)
                except StepLimitExceeded:
                    value = None  # too long for the small-step machine
                if value is not None and pretty(value) != expected.fields["value"]:
                    raise OracleError(f"small-step value differs on {template.source!r}")
        workload.expected.append(expected)


def check_answer(expected: Expected, status: int, body: bytes) -> Optional[str]:
    """``None`` when the response is the expected answer, else the reason
    it is not (an unexpected status, a 5xx or 429, or a wrong field)."""
    if status != expected.status:
        return f"status {status}, expected {expected.status}"
    try:
        answer = json.loads(body)
    except ValueError:
        return "response is not JSON"
    if not isinstance(answer, dict):
        return "response is not a JSON object"
    if status == 200 and not _HEX64.match(str(answer.get("digest", ""))):
        return "missing or malformed digest"
    for key, value in expected.fields.items():
        if answer.get(key) != value:
            return f"field {key!r} differs"
    if status == 200 and set(answer) - set(_UNCHECKED) != set(expected.fields):
        return "unexpected response fields"
    return None
