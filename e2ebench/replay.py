"""The traced pass: the same requests replayed in-process, one span per
public call of each layer.

For every request the whole handler (``ServiceCore.handle_*`` at the
service defaults) is timed first, then the request is walked again stage
by stage through the public function of each layer:

    lang.parse        parse_program
    core.digest       program_digest
    core.infer        prelude_env + infer          (perf.collect window)
    core.render       render_type / render_constraint (/ generalize)
    lang.prelude      with_prelude
    semantics.eval    run_costed with the default engine
    obs.trace_window  the same run_costed inside obs.trace() + summarize
    service.serialize serialize

A cache hit of the handler stops the stage walk after the digest, as in
the service.  Spans share one request id, are kept in memory and written
as JSON lines when the pass ends.  The stage walk runs right after the
handler call on the same input, so solver memos are warm for it; that
difference lands in ``service.unattributed_ms``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from workloads import TYPECHECK, Workload

Span = Tuple[int, str, str, float, float]

#: Stages whose sum is the attributed part of a handler call.
ATTRIBUTED = (
    "lang.parse",
    "core.digest",
    "core.infer",
    "core.render",
    "lang.prelude",
    "obs.trace_window",
    "service.serialize",
)

#: perf counter -> per-layer metric.
_COUNTERS = {
    "infer.nodes": "core.infer_nodes",
    "unify.calls": "core.unify_calls",
    "infer.solve_checks": "core.solve_checks",
}


class Recorder:
    """In-memory spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, request: int, name: str, parent: str = "request") -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((request, name, parent, started, time.perf_counter()))

    def total(self, name: str) -> float:
        return sum(end - start for _, span_name, _, start, end in self.spans if span_name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for request, name, parent, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"request": request, "name": name, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def replay(workload: Workload, budget_s: float, max_requests: int, spans_path: Path) -> Dict[str, float]:
    """Replay the first requests of the workload's stream for at most
    ``budget_s`` seconds; returns per-request means of every layer metric."""
    from repro import obs, perf
    from repro.bsp import BspParams
    from repro.core.constraints import render_constraint
    from repro.core.digest import program_digest
    from repro.core.errors import TypingError
    from repro.core.infer import infer
    from repro.core.prelude_env import prelude_env
    from repro.core.schemes import generalize
    from repro.core.types import render_type
    from repro.lang import parse_program, with_prelude
    from repro.semantics import run_costed
    from repro.service.handlers import RequestError, ServiceCore, serialize

    core = ServiceCore()
    config = core.config
    recorder = Recorder()
    counts = {metric: 0.0 for metric in _COUNTERS.values()}
    counts.update({"lang.prelude_nodes": 0.0, "bsp.supersteps": 0.0,
                   "bsp.h_words": 0.0, "bsp.work_ops": 0.0})
    deadline = time.perf_counter() + budget_s
    replayed = 0
    while replayed < max_requests and time.perf_counter() < deadline:
        rid = replayed
        request = workload.request(rid)
        replayed += 1
        payload = json.loads(request.body)
        typecheck = request.endpoint == TYPECHECK
        handler = core.handle_typecheck if typecheck else core.handle_run
        span = lambda name, parent="stages": recorder.span(rid, name, parent)

        with span("service.handler", "request"):
            try:
                status, body, cache = handler(payload)
            except RequestError as error:
                status, body, cache = error.status, serialize(error.payload()), "miss"

        with span("stages", "request"):
            with span("lang.parse"):
                expr = parse_program(payload["program"])
            with span("core.digest"):
                program_digest(expr, p=config.p, g=config.g, l=config.l)
            if cache == "hit":
                continue
            ct: Optional[object] = None
            with perf.collect() as stats:
                with span("core.infer"):
                    env = prelude_env()
                    try:
                        ct = infer(expr, env)
                    except TypingError:
                        pass
            for counter, metric in _COUNTERS.items():
                counts[metric] += stats.counter(counter)
            if ct is not None:
                with span("core.render"):
                    render_type(ct.type)
                    render_constraint(ct.constraint)
                    if typecheck:
                        str(generalize(ct, env))
                if not typecheck:
                    with span("lang.prelude"):
                        runnable = with_prelude(expr)
                    counts["lang.prelude_nodes"] += runnable.size() - expr.size()
                    params = BspParams(p=config.p, g=config.g, l=config.l)
                    run = lambda: run_costed(
                        runnable, params, backend=config.backend, engine=config.engine
                    )
                    with span("semantics.eval"):
                        result = run()
                    cost = result.cost
                    counts["bsp.supersteps"] += cost.S
                    counts["bsp.h_words"] += cost.H
                    counts["bsp.work_ops"] += cost.W
                    with span("obs.trace_window"):
                        if config.trace_summaries:
                            with obs.trace() as window:
                                run()
                            obs.summarize(window)
                        else:
                            run()
            with span("service.serialize"):
                serialize(json.loads(body))
    recorder.write(spans_path)

    n = max(replayed, 1)
    ms = lambda name: recorder.total(name) * 1e3 / n
    metrics = {name: value / n for name, value in counts.items()}
    metrics.update(
        {
            "lang.parse_ms": ms("lang.parse"),
            "core.digest_ms": ms("core.digest"),
            "core.infer_ms": ms("core.infer"),
            "core.render_ms": ms("core.render"),
            "lang.prelude_ms": ms("lang.prelude"),
            "semantics.eval_ms": ms("semantics.eval"),
            "obs.trace_summary_ms": ms("obs.trace_window") - ms("semantics.eval"),
            "service.serialize_ms": ms("service.serialize"),
            "service.handler_ms": ms("service.handler"),
            "service.unattributed_ms": ms("service.handler") - sum(ms(s) for s in ATTRIBUTED),
            "replay.requests": float(replayed),
        }
    )
    return metrics
