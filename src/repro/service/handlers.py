"""Transport-free request handling for the typecheck-and-run service.

:class:`ServiceCore` is the whole service minus HTTP: JSON-shaped dicts
in, ``(status, payload)`` out.  The asyncio front end
(:mod:`repro.service.server`) calls it from worker threads, each request
inside a fresh :class:`contextvars.Context`, so the perf/obs collection
a request opens (for its ``trace_summary``) is invisible to every other
in-flight request — the property tests/obs/test_request_isolation.py
pins down.

Determinism contract: the ``type``, ``constraints``, ``value`` and
``cost`` fields of a successful response are pure functions of the
request (fault plans included — a survivable plan is bit-identical to a
clean run), and cached replays return the originally serialized bytes.
Only ``trace_summary`` carries wall-clock measurements and is excluded
from that promise.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs, perf
from repro.bsp import BspFaultError, BspParams, FaultSpecError, parse_fault_spec
from repro.core.constraints import TRUE, constraint_atoms, render_constraint
from repro.core.digest import expr_digest, program_digest
from repro.core.errors import TypingError
from repro.core.incremental import Definition, IncrementalChecker
from repro.core.infer import infer
from repro.core.prelude_env import prelude_env
from repro.core.schemes import ConstrainedType, TypeEnv, generalize
from repro.core.types import _variable_display_names, intern_pool_stats, render_type
from repro.lang import parse_program, pretty, with_prelude
from repro.lang.ast import Expr, Let
from repro.lang.errors import ParseError, ReproError
from repro.lang.limits import deep_recursion
from repro.semantics import CostedResult, StuckError, run_costed
from repro.semantics.values import reify
from repro.service.cache import ShardedCache

@dataclass
class ServiceConfig:
    """Boot-time configuration of a :class:`ServiceCore`."""

    p: int = 4
    g: float = 1.0
    l: float = 20.0
    backend: str = "seq"
    #: Evaluation and type-inference engines.  Every engine answers
    #: bit-identically, so no request field selects one; the reference
    #: engines (``tree``, ``w``) are set here only by conformance
    #: oracles that build their own cores.
    engine: str = "compiled"
    infer_engine: str = "uf"
    cache_capacity: int = 1024
    cache_shards: int = 8
    max_sessions: int = 256
    trace_summaries: bool = True
    #: Enable the process-global metrics registry (the /v1/metrics
    #: exposition) for the lifetime of the server.
    metrics: bool = True


class RequestError(Exception):
    """A client-side problem, carrying the HTTP status to answer with."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind

    def payload(self) -> Dict[str, Any]:
        return {"error": {"kind": self.kind, "message": str(self)}}


def _render_constrained(ct: ConstrainedType) -> Tuple[str, str]:
    """``(type, constraints)`` with one shared display-name mapping, so
    ``'a`` means the same variable in both fields."""
    names = _variable_display_names(ct.type)
    for var in sorted(constraint_atoms(ct.constraint)):
        if var not in names:
            names[var] = f"'{var}"
    type_text = render_type(ct.type, names)
    if ct.constraint == TRUE:
        return type_text, "True"
    return type_text, render_constraint(ct.constraint, names)


def _value_text(result: CostedResult) -> str:
    """Deterministic rendering of a runtime value: the pretty-printed
    reified term (identical across engines and backends), falling back
    to a kind tag for values with no finite term form."""
    try:
        with deep_recursion():
            return pretty(reify(result.value))
    except Exception:
        return f"<{type(result.value).__name__}>"


def _cost_payload(result: CostedResult) -> Dict[str, Any]:
    cost, params = result.cost, result.params
    return {
        "p": cost.p,
        "g": params.g,
        "l": params.l,
        "W": cost.W,
        "H": cost.H,
        "S": cost.S,
        "total": cost.total(params),
        "supersteps": [
            {
                "work": list(step.work),
                "h": step.h,
                "synchronized": step.synchronized,
                "label": step.label,
            }
            for step in cost.supersteps
        ],
    }


def serialize(payload: Dict[str, Any]) -> bytes:
    """The service's canonical JSON bytes (sorted keys, tight separators
    — byte-stable for equal payloads)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class _Session:
    """One editing session: an ordered chain of named definitions whose
    inference is cached per chain prefix (:class:`IncrementalChecker`)."""

    def __init__(self, sid: str, use_prelude: bool) -> None:
        self.sid = sid
        self.use_prelude = use_prelude
        self.lock = threading.Lock()
        self.checker = IncrementalChecker(use_prelude=use_prelude)
        self.names: List[str] = []
        self.definitions: Dict[str, Definition] = {}

    def define(self, name: str, source: str) -> Dict[str, Any]:
        with self.lock:
            definition = Definition(name, _parse(source))
            previous = self.definitions.get(name)
            if previous is None:
                self.names.append(name)
            self.definitions[name] = definition
            chain = [self.definitions[n] for n in self.names]
            try:
                checked = self.checker.check(chain)
            except (TypingError, ReproError):
                # Reject the edit wholesale: the session stays at its
                # last well-typed state.
                if previous is None:
                    self.names.remove(name)
                    del self.definitions[name]
                else:
                    self.definitions[name] = previous
                raise
            return {
                "session": self.sid,
                "definitions": [
                    {"name": item.name, "type": str(item.scheme), "reused": item.reused}
                    for item in checked
                ],
            }

    def program(self, body_source: str) -> Expr:
        with self.lock:
            body = _parse(body_source)
            result = body
            for name in reversed(self.names):
                definition = self.definitions[name]
                result = Let(name, definition.expr, result)
            return result

    def info(self) -> Dict[str, Any]:
        with self.lock:
            return {
                "session": self.sid,
                "definitions": list(self.names),
                "prelude": self.use_prelude,
                "chain_cache_entries": self.checker.cache_size(),
            }


def _parse(source: Any) -> Expr:
    if not isinstance(source, str) or not source.strip():
        raise RequestError(400, "bad-request", "expected a non-empty program string")
    try:
        return parse_program(source)
    except ParseError as error:
        raise RequestError(400, "parse", str(error)) from error


class ServiceCore:
    """The service behind the HTTP front end.  Thread-safe."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache: ShardedCache[bytes] = ShardedCache(
            self.config.cache_capacity, self.config.cache_shards
        )
        self.started_at = time.time()
        self.requests = 0
        self._requests_lock = threading.Lock()
        self._sessions: Dict[str, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)

    # -- request plumbing -------------------------------------------------

    def _count_request(self) -> None:
        with self._requests_lock:
            self.requests += 1

    def _options(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        config = self.config
        options = {
            "p": payload.get("p", config.p),
            "g": payload.get("g", config.g),
            "l": payload.get("l", config.l),
            "backend": payload.get("backend", config.backend),
            "typed": payload.get("typed", True),
            "prelude": payload.get("prelude", True),
            "faults": payload.get("faults"),
        }
        p = options["p"]
        if isinstance(p, bool) or not isinstance(p, int) or p < 1:
            raise RequestError(400, "bad-request", f"p must be a positive int, got {p!r}")
        for knob in ("g", "l"):
            value = options[knob]
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or value < 0
            ):
                raise RequestError(
                    400, "bad-request", f"{knob} must be a finite non-negative number"
                )
        for knob in ("typed", "prelude"):
            if not isinstance(options[knob], bool):
                raise RequestError(400, "bad-request", f"{knob} must be a boolean")
        if options["faults"] is not None and not isinstance(options["faults"], str):
            raise RequestError(400, "bad-request", "faults must be a spec string")
        return options

    # -- endpoints --------------------------------------------------------

    def handle_typecheck(self, payload: Dict[str, Any]) -> Tuple[int, bytes, str]:
        self._count_request()
        options = self._options(payload)
        expr = _parse(payload.get("program"))
        digest = program_digest(
            expr,
            p=options["p"],
            use_prelude=options["prelude"],
            extra={"endpoint": "typecheck"},
        )
        cached = self.cache.get(digest)
        if cached is not None:
            return 200, cached, "hit"
        env = prelude_env() if options["prelude"] else TypeEnv.empty()
        try:
            ct = infer(expr, env, engine=self.config.infer_engine)
        except TypingError as error:
            raise RequestError(422, "type", str(error)) from error
        type_text, constraint_text = _render_constrained(ct)
        scheme = generalize(ct, env)
        body = serialize(
            {
                "digest": digest,
                "type": type_text,
                "constraints": constraint_text,
                "scheme": str(scheme),
            }
        )
        self.cache.put(digest, body)
        return 200, body, "miss"

    def handle_run(self, payload: Dict[str, Any]) -> Tuple[int, bytes, str]:
        self._count_request()
        options = self._options(payload)
        expr = _parse(payload.get("program"))
        digest = program_digest(
            expr,
            p=options["p"],
            g=options["g"],
            l=options["l"],
            backend=options["backend"],
            faults=options["faults"],
            typed=options["typed"],
            use_prelude=options["prelude"],
        )
        cached = self.cache.get(digest)
        if cached is not None:
            return 200, cached, "hit"
        body = serialize(self._run_payload(expr, digest, options))
        self.cache.put(digest, body)
        return 200, body, "miss"

    def _run_payload(
        self, expr: Expr, digest: str, options: Dict[str, Any]
    ) -> Dict[str, Any]:
        faults = retry = None
        if options["faults"]:
            try:
                faults, retry = parse_fault_spec(options["faults"])
            except FaultSpecError as error:
                raise RequestError(400, "bad-request", str(error)) from error

        type_text = constraint_text = None
        if options["typed"]:
            env = prelude_env() if options["prelude"] else None
            try:
                ct = infer(expr, env, engine=self.config.infer_engine)
            except TypingError as error:
                raise RequestError(422, "type", str(error)) from error
            type_text, constraint_text = _render_constrained(ct)

        runnable = with_prelude(expr) if options["prelude"] else expr
        params = BspParams(p=options["p"], g=options["g"], l=options["l"])
        trace_window = obs.trace() if self.config.trace_summaries else None
        run = lambda: run_costed(
            runnable,
            params,
            backend=options["backend"],
            faults=faults,
            retry=retry,
            engine=self.config.engine,
        )
        try:
            if trace_window is not None:
                with trace_window as collected:
                    result = run()
                trace_summary = obs.summarize(collected)
            else:
                result = run()
                trace_summary = None
        except StuckError as error:
            raise RequestError(422, "stuck", str(error)) from error
        except BspFaultError as error:
            # A fatal (non-survivable) injected fault: the superstep
            # aborted atomically; report it as the request's outcome.
            raise RequestError(422, "fault", str(error)) from error
        except RecursionError as error:
            raise RequestError(422, "recursion", "program exceeds evaluation depth") from error
        except ValueError as error:
            raise RequestError(400, "bad-request", str(error)) from error

        return {
            "digest": digest,
            "type": type_text,
            "constraints": constraint_text,
            "value": _value_text(result),
            "cost": _cost_payload(result),
            "trace_summary": trace_summary,
        }

    # -- sessions ---------------------------------------------------------

    def handle_session_create(self, payload: Dict[str, Any]) -> Tuple[int, bytes, str]:
        self._count_request()
        use_prelude = payload.get("prelude", True)
        if not isinstance(use_prelude, bool):
            raise RequestError(400, "bad-request", "prelude must be a boolean")
        with self._sessions_lock:
            if len(self._sessions) >= self.config.max_sessions:
                raise RequestError(
                    429, "overload", "too many live sessions; delete one first"
                )
            sid = f"s{next(self._session_ids)}"
            self._sessions[sid] = _Session(sid, use_prelude)
            live = len(self._sessions)
        if obs.metrics.is_enabled():
            obs.metrics.SESSIONS.set(live)
        return 201, serialize({"session": sid, "prelude": use_prelude}), "miss"

    def _session(self, sid: str) -> _Session:
        with self._sessions_lock:
            session = self._sessions.get(sid)
        if session is None:
            raise RequestError(404, "not-found", f"no session {sid!r}")
        return session

    def handle_session_define(
        self, sid: str, payload: Dict[str, Any]
    ) -> Tuple[int, bytes, str]:
        self._count_request()
        session = self._session(sid)
        name = payload.get("name")
        if not isinstance(name, str) or not name.isidentifier():
            raise RequestError(400, "bad-request", "name must be an identifier")
        try:
            summary = session.define(name, payload.get("source"))
        except TypingError as error:
            raise RequestError(422, "type", str(error)) from error
        return 200, serialize(summary), "miss"

    def handle_session_run(
        self, sid: str, payload: Dict[str, Any]
    ) -> Tuple[int, bytes, str]:
        self._count_request()
        session = self._session(sid)
        options = self._options(payload)
        options["prelude"] = session.use_prelude
        expr = session.program(payload.get("program", "()"))
        digest = program_digest(
            expr,
            p=options["p"],
            g=options["g"],
            l=options["l"],
            backend=options["backend"],
            faults=options["faults"],
            typed=options["typed"],
            use_prelude=options["prelude"],
        )
        cached = self.cache.get(digest)
        if cached is not None:
            return 200, cached, "hit"
        body = serialize(self._run_payload(expr, digest, options))
        self.cache.put(digest, body)
        return 200, body, "miss"

    def handle_session_info(self, sid: str) -> Tuple[int, bytes, str]:
        self._count_request()
        return 200, serialize(self._session(sid).info()), "miss"

    def handle_session_delete(self, sid: str) -> Tuple[int, bytes, str]:
        self._count_request()
        with self._sessions_lock:
            if self._sessions.pop(sid, None) is None:
                raise RequestError(404, "not-found", f"no session {sid!r}")
            live = len(self._sessions)
        if obs.metrics.is_enabled():
            obs.metrics.SESSIONS.set(live)
        return 200, serialize({"deleted": sid}), "miss"

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._sessions_lock:
            sessions = len(self._sessions)
        solver = {
            name: fn.cache_info()._asdict()
            for name, fn in perf.registered_caches().items()
        }
        return {
            "uptime_s": time.time() - self.started_at,
            "requests": self.requests,
            "sessions": sessions,
            "response_cache": self.cache.stats(),
            "solver_caches": solver,
            "intern_pools": intern_pool_stats(),
        }
