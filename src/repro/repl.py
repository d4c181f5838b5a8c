"""An interactive mini-BSML REPL (``minibsml repl``).

Reads expressions or ``let`` definitions, typechecks them against the
prelude plus the session's own definitions, evaluates them on the
session's BSP machine, and prints value, type and (on demand) cost.

Meta-commands::

    :type <expr>     infer and print the type scheme, nothing is evaluated
    :explain <expr>  print the typing derivation (or the rejection tree)
    :trace <expr>    print the small-step reduction sequence
    :trace on|off    start/pause structured trace collection (spans per
                     BSP process, fault events, inference timings)
    :trace save F    write the collected trace to F (suffix picks the
                     format: .jsonl, .txt summary, else Chrome JSON)
    :cost            print the BSP cost accumulated so far
    :stats           print perf counters and solver-cache hit rates
                     (:stats verbose includes zero-call caches)
    :metrics         print the Prometheus exposition of the session's
                     metrics (:metrics on|off toggles collection,
                     :metrics reset zeroes every series)
    :backend [name]  show or switch the execution backend (seq/thread/process)
    :faults [SPEC]   show, arm (e.g. seed=42,crash=0.1,attempts=4) or
                     disarm (:faults off) deterministic fault injection
    :reset           forget definitions and cost
    :p <n> [g] [l]   restart the machine with new BSP parameters
    :env             list the session's definitions
    :quit            leave

Definitions are ordinary ``let`` items without ``in``::

    minibsml> let v = mkpar (fun i -> i * i)
    val v : int par = <0, 1, 4, 9>
    minibsml> bcast 2 v
    - : int par = <4, 4, 4, 4>
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, TextIO

from repro import obs, perf
from repro.bsp.executor import BACKENDS, get_executor
from repro.bsp.faults import FaultSpecError, parse_fault_spec
from repro.bsp.machine import BspMachine
from repro.bsp.params import BspParams
from repro.core.infer import infer
from repro.core.judgments import explain
from repro.core.prelude_env import prelude_env
from repro.core.schemes import TypeEnv, generalize
from repro.lang.ast import Expr
from repro.lang.errors import ReproError
from repro.lang.lexer import tokenize
from repro.lang.parser import _Parser
from repro.lang.prelude import prelude_map, with_prelude
from repro.lang.pretty import pretty
from repro.lang.substitution import free_vars, substitute
from repro.semantics.compiled import CompiledEvaluator
from repro.semantics.errors import EvalError
from repro.semantics.smallstep import trace as smallstep_trace
from repro.semantics.values import Value, reify


class Session:
    """One REPL session: typing environment, value environment, machine."""

    def __init__(
        self,
        params: Optional[BspParams] = None,
        backend: str = "seq",
        fault_spec: Optional[str] = None,
    ) -> None:
        self.params = params or BspParams(p=4, g=1.0, l=20.0)
        self.backend = backend
        #: The armed ``:faults`` spec (re-armed with a fresh plan, same
        #: seed, on every :meth:`reset`); None when faults are off.
        self.fault_spec = fault_spec
        #: Session-long perf window, installed by :func:`run_repl`.
        self.perf_stats: Optional[perf.PerfStats] = None
        #: Structured trace window (``:trace on`` or ``--trace FILE``);
        #: survives :meth:`reset` — it observes the session, not one
        #: machine incarnation.
        self.trace_collector: Optional[obs.Trace] = None
        #: True while this session holds one reference on the global
        #: metrics registry (``:metrics on``); released at exit.
        self.metrics_on = False
        self.reset()

    def reset(self) -> None:
        self.machine = BspMachine(self.params, executor=get_executor(self.backend))
        if self.fault_spec:
            plan, policy = parse_fault_spec(self.fault_spec)
            self.machine.arm_faults(plan, policy)
        self.evaluator = CompiledEvaluator(self.params.p, self.machine)
        self.type_env: TypeEnv = prelude_env()
        self.values: Dict[str, Value] = {}
        for name, body in prelude_map().items():
            self.values[name] = CompiledEvaluator(self.params.p).eval(
                with_prelude(body)
            )
        self.definitions: Dict[str, str] = {}

    def set_params(self, params: BspParams) -> None:
        self.params = params
        self.reset()

    # -- input handling -----------------------------------------------------

    def handle(self, line: str, out: TextIO) -> bool:
        """Process one input line; returns False when the session ends."""
        line = line.strip()
        if not line:
            return True
        try:
            if line.startswith(":"):
                return self._meta(line, out)
            self._program(line, out)
        except (ReproError, EvalError) as error:
            print(f"error: {error}", file=out)
        return True

    def _meta(self, line: str, out: TextIO) -> bool:
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        if command in (":quit", ":q", ":exit"):
            return False
        if command == ":type":
            expr = self._parse_expr(rest)
            ct = infer(expr, self.type_env)
            print(f"- : {generalize(ct, self.type_env)}", file=out)
            return True
        if command == ":explain":
            expr = self._parse_expr(rest)
            print(explain(expr, self.type_env).render(), file=out)
            return True
        if command == ":trace":
            word, _, tail = rest.partition(" ")
            if word in ("on", "off", "save", "status"):
                self._trace_meta(word, tail.strip(), out)
                return True
            expr = self._close(self._parse_expr(rest))
            for index, state in enumerate(smallstep_trace(expr, self.params.p, 50_000)):
                print(f"{index:>4}  {pretty(state)}", file=out)
            return True
        if command == ":cost":
            print(self.machine.cost().render(self.params), file=out)
            return True
        if command == ":stats":
            if self.perf_stats is not None:
                print(self.perf_stats.render(verbose=rest == "verbose"), file=out)
            else:
                print("perf collection is not active for this session", file=out)
            return True
        if command == ":metrics":
            self._metrics_meta(rest, out)
            return True
        if command == ":backend":
            if not rest:
                print(
                    f"backend: {self.machine.executor.name} "
                    f"(available: {', '.join(BACKENDS)})",
                    file=out,
                )
                return True
            previous = self.machine.executor
            try:
                self.machine.use_backend(rest)
                # Probe eagerly so an unavailable pool is one clear line
                # now, not a traceback at the next evaluation.
                self.machine.executor.ensure_available()
            except (ValueError, ReproError) as error:
                self.machine.executor = previous
                print(f"error: {error}", file=out)
                return True
            self.backend = self.machine.executor.name
            print(
                f"backend switched to {self.machine.executor.name} "
                "(definitions and accumulated cost carry over)",
                file=out,
            )
            return True
        if command == ":faults":
            if not rest:
                plan, policy = self.machine.faults, self.machine.retry
                if plan is None:
                    print("faults: off", file=out)
                else:
                    print(
                        f"faults: {plan.describe()}"
                        + (f"; {policy.describe()}" if policy else "; no retry"),
                        file=out,
                    )
                return True
            if rest.lower() in ("off", "none", "clear"):
                self.fault_spec = None
                self.machine.disarm_faults()
                print("faults disarmed", file=out)
                return True
            try:
                plan, policy = parse_fault_spec(rest)
            except FaultSpecError as error:
                print(f"error: {error}", file=out)
                return True
            self.fault_spec = rest
            self.machine.arm_faults(plan, policy)
            print(
                f"faults armed: {plan.describe()}"
                + (f"; {policy.describe()}" if policy else "; no retry "
                   "policy (every injected fault is fatal but atomic)"),
                file=out,
            )
            return True
        if command == ":reset":
            self.reset()
            print("session reset", file=out)
            return True
        if command == ":env":
            for name, source in self.definitions.items():
                print(f"let {name} = {source}", file=out)
            if not self.definitions:
                print("(no session definitions; the prelude is loaded)", file=out)
            return True
        if command == ":p":
            parts = rest.split()
            if not parts:
                print(f"machine: {self.params.describe()}", file=out)
                return True
            p = int(parts[0])
            g = float(parts[1]) if len(parts) > 1 else self.params.g
            l = float(parts[2]) if len(parts) > 2 else self.params.l
            self.set_params(BspParams(p=p, g=g, l=l))
            print(f"machine restarted: {self.params.describe()}", file=out)
            return True
        print(f"unknown command {command!r} (try :type :explain :trace :cost "
              ":stats :metrics :backend :faults :reset "
              ":env :p :quit)",
              file=out)
        return True

    def _metrics_meta(self, rest: str, out: TextIO) -> None:
        """``:metrics [on|off|reset]``."""
        word = rest.strip().lower()
        if word == "on":
            if self.metrics_on:
                print("metrics collection is already on", file=out)
                return
            obs.metrics.enable()
            self.metrics_on = True
            print(
                "metrics on (superstep/inference spans now aggregate; "
                ":metrics to view)",
                file=out,
            )
            return
        if word == "off":
            if not self.metrics_on:
                print("metrics collection was not on for this session", file=out)
                return
            obs.metrics.disable()
            self.metrics_on = False
            print("metrics off (collected values retained; :metrics to view)", file=out)
            return
        if word == "reset":
            obs.metrics.global_registry().reset()
            print("metrics reset: every series zeroed", file=out)
            return
        if word:
            print("usage: :metrics [on|off|reset]", file=out)
            return
        if not self.metrics_on and not obs.metrics.is_enabled():
            print(
                "metrics collection is off (:metrics on to start); "
                "showing the last collected values:",
                file=out,
            )
        print(obs.metrics.render_global(), end="", file=out)

    def _trace_meta(self, word: str, rest: str, out: TextIO) -> None:
        """``:trace on|off|save FILE [format]|status``."""
        collector = self.trace_collector
        # obs.is_tracing() is true whenever *anyone* collects — including
        # the global metrics sink — so the session's own window state
        # must be read with is_active(collector).
        if word == "on":
            if collector is not None and obs.is_active(collector):
                print(
                    f"tracing is already on ({len(collector.records)} records)",
                    file=out,
                )
            elif collector is not None:
                obs.resume(collector)
                print(
                    f"tracing resumed ({len(collector.records)} records so far)",
                    file=out,
                )
            else:
                self.trace_collector = obs.start()
                print("tracing on", file=out)
            return
        if word == "off":
            if collector is None:
                print("tracing was never on", file=out)
            else:
                obs.stop(collector)
                print(
                    f"tracing paused ({len(collector.records)} records held; "
                    ":trace save FILE to export, :trace on to resume)",
                    file=out,
                )
            return
        if word == "status":
            if collector is None:
                print("tracing: off", file=out)
            else:
                state = "on" if obs.is_active(collector) else "paused"
                print(
                    f"tracing: {state}, {len(collector.records)} records on "
                    f"{len(collector.tracks())} tracks",
                    file=out,
                )
            return
        # save FILE [chrome|jsonl|summary]
        if collector is None:
            print("nothing to save: tracing was never on (:trace on)", file=out)
            return
        path, _, format_word = rest.partition(" ")
        if not path:
            print("usage: :trace save FILE [chrome|jsonl|summary]", file=out)
            return
        format_word = format_word.strip() or None
        if format_word is not None and format_word not in obs.TRACE_FORMATS:
            print(
                f"unknown trace format {format_word!r} "
                f"(choose from {', '.join(obs.TRACE_FORMATS)})",
                file=out,
            )
            return
        try:
            written = obs.write_trace(collector, path, format=format_word)
        except OSError as error:
            print(f"error: {error}", file=out)
            return
        print(f"trace: {len(collector.records)} records -> {written}", file=out)

    def _program(self, line: str, out: TextIO) -> None:
        definitions, final = self._parse_program(line)
        for name, body in definitions:
            ct = infer(body, self.type_env)
            scheme = generalize(ct, self.type_env)
            value = self.evaluator.eval(body, dict(self.values))
            self.type_env = self.type_env.extend(name, scheme)
            self.values[name] = value
            self.definitions[name] = pretty(body)
            print(f"val {name} : {scheme} = {self._show(value)}", file=out)
        if final is not None:
            ct = infer(final, self.type_env)
            value = self.evaluator.eval(final, dict(self.values))
            print(f"- : {ct} = {self._show(value)}", file=out)

    # -- helpers ------------------------------------------------------------

    def _parse_expr(self, source: str) -> Expr:
        parser = _Parser(tokenize(source, "<repl>"), "<repl>")
        expr = parser.parse_expr()
        parser._expect_eof()
        return expr

    def _parse_program(self, source: str):
        parser = _Parser(tokenize(source, "<repl>"), "<repl>")
        return parser.parse_program()

    def _close(self, expr: Expr) -> Expr:
        """Substitute session/prelude values into a term for tracing."""
        result = expr
        for name in sorted(free_vars(expr)):
            if name in self.values:
                result = substitute(result, name, reify(self.values[name]))
        return result

    def _show(self, value: Value) -> str:
        try:
            return pretty(reify(value))
        except (EvalError, TypeError):
            return f"<{type(value).__name__.lstrip('V').lower()}>"


def run_repl(
    input_stream: Optional[TextIO] = None,
    output_stream: Optional[TextIO] = None,
    params: Optional[BspParams] = None,
    banner: bool = True,
    stats_at_exit: bool = False,
    backend: str = "seq",
    fault_spec: Optional[str] = None,
    trace_file: Optional[str] = None,
    trace_format: Optional[str] = None,
) -> int:
    """Run the REPL loop until EOF or ``:quit``.

    A session-long perf window is collected so ``:stats`` can report
    counters and solver-cache hit rates at any point; with
    ``stats_at_exit`` the final report is also printed when leaving.
    ``backend`` picks the initial execution backend (``:backend``
    switches it live); ``fault_spec`` arms fault injection from the
    start (``:faults`` shows, re-arms or disarms it live).
    ``trace_file`` turns structured trace collection on from the start
    and writes whatever was collected there on exit (``:trace`` controls
    the window live; an explicit ``:trace save`` mid-session is also
    honoured).
    """
    stdin = input_stream if input_stream is not None else sys.stdin
    out = output_stream if output_stream is not None else sys.stdout
    session = Session(params, backend=backend, fault_spec=fault_spec)
    if trace_file:
        session.trace_collector = obs.start()
    interactive = stdin.isatty() if hasattr(stdin, "isatty") else False
    if banner:
        print(
            f"mini-BSML repl — machine {session.params.describe()} — "
            ":quit to leave, :type/:explain/:trace/:cost/:stats for tools",
            file=out,
        )
    session.perf_stats = perf.start()
    try:
        while True:
            if interactive:
                print("minibsml> ", end="", file=out, flush=True)
            line = stdin.readline()
            if not line:
                return 0
            if not session.handle(line, out):
                return 0
    finally:
        perf.stop(session.perf_stats)
        if session.metrics_on:
            obs.metrics.disable()
            session.metrics_on = False
        if session.trace_collector is not None:
            obs.stop(session.trace_collector)
        if trace_file and session.trace_collector is not None:
            written = obs.write_trace(
                session.trace_collector, trace_file, format=trace_format
            )
            print(
                f"trace: {len(session.trace_collector.records)} records "
                f"-> {written}",
                file=out,
            )
        if stats_at_exit:
            print(session.perf_stats.render(), file=out)
