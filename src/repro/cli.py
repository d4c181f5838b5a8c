"""Command-line interface: ``minibsml {typecheck,run,profile,trace,analyze,explain}``.

Examples::

    minibsml typecheck -e "fst (1, mkpar (fun i -> i))"
    minibsml run -e "bcast 2 (mkpar (fun i -> i * i))" -p 8 -g 2 -l 100
    minibsml run -e "bcast 2 (mkpar (fun i -> i * i))" --trace out.json
    minibsml profile -e "bcast 2 (mkpar (fun i -> i * i))" -p 8
    minibsml analyze out.json
    minibsml trace -e "apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> 0))" -p 2
    minibsml explain -e "mkpar (fun pid -> let this = mkpar (fun i -> i) in pid)"
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import obs, perf, run_program, typecheck_scheme
from repro.core import TypingError, explain as explain_expr
from repro.lang import LexError, ParseError, parse_program, pretty, with_prelude
from repro.lang.errors import ReproError
from repro.semantics import StuckError, trace as smallstep_trace


def _load(args: argparse.Namespace):
    if args.expr is not None:
        source = args.expr
        filename = "<command line>"
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
        filename = args.file
    return parse_program(source, filename)


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("-e", "--expr", help="program text on the command line")
    group.add_argument("file", nargs="?", help="path to a .bsml file")
    parser.add_argument(
        "--no-prelude",
        action="store_true",
        help="do not wrap the program in the standard prelude",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print perf counters and cache hit rates to stderr",
    )
    parser.add_argument(
        "--stats-verbose",
        action="store_true",
        help="like --stats but also list registered caches with zero calls",
    )


def _command_typecheck(args: argparse.Namespace) -> int:
    expr = _load(args)
    scheme = typecheck_scheme(expr, use_prelude=not args.no_prelude)
    print(scheme)
    if args.effects:
        from repro.core.effects import analyze_effects

        warnings = analyze_effects(expr)
        for warning in warnings:
            print(f"effect: {warning}", file=sys.stderr)
        if any(w.is_error for w in warnings):
            return 1
    return 0


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="collect a structured trace (spans per BSP process, "
        "inference timings) and write it to FILE",
    )
    parser.add_argument(
        "--trace-format",
        choices=obs.TRACE_FORMATS,
        default=None,
        help="trace file format (default: inferred from the FILE suffix; "
        "chrome is Perfetto/about://tracing-loadable JSON)",
    )


def _traced_run(args: argparse.Namespace):
    """Evaluate the program, honouring ``--trace``; returns the result.

    Trace collection wraps the whole pipeline (typecheck + evaluation) so
    the inference track appears alongside the per-process timelines.
    """
    expr = _load(args)

    def evaluate():
        return run_program(
            expr,
            p=args.p,
            g=args.g,
            l=args.l,
            use_prelude=not args.no_prelude,
            typed=not args.untyped,
        )

    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return evaluate(), None
    with obs.trace() as collected:
        result = evaluate()
    obs.write_trace(collected, trace_path, format=args.trace_format)
    print(
        f"trace: {len(collected.records)} records -> {trace_path}",
        file=sys.stderr,
    )
    return result, collected


def _command_run(args: argparse.Namespace) -> int:
    result, _ = _traced_run(args)
    print(result.python_value)
    if args.cost:
        print(result.render())
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    expr = _load(args)
    with obs.trace() as collected:
        result = run_program(
            expr,
            p=args.p,
            g=args.g,
            l=args.l,
            use_prelude=not args.no_prelude,
            typed=not args.untyped,
        )
    print(result.python_value)
    print(result.render())
    print(obs.summarize(collected))
    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs.write_trace(collected, trace_path, format=args.trace_format)
        print(
            f"trace: {len(collected.records)} records -> {trace_path}",
            file=sys.stderr,
        )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    expr = _load(args)
    if not args.no_prelude:
        expr = with_prelude(expr)
    shown = 0
    for state in smallstep_trace(expr, args.p, max_steps=args.max_steps):
        print(f"{shown:>5}  {pretty(state)}")
        shown += 1
        if args.limit and shown >= args.limit:
            print("  ... (truncated; raise --limit)")
            break
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    """Read a saved trace back and print the BSP analytics report."""
    try:
        trace = obs.load_trace(args.trace_file, format=args.format)
    except ValueError as error:
        # A malformed trace file is an input problem, like an unreadable
        # one: report it on the usage/IO exit code.
        print(f"malformed trace: {error}", file=sys.stderr)
        return 2
    report = obs.analyze_trace(trace, g=args.g, l=args.l)
    print(report.render())
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    expr = _load(args)
    if not args.no_prelude:
        expr = with_prelude(expr)
    explanation = explain_expr(expr)
    print(explanation.render(max_width=args.width))
    return 0 if explanation.accepted else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minibsml",
        description=(
            "mini-BSML: the language, type system and BSP cost model of "
            "'A Polymorphic Type System for Bulk Synchronous Parallel ML'"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("typecheck", help="infer the type scheme")
    _add_source_arguments(check)
    check.add_argument(
        "--effects",
        action="store_true",
        help="also run the replicated-reference effect analysis (section 6)",
    )
    check.set_defaults(handler=_command_typecheck)

    run = commands.add_parser("run", help="typecheck, evaluate and cost")
    _add_source_arguments(run)
    run.add_argument("-p", type=int, default=4, help="number of processes")
    run.add_argument("-g", type=float, default=1.0, help="BSP g parameter")
    run.add_argument("-l", type=float, default=20.0, help="BSP l parameter")
    run.add_argument("--cost", action="store_true", help="print the cost table")
    run.add_argument(
        "--untyped", action="store_true", help="skip the static typecheck"
    )
    _add_trace_arguments(run)
    run.set_defaults(handler=_command_run)

    profile = commands.add_parser(
        "profile",
        help="run with tracing on and print the latency histogram summary "
        "next to the abstract BSP cost table",
    )
    _add_source_arguments(profile)
    profile.add_argument("-p", type=int, default=4, help="number of processes")
    profile.add_argument("-g", type=float, default=1.0, help="BSP g parameter")
    profile.add_argument("-l", type=float, default=20.0, help="BSP l parameter")
    profile.add_argument(
        "--untyped", action="store_true", help="skip the static typecheck"
    )
    _add_trace_arguments(profile)
    profile.set_defaults(handler=_command_profile)

    analyze = commands.add_parser(
        "analyze",
        help="read a saved trace (from --trace / profile) and report the "
        "superstep critical path, load imbalance, traffic matrix and a "
        "least-squares calibration of effective g/l with a "
        "modelled-vs-measured drift table",
    )
    analyze.add_argument(
        "trace_file", help="path to a saved trace (.jsonl or Chrome JSON)"
    )
    analyze.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default=None,
        help="trace file format (default: inferred from the suffix)",
    )
    analyze.add_argument(
        "-g",
        type=float,
        default=None,
        help="the machine's configured g in seconds/word; with both -g and "
        "-l the drift table predicts from the configured model instead of "
        "the fitted one",
    )
    analyze.add_argument(
        "-l",
        type=float,
        default=None,
        help="the machine's configured l in seconds/barrier (see -g)",
    )
    analyze.set_defaults(handler=_command_analyze)

    tr = commands.add_parser("trace", help="print the small-step reduction")
    _add_source_arguments(tr)
    tr.add_argument("-p", type=int, default=2, help="number of processes")
    tr.add_argument("--limit", type=int, default=200, help="max lines shown")
    tr.add_argument("--max-steps", type=int, default=100_000)
    tr.set_defaults(handler=_command_trace)

    expl = commands.add_parser(
        "explain", help="render the typing derivation (or the rejection)"
    )
    _add_source_arguments(expl)
    expl.add_argument("--width", type=int, default=200, help="max judgement width")
    expl.set_defaults(handler=_command_explain)

    repl = commands.add_parser("repl", help="interactive session")
    repl.add_argument("-p", type=int, default=4, help="number of processes")
    repl.add_argument("-g", type=float, default=1.0, help="BSP g parameter")
    repl.add_argument("-l", type=float, default=20.0, help="BSP l parameter")
    repl.add_argument(
        "--stats",
        action="store_true",
        help="print perf counters and cache hit rates at exit (also :stats)",
    )
    repl.add_argument(
        "--trace",
        metavar="FILE",
        help="collect a session-long trace and write it to FILE at exit "
        "(also :trace on/off/save in the session)",
    )
    repl.add_argument(
        "--trace-format",
        choices=obs.TRACE_FORMATS,
        default=None,
        help="trace file format (default: inferred from the FILE suffix)",
    )
    repl.set_defaults(handler=_command_repl)

    serve = commands.add_parser(
        "serve",
        help="start the typecheck-and-run HTTP service "
        "(POST /v1/run, /v1/typecheck, incremental /v1/session/*)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8100, help="bind port (0 picks a free one)"
    )
    serve.add_argument("-p", type=int, default=4, help="default number of processes")
    serve.add_argument("-g", type=float, default=1.0, help="default BSP g parameter")
    serve.add_argument("-l", type=float, default=20.0, help="default BSP l parameter")
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        help="requests computing at once; excess requests queue",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="queued requests beyond which the server answers 429",
    )
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        help="entries in the digest-keyed response cache",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the process-global metrics registry and the "
        "/v1/metrics exposition",
    )
    serve.set_defaults(handler=_command_serve)

    return parser


def _command_repl(args: argparse.Namespace) -> int:
    from repro.bsp.params import BspParams
    from repro.repl import run_repl

    return run_repl(
        params=BspParams(p=args.p, g=args.g, l=args.l),
        stats_at_exit=args.stats,
        trace_file=args.trace,
        trace_format=args.trace_format,
    )


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ReproServer, ServiceConfig, ServiceCore

    config = ServiceConfig(
        p=args.p,
        g=args.g,
        l=args.l,
        cache_capacity=args.cache_capacity,
        metrics=not args.no_metrics,
    )
    server = ReproServer(
        ServiceCore(config),
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
    )

    async def serve() -> None:
        await server.start()
        print(
            f"serving mini-BSML on http://{server.host}:{server.port} "
            f"(p={config.p}, max-concurrency={server.max_concurrency})",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The REPL manages its own session-long window (and the :stats command).
    verbose_stats = getattr(args, "stats_verbose", False)
    wants_stats = (
        getattr(args, "stats", False) or verbose_stats
    ) and args.command != "repl"
    stats_context = perf.collect() if wants_stats else None
    try:
        if stats_context is None:
            return args.handler(args)
        with stats_context as stats:
            status = args.handler(args)
        print(stats.render(verbose=verbose_stats), file=sys.stderr)
        return status
    except (LexError, ParseError) as error:
        print(f"syntax error: {error}", file=sys.stderr)
        return 2
    except TypingError as error:
        print(f"type error: {error}", file=sys.stderr)
        return 1
    except StuckError as error:
        print(f"evaluation stuck: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # Missing source files, unwritable --trace targets, ports in use:
        # environment problems, reported like usage errors (exit 2).
        print(f"io error: {error}", file=sys.stderr)
        return 2
    except RecursionError:
        print(
            "error: program exceeds the recursion depth the toolchain "
            "supports (deeper than the raised interpreter limit)",
            file=sys.stderr,
        )
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
