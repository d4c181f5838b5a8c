"""Tests for the interactive session (``minibsml repl``)."""

from __future__ import annotations

import io

import pytest

from repro.bsp.params import BspParams
from repro.repl import Session, run_repl


def drive(*lines, params=None):
    """Feed lines to a fresh session; return the output text."""
    from repro import obs

    out = io.StringIO()
    session = Session(params)
    try:
        for line in lines:
            if not session.handle(line, out):
                break
    finally:
        # run_repl owns this teardown in production; a bare Session test
        # must not leak an active trace collector into later tests.
        if session.trace_collector is not None:
            obs.stop(session.trace_collector)
    return out.getvalue()


class TestEvaluation:
    def test_expression(self):
        assert "- : int = 3" in drive("1 + 2")

    def test_definition_then_use(self):
        output = drive("let sq = fun x -> x * x", "sq 9")
        assert "val sq :" in output
        assert "- : int = 81" in output

    def test_parallel_values_render_with_brackets(self):
        output = drive("mkpar (fun i -> i)")
        assert "<0, 1, 2, 3>" in output

    def test_prelude_available(self):
        output = drive("bcast 1 (mkpar (fun i -> i * 7))")
        assert "<7, 7, 7, 7>" in output

    def test_definitions_persist(self):
        output = drive(
            "let v = mkpar (fun i -> i)",
            "let w = apply (mkpar (fun i -> fun x -> x + 1), v)",
            "w",
        )
        assert "<1, 2, 3, 4>" in output

    def test_references_work(self):
        output = drive("let r = ref 10", "r := !r + 5 ; !r")
        assert "- : int = 15" in output

    def test_type_errors_are_reported_not_fatal(self):
        output = drive("fst (1, mkpar (fun i -> i))", "1 + 1")
        assert "error:" in output
        assert "- : int = 2" in output

    def test_eval_errors_are_reported_not_fatal(self):
        output = drive("1 / 0", "2 + 2")
        assert "error:" in output
        assert "- : int = 4" in output

    def test_parse_error_reported(self):
        assert "error:" in drive("fun ->")


class TestMetaCommands:
    def test_type(self):
        output = drive(":type fun x -> x")
        assert "'a -> 'a" in output

    def test_type_does_not_evaluate(self):
        output = drive(":type mkpar (fun i -> i)", ":cost")
        assert "W = 0.0" in output

    def test_explain(self):
        output = drive(":explain fst (mkpar (fun i -> i), 1)")
        assert "(App)" in output

    def test_trace(self):
        output = drive(":trace 1 + 2")
        assert "1 + 2" in output and "3" in output

    def test_trace_uses_session_definitions(self):
        output = drive("let two = 2", ":trace two + two")
        assert "4" in output

    def test_cost_accumulates(self):
        output = drive("put (mkpar (fun j -> fun d -> j))", ":cost")
        assert "S = 1" in output

    def test_reset(self):
        output = drive("let x = 1", ":reset", "x")
        assert "session reset" in output
        assert "error:" in output  # x is gone

    def test_env(self):
        output = drive("let x = 1", ":env")
        assert "let x" in output

    def test_p_restarts_machine(self):
        output = drive(":p 8", "mkpar (fun i -> i)")
        assert "p=8" in output
        assert "<0, 1, 2, 3, 4, 5, 6, 7>" in output

    def test_p_shows_current(self):
        assert "p=4" in drive(":p")

    def test_unknown_command(self):
        assert "unknown command" in drive(":frobnicate")

    def test_quit_stops(self):
        out = io.StringIO()
        session = Session()
        assert session.handle("1 + 1", out)
        assert not session.handle(":quit", out)


class TestRunRepl:
    def test_scripted_session(self):
        stdin = io.StringIO("let v = mkpar (fun i -> i)\nbcast 0 v\n:quit\n")
        out = io.StringIO()
        code = run_repl(stdin, out, params=BspParams(p=2))
        assert code == 0
        text = out.getvalue()
        assert "val v" in text
        assert "<0, 0>" in text

    def test_eof_terminates(self):
        code = run_repl(io.StringIO(""), io.StringIO())
        assert code == 0

    def test_banner_mentions_machine(self):
        out = io.StringIO()
        run_repl(io.StringIO(""), out, params=BspParams(p=3, g=2.0, l=9.0))
        assert "p=3" in out.getvalue()


class TestStats:
    def test_stats_command_reports_collection(self):
        stdin = io.StringIO("let v = mkpar (fun i -> i)\n:stats\n:quit\n")
        out = io.StringIO()
        code = run_repl(stdin, out, params=BspParams(p=2), banner=False)
        assert code == 0
        text = out.getvalue()
        assert "perf stats:" in text
        assert "infer.runs" in text

    def test_stats_at_exit(self):
        stdin = io.StringIO("1 + 1\n")
        out = io.StringIO()
        run_repl(
            stdin, out, params=BspParams(p=2), banner=False, stats_at_exit=True
        )
        assert "perf stats:" in out.getvalue()

    def test_stats_window_closed_after_exit(self):
        from repro import perf

        run_repl(io.StringIO(""), io.StringIO(), params=BspParams(p=2))
        assert not perf.is_collecting()


class TestBackendCommand:
    def test_backend_shows_current_and_available(self):
        out = drive(":backend")
        assert "backend: seq" in out
        assert "thread" in out and "process" in out

    def test_backend_switch_preserves_session_state(self):
        out = drive(
            "let v = mkpar (fun i -> i * i)",
            ":backend thread",
            "bcast 3 v",
            ":backend process",
            "bcast 3 v",
        )
        assert "backend switched to thread" in out
        assert "backend switched to process" in out
        assert out.count("- : int par = <9, 9, 9, 9>") == 2

    def test_backend_results_match_sequential(self):
        program = "put (mkpar (fun s -> fun d -> s + d))"
        expected = drive(program)
        for backend in ("thread", "process"):
            assert drive(f":backend {backend}", program).endswith(expected)

    def test_unknown_backend_is_reported_not_fatal(self):
        out = drive(":backend gpu", "1 + 1")
        assert "error: unknown backend" in out
        assert "- : int = 2" in out

    def test_initial_backend_parameter(self):
        out = io.StringIO()
        session = Session(backend="thread")
        session.handle(":backend", out)
        assert "backend: thread" in out.getvalue()


class TestRemovedEngineCommands:
    @pytest.mark.parametrize(
        "command", [":engine", ":engine tree", ":infer-engine", ":infer-engine w"]
    )
    def test_is_unknown(self, command):
        out = drive(command, "1 + 1")
        assert f"unknown command {command.split()[0]!r}" in out
        assert "- : int = 2" in out


class TestFaultsCommand:
    def test_faults_default_off(self):
        assert "faults: off" in drive(":faults")

    def test_arm_show_disarm(self):
        out = drive(
            ":faults seed=3,crash=0.1,attempts=8",
            ":faults",
            ":faults off",
            ":faults",
        )
        assert "faults armed:" in out
        assert "seed=3" in out and "crash=0.1" in out
        assert "faults disarmed" in out
        assert out.rstrip().endswith("faults: off")

    def test_bad_spec_is_an_error_line_not_fatal(self):
        out = drive(":faults crash=lots", "1 + 1")
        assert "error:" in out
        assert "- : int = 2" in out  # the session survived

    def test_survivable_faults_leave_results_identical(self):
        program = "bcast 1 (mkpar (fun i -> i * i))"
        clean = drive(program)
        chaotic = drive(":faults seed=9,crash=0.3,drop=0.2,attempts=6", program)
        assert clean.strip() in chaotic

    def test_unsurvivable_fault_is_one_error_line_then_recovers(self):
        out = drive(
            ":faults seed=1,crash=1.0",
            "mkpar (fun i -> i)",
            ":faults off",
            "mkpar (fun i -> i)",
        )
        assert "error: superstep compute phase failed" in out
        assert "rolled back" in out
        assert "<0, 1, 2, 3>" in out  # works again once disarmed

    def test_reset_rearms_the_session_spec(self):
        out = drive(":faults seed=5,crash=0.05", ":reset", ":faults")
        assert "session reset" in out
        # The spec survives :reset (fresh plan, same seed).
        assert out.rstrip().endswith("faults: seed=5, crash=0.05; no retry")

    def test_initial_fault_spec_parameter(self):
        out = io.StringIO()
        run_repl(
            input_stream=io.StringIO(":faults\n"),
            output_stream=out,
            banner=False,
            fault_spec="seed=2,timeout=0.1,attempts=3",
        )
        text = out.getvalue()
        assert "faults: seed=2, timeout=0.1" in text


class TestBackendErrors:
    def test_unavailable_backend_restores_previous(self, monkeypatch):
        import repro.bsp.executor as executor_mod

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("thread creation forbidden")

        monkeypatch.delitem(executor_mod._SHARED, "thread", raising=False)
        monkeypatch.setattr(executor_mod, "ThreadPoolExecutor", _NoPool)
        out = drive(":backend thread", ":backend", "1 + 1")
        monkeypatch.delitem(executor_mod._SHARED, "thread", raising=False)
        assert "error: backend 'thread' is unavailable" in out
        assert "backend: seq" in out  # still on the previous backend
        assert "- : int = 2" in out


class TestTraceCommand:
    """``:trace on|off|save|status`` (``:trace <expr>`` still small-steps)."""

    def test_trace_expr_still_small_steps(self):
        output = drive(":trace 1 + 2")
        assert "1 + 2" in output
        assert "3" in output

    def test_status_off_by_default(self):
        assert "tracing: off" in drive(":trace status")

    def test_on_collects_and_save_writes(self, tmp_path):
        from repro import obs

        target = tmp_path / "session.json"
        output = drive(
            ":trace on",
            "bcast 2 (mkpar (fun i -> i * i))",
            ":trace status",
            f":trace save {target}",
        )
        assert "tracing on" in output
        assert "tracing: on" in output
        assert "records ->" in output
        assert obs.validate_chrome_trace(target) > 0

    def test_off_pauses_and_on_resumes(self):
        output = drive(
            ":trace on",
            "mkpar (fun i -> i)",
            ":trace off",
            ":trace status",
            ":trace on",
            ":trace status",
        )
        assert "tracing paused" in output
        assert "tracing: paused" in output
        assert "tracing resumed" in output

    def test_window_survives_reset(self):
        output = drive(
            ":trace on",
            "mkpar (fun i -> i)",
            ":reset",
            "mkpar (fun i -> i)",
            ":trace status",
        )
        assert "session reset" in output
        assert "tracing: on" in output

    def test_save_before_on_is_friendly(self, tmp_path):
        output = drive(f":trace save {tmp_path / 'x.json'}")
        assert "nothing to save" in output

    def test_save_without_path_shows_usage(self):
        output = drive(":trace on", ":trace save")
        assert "usage: :trace save" in output

    def test_save_with_explicit_format(self, tmp_path):
        target = tmp_path / "t.json"
        output = drive(
            ":trace on", "1 + 1", f":trace save {target} summary"
        )
        assert "records ->" in output
        assert target.read_text().startswith("trace summary")

    def test_save_with_unknown_format_is_rejected(self, tmp_path):
        output = drive(
            ":trace on", f":trace save {tmp_path / 't.json'} xml"
        )
        assert "unknown trace format" in output

    def test_trace_already_on(self):
        output = drive(":trace on", ":trace on")
        assert "already on" in output

    def test_off_before_on_is_friendly(self):
        output = drive(":trace off")
        assert "never on" in output

    def test_session_trace_stack_unwinds(self):
        from repro import obs

        stdin = io.StringIO(":trace on\n1 + 1\n")
        run_repl(stdin, io.StringIO(), params=BspParams(p=2), banner=False)
        assert not obs.is_tracing()


class TestRunReplTraceFile:
    def test_trace_file_written_at_exit(self, tmp_path):
        from repro import obs

        target = tmp_path / "repl.json"
        stdin = io.StringIO("bcast 0 (mkpar (fun i -> i))\n:quit\n")
        out = io.StringIO()
        code = run_repl(
            stdin,
            out,
            params=BspParams(p=2),
            banner=False,
            trace_file=str(target),
        )
        assert code == 0
        assert "records ->" in out.getvalue()
        assert obs.validate_chrome_trace(target) > 0

    def test_trace_format_respected(self, tmp_path):
        target = tmp_path / "repl.out"
        stdin = io.StringIO("1 + 1\n")
        run_repl(
            stdin,
            io.StringIO(),
            params=BspParams(p=2),
            banner=False,
            trace_file=str(target),
            trace_format="jsonl",
        )
        import json

        first = json.loads(target.read_text().splitlines()[0])
        assert {"name", "track", "ts", "dur", "args"} == set(first)

    def test_trace_window_closed_after_exit(self, tmp_path):
        from repro import obs

        run_repl(
            io.StringIO(""),
            io.StringIO(),
            params=BspParams(p=2),
            trace_file=str(tmp_path / "t.json"),
        )
        assert not obs.is_tracing()


class TestStatsVerbose:
    def _run(self, *lines):
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        out = io.StringIO()
        run_repl(stdin, out, params=BspParams(p=2), banner=False)
        return out.getvalue()

    def test_stats_verbose_lists_idle_caches(self):
        output = self._run("1 + 1", ":stats verbose")
        assert "perf stats:" in output
        assert "0/0" in output

    def test_plain_stats_hides_idle_caches(self):
        output = self._run("1 + 1", ":stats")
        assert "perf stats:" in output
        assert "0/0" not in output
