"""Tests for the ``minibsml`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTypecheck:
    def test_accepts(self, capsys):
        code, out, _ = run_cli(capsys, "typecheck", "-e", "fun x -> x + 1")
        assert code == 0
        assert "int -> int" in out

    def test_prelude_names_available(self, capsys):
        code, out, _ = run_cli(capsys, "typecheck", "-e", "bcast")
        assert code == 0
        assert "int -> 'a par -> 'a par" in out

    def test_rejects_nesting(self, capsys):
        code, _, err = run_cli(
            capsys, "typecheck", "-e", "fst (1, mkpar (fun i -> i))"
        )
        assert code == 1
        assert "nesting" in err

    def test_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "typecheck", "-e", "fun ->")
        assert code == 2
        assert "syntax error" in err

    @pytest.mark.parametrize("source", ["é", "(* open", "12abc", "²"])
    @pytest.mark.parametrize("command", ["typecheck", "run"])
    def test_lex_error_is_a_syntax_error(self, capsys, command, source):
        code, _, err = run_cli(capsys, command, "-e", source)
        assert code == 2
        assert err.startswith("syntax error:")

    def test_no_prelude_flag(self, capsys):
        code, _, err = run_cli(capsys, "typecheck", "--no-prelude", "-e", "bcast")
        assert code == 1  # unbound without the prelude


class TestRemovedEngineFlags:
    """One evaluator and one inference engine ship on the CLI: the old
    selection flags are unknown arguments (argparse exits 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "-e", "1", "--engine=compiled"),
            ("profile", "-e", "1", "--engine=tree"),
            ("typecheck", "-e", "1", "--infer-engine=w"),
            ("run", "-e", "1", "--infer-engine=uf"),
            ("repl", "--engine=compiled"),
            ("serve", "--infer-engine=w"),
        ],
        ids=lambda argv: argv[0] + argv[-1].partition("=")[0],
    )
    def test_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as raised:
            run_cli(capsys, *argv)
        assert raised.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


class TestRun:
    def test_runs_and_prints_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "-e", "bcast 1 (mkpar (fun i -> i * 5))", "-p", "4"
        )
        assert code == 0
        assert "[5, 5, 5, 5]" in out

    def test_cost_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--cost", "-e", "put (mkpar (fun j -> fun d -> j))"
        )
        assert code == 0
        assert "BSP cost" in out
        assert "put" in out

    def test_typecheck_guards_run(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "-e", "mkpar (fun i -> mkpar (fun j -> j))"
        )
        assert code == 1
        assert "type error" in err

    def test_untyped_run_gets_dynamically_stuck(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--untyped",
            "-e",
            "mkpar (fun i -> mkpar (fun j -> j))",
        )
        assert code == 1
        assert "parallel" in err.lower()

    def test_file_input(self, capsys, tmp_path):
        source = tmp_path / "prog.bsml"
        source.write_text("let double x = x * 2 ;; double 21")
        code, out, _ = run_cli(capsys, "run", str(source))
        assert code == 0
        assert "42" in out


class TestTrace:
    def test_shows_steps(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "-e", "1 + 2 * 3", "-p", "2")
        assert code == 0
        assert "1 + 2 * 3" in out
        assert "7" in out

    def test_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--limit", "3", "-e",
            "(fix (fun f -> fun n -> if n = 0 then 0 else f (n - 1))) 50",
        )
        assert code == 0
        assert "truncated" in out


class TestExplain:
    def test_accepted_tree(self, capsys):
        code, out, _ = run_cli(
            capsys, "explain", "-e", "fst (mkpar (fun i -> i), 1)"
        )
        assert code == 0
        assert "well-typed" in out
        assert "(App)" in out

    def test_rejected_tree(self, capsys):
        code, out, _ = run_cli(
            capsys, "explain", "-e", "fst (1, mkpar (fun i -> i))"
        )
        assert code == 1
        assert "rejected" in out
        assert ": ?" in out


class TestEffectsFlag:
    def test_clean_program_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "typecheck", "--effects", "-e", "let r = ref 0 in r := 1 ; !r"
        )
        assert code == 0
        assert "effect:" not in err

    def test_diverging_program_exits_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys,
            "typecheck",
            "--effects",
            "-e",
            "let r = ref 0 in fst (mkpar (fun i -> r := i ; i), !r)",
        )
        assert code == 1
        assert "component assignment" in err
        assert "global deref" in err


class TestAscriptionsOnCli:
    def test_annotation_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "typecheck", "-e", "(mkpar (fun i -> i) : int par)"
        )
        assert code == 0
        assert "int par" in out

    def test_bad_annotation_rejected(self, capsys):
        code, _, err = run_cli(capsys, "typecheck", "-e", "(1 : bool)")
        assert code == 1

    def test_nested_annotation_rejected_as_nesting(self, capsys):
        code, _, err = run_cli(capsys, "typecheck", "-e", "(nc () : int par par)")
        assert code == 1
        assert "nesting" in err


class TestReplSubcommand:
    def test_repl_is_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["repl", "-p", "2"])
        assert args.p == 2


class TestStatsFlag:
    def test_run_stats_reports_nonzero_hit_rate(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run",
            "--stats",
            "-e",
            "bcast 2 (mkpar (fun i -> i * i))",
            "-p",
            "8",
        )
        assert code == 0
        assert "[4, 4, 4, 4, 4, 4, 4, 4]" in out
        assert "perf stats:" in err
        assert "constraints.is_satisfiable" in err
        # The solver caches must actually be hit on an examples-scale
        # program, not merely reported.
        hit_rates = [
            float(line.split("%")[0].split()[-1])
            for line in err.splitlines()
            if "constraints." in line and "%" in line
        ]
        assert hit_rates and max(hit_rates) > 0.0
        assert "supersteps" in err

    def test_typecheck_stats_counts_inference(self, capsys):
        code, _, err = run_cli(
            capsys, "typecheck", "--stats", "-e", "fun x -> x + 1"
        )
        assert code == 0
        assert "infer.runs" in err
        assert "unify.calls" in err

    def test_stats_off_by_default(self, capsys):
        code, _, err = run_cli(capsys, "typecheck", "-e", "fun x -> x + 1")
        assert code == 0
        assert "perf stats" not in err


class TestTraceFlag:
    """``--trace FILE`` / ``--trace-format`` on run, and ``profile``."""

    def test_run_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        from repro import obs

        target = tmp_path / "out.json"
        code, out, err = run_cli(
            capsys,
            "run",
            "-e",
            "bcast 2 (mkpar (fun i -> i * i))",
            "--trace",
            str(target),
        )
        assert code == 0
        assert "[4, 4, 4, 4]" in out
        assert "records ->" in err
        assert obs.validate_chrome_trace(target) > 0

    def test_run_trace_jsonl_by_suffix(self, capsys, tmp_path):
        import json

        target = tmp_path / "out.jsonl"
        code, _, _ = run_cli(
            capsys, "run", "-e", "mkpar (fun i -> i)", "--trace", str(target)
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert {"name", "track", "ts", "dur", "args"} == set(record)

    def test_run_trace_format_overrides_suffix(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys,
            "run",
            "-e",
            "mkpar (fun i -> i)",
            "--trace",
            str(target),
            "--trace-format",
            "summary",
        )
        assert code == 0
        assert target.read_text().startswith("trace summary")

    def test_run_without_trace_writes_nothing(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "-e", "mkpar (fun i -> i)")
        assert code == 0
        assert "trace" not in err
        assert list(tmp_path.iterdir()) == []


class TestProfileSubcommand:
    def test_prints_cost_table_and_histograms(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "-e", "bcast 2 (mkpar (fun i -> i * i))"
        )
        assert code == 0
        assert "[4, 4, 4, 4]" in out
        assert "BSP cost over p=4 processes" in out
        assert "measured ms" in out  # satellite: measured column
        assert "trace summary" in out
        assert "span latencies (ms):" in out
        assert "judgment" in out  # inference side is in the profile
        assert "superstep.compute" in out  # and the machine side

    def test_profile_with_trace_file(self, capsys, tmp_path):
        from repro import obs

        target = tmp_path / "profile.json"
        code, _, err = run_cli(
            capsys,
            "profile",
            "-e",
            "put (mkpar (fun j -> fun d -> j))",
            "--trace",
            str(target),
        )
        assert code == 0
        assert "records ->" in err
        assert obs.validate_chrome_trace(target) > 0


class TestStatsVerboseFlag:
    def test_verbose_includes_zero_call_caches(self, capsys):
        code, _, err = run_cli(
            capsys, "typecheck", "-e", "1 + 2", "--stats-verbose"
        )
        assert code == 0
        assert "perf stats" in err
        assert "0/0" in err  # at least one registered cache saw no calls

    def test_plain_stats_hides_zero_call_caches(self, capsys):
        code, _, err = run_cli(capsys, "typecheck", "-e", "1 + 2", "--stats")
        assert code == 0
        assert "perf stats" in err
        assert "0/0" not in err
