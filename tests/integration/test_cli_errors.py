"""Regression: every CLI failure maps to a one-line diagnostic + exit
code, never a raw traceback.

``main()`` is the single error boundary: syntax errors exit 2, type and
evaluation errors exit 1, environment problems (missing files,
unwritable trace targets) exit 2, runaway recursion exits 1.  These
tests drive every subcommand over the rejected corpus and the
traceback-leaking inputs found in the wild (missing source file,
unwritable ``--trace``, ``fix``-driven infinite recursion).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.testing.generators import CORPUS_REJECTED

#: Subcommands that read a program, with the extra flags each needs.
PROGRAM_COMMANDS = (
    ("typecheck", ()),
    ("run", ()),
    ("profile", ()),
    ("trace", ()),
    ("explain", ()),
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRejectedCorpus:
    @pytest.mark.parametrize("source", CORPUS_REJECTED)
    @pytest.mark.parametrize("command", ["typecheck", "run", "profile"])
    def test_type_rejections_exit_one_with_diagnostic(
        self, capsys, command, source
    ):
        code, out, err = run_cli(capsys, command, "-e", source)
        assert code == 1
        assert "type error:" in err
        assert "Traceback" not in err and "Traceback" not in out

    @pytest.mark.parametrize("source", CORPUS_REJECTED[:3])
    def test_explain_renders_rejection_and_exits_one(self, capsys, source):
        code, out, err = run_cli(capsys, "explain", "-e", source)
        assert code == 1
        assert "Traceback" not in err


class TestEnvironmentErrors:
    @pytest.mark.parametrize("command,extra", PROGRAM_COMMANDS)
    def test_missing_source_file_is_a_clean_io_error(
        self, capsys, command, extra
    ):
        code, out, err = run_cli(
            capsys, command, *extra, "/nonexistent/program.bsml"
        )
        assert code == 2
        assert "io error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_unwritable_trace_target_is_a_clean_io_error(self, capsys, command):
        code, out, err = run_cli(
            capsys,
            command,
            "-e",
            "1 + 1",
            "--trace",
            "/nonexistent-dir/trace.json",
        )
        assert code == 2
        assert "io error:" in err
        assert "Traceback" not in err


class TestRecursionBlowup:
    def test_untyped_infinite_recursion_is_a_clean_error(self, capsys):
        source = "let rec = fix (fun f -> fun n -> f n) in rec 1"
        code, out, err = run_cli(capsys, "run", "--untyped", "-e", source)
        assert code == 1
        assert "recursion depth" in err
        assert "Traceback" not in err


class TestSyntaxErrors:
    @pytest.mark.parametrize("command,extra", PROGRAM_COMMANDS)
    def test_malformed_program_exits_two(self, capsys, command, extra):
        code, out, err = run_cli(capsys, command, *extra, "-e", "let x = in")
        assert code == 2
        assert "syntax error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "source", ["let 'a = 1 in 'a + 1", "fun 'x -> 'x", "1 + 'a", "fun x 'y -> x"]
    )
    def test_type_variable_spelling_is_not_an_expression_name(self, capsys, source):
        code, out, err = run_cli(capsys, "run", "-e", source)
        assert code == 2
        assert "syntax error:" in err
        assert out == ""

    def test_type_variable_in_an_annotation_still_runs(self, capsys):
        code, out, err = run_cli(capsys, "run", "-e", "let x' = (1 : 'a) in x' + 1")
        assert code == 0
        assert out.strip() == "2"
