"""The CLI's parser is built once per process, on first use, and every
``build_parser`` call returns its own shallow copy of it: a copy parses as a
freshly built parser, and an attribute set on one copy, as the
benchmark's tracer sets a wrapped ``parse_args``, stays on that copy. The
usage and each verb's help are pinned, so that a change to the input table
cannot move them unseen."""

import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gaussfisher import cli

ROOT = Path(__file__).resolve().parents[1]
VERBS = ("sweep", "compare", "validate", "overlaps")


def readme_commands() -> list:
    block = re.search(r"## Command line\n+```sh\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    return [shlex.split(line)[1:] for line in block.group(1).splitlines() if line.startswith("gaussfisher ")]


#: per verb: its help, a flag it does not take, a bad value, a bad choice,
#: an abbreviation; then no verb and an unknown one
USAGE_ERRORS = [argv for verb in VERBS for argv in (
    [verb, "--help"], [verb, "--bogus"], [verb, "--nmax", "x"], [verb, "--state", "nope"], [verb, "--nm", "6"],
)] + [[], ["bogus"], ["--help"], ["compare", "--h", "0.1"], ["validate", "--grid", "0:1:0.1"], ["sweep", "--h"]]


def parse(parser: argparse.ArgumentParser, argv: list) -> tuple:
    """``(namespace as a dict or None, exit code, stdout, stderr)`` of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def test_the_usage_and_each_verbs_help_are_pinned(monkeypatch):
    # argparse wraps its text at COLUMNS less two
    monkeypatch.setenv("COLUMNS", "80")
    chunks = []
    for argv in ([], ["--help"], *([verb, "--help"] for verb in VERBS)):
        _, _, out, err = parse(cli.build_parser(), argv)
        chunks.append(" ".join(["$ gaussfisher", *argv]) + "\n" + out + err)
    assert "\n".join(chunks) == (ROOT / "tests" / "data" / "cli_help.txt").read_text(encoding="utf-8")


def test_build_parser_returns_a_distinct_copy_of_one_parser():
    first, second = cli.build_parser(), cli.build_parser()
    assert isinstance(first, argparse.ArgumentParser) and first is not second
    assert first is not cli._parser() and second is not cli._parser()


@pytest.mark.parametrize("argv", readme_commands() + USAGE_ERRORS, ids=shlex.join)
def test_each_copy_parses_as_a_freshly_built_parser(argv):
    fresh = parse(cli._parser.__wrapped__(), argv)
    assert parse(cli.build_parser(), argv) == fresh
    assert parse(cli.build_parser(), argv) == fresh


def test_the_usage_errors_exit_2_and_help_exits_0():
    # so that the comparison above covers the error paths, not only parses
    for argv in USAGE_ERRORS:
        assert parse(cli.build_parser(), argv)[1] == (0 if "--help" in argv else 2), argv


def test_an_attribute_set_on_one_copy_leaves_the_next_untouched(monkeypatch, capsys):
    """Wrapping ``parse_args`` on each returned parser, as the tracer does,
    wraps it once per call: a shared parser would be wrapped again on every
    call, and one parse would run every wrapper."""
    calls = []
    real = cli.build_parser

    def wrapping():
        parser = real()
        inner = parser.parse_args

        def parse_args(argv=None):
            calls.append(argv)
            return inner(argv)

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", wrapping)
    argv = ["sweep", "--nmax", "6", "--grid", "0.3"]
    for _ in range(3):
        assert cli.main(argv) == 0
    assert calls == [argv] * 3
    assert "parse_args" not in vars(real()) and "parse_args" not in vars(cli._parser())
    capsys.readouterr()


def test_a_second_main_call_defines_no_argument(monkeypatch, capsys):
    defined = []
    real = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        defined.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    argv = ["sweep", "--nmax", "6", "--grid", "0.3"]
    cli._parser.cache_clear()
    assert cli.main(argv) == 0
    assert len(defined) > len(cli.INPUTS)  # the first call builds every verb's flags
    defined.clear()
    assert cli.main(argv) == 0 and cli.main(["validate", "--nmax", "6"]) == 0
    assert defined == []
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import gaussfisher.cli as c; print(c._parser.cache_info().currsize)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0\n"
