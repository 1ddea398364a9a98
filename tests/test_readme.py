"""The README's library tour must run, and its CLI examples must parse, against
the current API."""

import re
import shlex
from pathlib import Path

import pytest

from gaussfisher.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md library tour", "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert len([line for line in printed if line]) == 3


def test_readme_cli_examples_parse():
    block = re.search(r"## Command line\n+```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gaussfisher ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gaussfisher {shlex.join(argv)}")
