"""The README's library tour must run, its CLI examples must parse, and its
command for the Gauss-Legendre table must rebuild the committed table,
against the current API."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gaussfisher.cavity import _gauss_legendre
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


def test_readme_regenerates_the_gauss_legendre_table(tmp_path, monkeypatch):
    command = re.search(r'python3 -c "(.*gauss_legendre\.npz.*)"', README.read_text(encoding="utf-8")).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src" / "gaussfisher").mkdir(parents=True)
    exec(command, {})
    with np.load(tmp_path / "src" / "gaussfisher" / "gauss_legendre.npz") as data:
        fresh = {int(order): data[order] for order in data.files}
    assert fresh.keys() == _gauss_legendre().keys()
    for order, rule in _gauss_legendre().items():
        assert fresh[order].dtype == rule.dtype and fresh[order].shape == rule.shape
        assert np.max(np.abs(fresh[order] - rule) / np.spacing(np.abs(rule))) <= 2.0
