"""The probe families have one table, ``qfi.FAMILIES``, and its order is the
sweep CSV's row order. The benchmark checks that order against its own copy
in ``benchmarks/workloads.py``, read here without changing it, so every
reader of the table must agree with that copy."""

import runpy
from pathlib import Path

from gaussfisher import qfi
from gaussfisher.cli import build_parser
from gaussfisher.sweeps import SweepSpec

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _state_choices(verb: str) -> tuple:
    parser = build_parser()
    (verbs,) = [a for a in parser._actions if a.dest == "command"]
    (state,) = [a for a in verbs.choices[verb]._actions if a.dest == "state"]
    return tuple(state.choices)


def test_every_family_reader_follows_the_benchmark_row_order():
    families = runpy.run_path(str(WORKLOADS))["FAMILIES"]
    assert tuple(qfi.FAMILIES) == families
    assert SweepSpec().families == families
    assert _state_choices("sweep") == _state_choices("compare") == families
