"""CLI outputs pinned cell by cell against reference CSVs in ``tests/data``.

The references were written by an earlier, independently reviewed version of
the CLI. At ``n_max`` 10 they do not depend on the BLAS thread count, so a
refactor that claims to leave the numbers alone is held to them here:

* text cells (header, family, grid and ladder values, empty cells) match
  exactly;
* perturbative and energy-derived cells within 1e-12 relative;
* the two truncation-residual columns within 1e-14 absolute, because they
  are cancellations at the 1e-6 scale;
* oracle-derived cells within 1e-7 relative.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from gaussfisher.cli import main

DATA = Path(__file__).resolve().parent / "data"

PERTURBATIVE = ("rel", 1e-12)
RESIDUAL = ("abs", 1e-14)
ORACLE = ("rel", 1e-7)

SWEEP_TOLERANCES = {
    "r": PERTURBATIVE,
    "delta": PERTURBATIVE,
    "qfi_perturbative": PERTURBATIVE,
    "e2": PERTURBATIVE,
    "c2": PERTURBATIVE,
    "negativity": PERTURBATIVE,
    "residual_perturbative": RESIDUAL,
    "truncation_residual": RESIDUAL,
    "qfi_oracle": ORACLE,
    "residual_oracle": ORACLE,
}
#: slope rows put the fitted slope in the relative_deviation column
COMPARE_TOLERANCES = {
    "qfi_perturbative": PERTURBATIVE,
    "qfi_oracle": ORACLE,
    "relative_deviation": ORACLE,
}

CASES = {
    "sweep_nmax10_oracle.csv": (
        ["sweep", "--nmax", "10", "--grid", "0.137,0.5,0.771", "--x", "0.37",
         "--photons", "1.4", "--methods", "perturbative,oracle"],
        SWEEP_TOLERANCES,
    ),
    "compare_nmax10.csv": (["compare", "--nmax", "10"], COMPARE_TOLERANCES),
}


def _close(kind: str, tol: float, got: float, want: float) -> bool:
    if kind == "rel":
        return math.isclose(got, want, rel_tol=tol, abs_tol=0.0)
    return abs(got - want) <= tol


@pytest.mark.parametrize("reference", sorted(CASES))
def test_cli_output_matches_pinned_reference(tmp_path, reference):
    argv, tolerances = CASES[reference]
    out = tmp_path / reference
    assert main(argv + ["--out", str(out)]) == 0
    want = list(csv.reader(io.StringIO((DATA / reference).read_text(encoding="utf-8"))))
    got = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert len(got) == len(want)
    header = want[0]
    assert got[0] == header
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(got_row) == len(want_row), f"line {line}"
        for column, g, w in zip(header, got_row, want_row):
            rule = tolerances.get(column)
            if rule is None or not w:
                assert g == w, f"line {line}, {column}: {g!r} != {w!r}"
            else:
                assert _close(*rule, float(g), float(w)), f"line {line}, {column}: {g} vs {w}"
