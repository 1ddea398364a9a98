"""CLI outputs pinned cell by cell against reference CSVs in ``tests/data``.

The references were written by an earlier, independently reviewed version of
the CLI. They do not depend on the BLAS thread count, so a refactor that
claims to leave the numbers alone is held to them here:

* text cells (header, family, grid and ladder values, empty cells) match
  exactly;
* perturbative and energy-derived cells within 1e-12 relative;
* the two truncation-residual columns within 1e-14 absolute, because they
  are cancellations at the 1e-6 scale;
* oracle-derived cells within 1e-7 relative.

The perturbative, ``e2``, ``c2``, residual and negativity cells of the five
cavity references were regenerated when the cavity's perturbative route
moved from the fitted overlap series to its exact Taylor coefficients
(``cavity.taylor_overlaps``): ``qfi_perturbative`` moved by up to 2.2e-8
relative, ``c2`` by 2.2e-8, ``e2`` by 3.4e-10 (the single-mode rows' roundoff
of 1e-21 became 0), ``negativity`` by 2.1e-9 and the residual columns by up
to 9.2e-10 absolute. The sweeps' oracle cells did not move, because the
oracle still completes the fitted series; ``compare_nmax10.csv``'s did, by
up to 6.6e-6 relative, because ``compare`` completes the exact series.
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
    # the inputs of the benchmark's seed-0 reference cell cold-1, where the oracle is most
    # sensitive to roundoff: summing the probed block in another order moves qfi_oracle by
    # 2.4e-3 relative; written by `gaussfisher sweep` with this argv at commit 2639393
    "sweep_nmax60_oracle.csv": (
        ["sweep", "--nmax", "60", "--grid", "0.02369,0.827318", "--photons", "1.897073",
         "--x", "0.733772", "--methods", "oracle"],
        SWEEP_TOLERANCES,
    ),
    # one imported series serves every grid point, so the oracle's memo on it carries over;
    # written by `gaussfisher sweep` with this argv at commit f9abe2e, before that memo existed
    # channel file: series_to_csv(compose_one_segment(perturbative_overlaps(8), 0.3))
    "sweep_channel_nmax8_oracle.csv": (
        ["sweep", "--channel", str(DATA / "channel_cavity_nmax8_u0.3.csv"), "--grid", "0.02,0.05,0.08",
         "--x", "0.37", "--photons", "1.4", "--methods", "perturbative,oracle"],
        SWEEP_TOLERANCES,
    ),
    # the two probe-parameter paths other than the energy budget, written by `gaussfisher sweep`
    # with these argvs at commit 995d9bd: (r, delta) given directly for the product probe, and
    # r given alone for the single-mode and two-mode squeezed probes (no single-mode probe with
    # delta != 0: its e2 is roundoff)
    "sweep_nmax10_r_delta_product.csv": (
        ["sweep", "--nmax", "10", "--grid", "0.137,0.5", "--r", "0.6", "--delta", "0.4",
         "--state", "two_product_squeezed_displaced"],
        SWEEP_TOLERANCES,
    ),
    "sweep_nmax10_r_single_two_mode_squeezed.csv": (
        ["sweep", "--nmax", "10", "--grid", "0.3", "--r", "0.8", "--state", "single_squeezed_displaced",
         "--state", "two_mode_squeezed"],
        SWEEP_TOLERANCES,
    ),
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


#: ``validate``'s report, pinned as text: each reference is the stdout of
#: ``gaussfisher validate`` with its argv, written at commit 05cbdb8, and its
#: exit code (the imported channel fails its identity-residual bound)
VALIDATE_CASES = {
    "validate_nmax10.txt": (["validate", "--nmax", "10"], 0),
    "validate_nmax30_modes3_1.txt": (["validate", "--nmax", "30", "--modes", "3,1"], 0),
    "validate_channel_nmax8.txt": (["validate", "--channel", str(DATA / "channel_cavity_nmax8_u0.3.csv")], 1),
}


@pytest.mark.parametrize("reference", sorted(VALIDATE_CASES))
def test_validate_output_matches_pinned_text(capsys, reference):
    argv, code = VALIDATE_CASES[reference]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out, err) == ((DATA / reference).read_text(encoding="utf-8"), "")
