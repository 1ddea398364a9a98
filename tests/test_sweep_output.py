"""Sweep and compare output, byte for byte, against a reference path.

The reference evaluates each probe family on its own with
``qfi_perturbative`` and formats each CSV cell on its own with
``conftest.reference_rows_to_csv``. The CLI groups the families by their
probed modes and formats each distinct value once; neither may change a
byte, an exit code or an error message.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_rows_to_csv
from gaussfisher import cli
from gaussfisher.qfi import negativity_first_order, probe_family, qfi_oracle, qfi_perturbative
from gaussfisher.sweeps import SWEEP_COLUMNS, ComparisonReport, ComparisonRow, SweepRow, rows_to_csv

CHANNEL = Path(__file__).resolve().parent / "data" / "channel_cavity_nmax8_u0.3.csv"


def reference_run_sweep(spec, channel) -> list[tuple]:
    """Sweep rows as tuples: one ``qfi_perturbative`` call per family on the
    grid's reduced channels, one oracle call per grid point."""
    channel.check_modes(spec.modes)
    probes = spec.probes()
    grid = tuple(float(g) for g in spec.grid)
    reduced = channel.reduced(grid, dict.fromkeys([tuple(spec.modes)] + [tuple(modes) for *_, modes in probes]))

    def down_the_grid(values) -> list:
        values = np.asarray(values)
        return values.tolist() if values.ndim else [values.item()] * len(grid)

    negativity = down_the_grid(negativity_first_order(reduced[tuple(spec.modes)]))
    empty = [[(None,) * 4] * len(grid) for _ in probes]
    perturbative = empty
    if "perturbative" in spec.methods:
        results = [qfi_perturbative([(reduced[modes], state)])[0] for *_, state, modes in probes]
        perturbative = [list(zip(*(down_the_grid(v) for v in (res.value, res.e2, res.c2, res.residual))))
                        for res in results]
    oracle = [[(None, None)] * len(probes) for _ in grid]
    if "oracle" in spec.methods:
        points = channel.oracle_points(grid, [(modes, state) for *_, state, modes in probes])
        oracle = [[(res.value, res.residual) for res in qfi_oracle(family, theta, steps=(theta / 10.0, theta / 30.0, theta / 100.0))]
                  for family, theta in points]
    rows = []
    for i, g in enumerate(grid):
        for j, (family, r, delta, _, _) in enumerate(probes):
            pert, e2, c2, res_p = perturbative[j][i]
            orc, res_o = oracle[i][j]
            trunc = math.nan if res_p is None else res_p
            if res_o is not None and math.isnan(trunc):
                trunc = res_o
            rows.append((g, family, r, delta, pert, e2, c2, res_p, orc, res_o, negativity[i], trunc))
    return rows


def reference_compare_methods(spec, channel, h_ladder=(0.02, 0.04, 0.08)) -> ComparisonReport:
    """``compare_methods`` with one ``qfi_perturbative`` call per family."""
    channel.check_modes(spec.modes)
    probes = spec.probes()
    series = channel.orders()
    family = probe_family(series, [(modes, state) for *_, state, modes in probes])
    rungs = [qfi_oracle(family, float(h), steps=(h / 5.0, h / 15.0, h / 45.0)) for h in h_ladder]
    rows, slopes = [], {}
    for j, (name, _, _, state, modes) in enumerate(probes):
        pert = qfi_perturbative([(series.reduced(modes), state)])[0].value
        devs = []
        for h, rung in zip(h_ladder, rungs):
            orc = rung[j].value
            devs.append(abs(pert - orc) / abs(orc) if orc != 0.0 else abs(pert - orc))
            rows.append(ComparisonRow(name, float(h), pert, orc, devs[-1]))
        slopes[name] = float("inf") if max(devs) < 1e-13 else float(np.polyfit(np.log(h_ladder), np.log(devs), 1)[0])
    return ComparisonReport(tuple(rows), slopes)


ARGVS = {
    "default": ["sweep", "--nmax", "60"],
    "families_reordered": ["sweep", "--nmax", "60", "--state", "two_mode_squeezed",
                           "--state", "single_squeezed_displaced"],
    "single_mode_alone": ["sweep", "--nmax", "60", "--state", "single_squeezed_displaced"],
    "modes_reversed": ["sweep", "--nmax", "60", "--modes", "2,1"],
    "negative_zero": ["sweep", "--nmax", "60", "--grid=-0.0,0.3"],
    "imported_channel": ["sweep", "--channel", str(CHANNEL)],
    "both_routes": ["sweep", "--nmax", "10", "--methods", "perturbative,oracle", "--grid", "0.1,0.5"],
    "compare": ["compare", "--nmax", "10"],
}


def run_cli(capsys, argv) -> tuple:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", sorted(ARGVS))
def test_cli_output_matches_the_per_family_reference(capsys, monkeypatch, case):
    got = run_cli(capsys, ARGVS[case])
    monkeypatch.setattr(cli, "run_sweep", reference_run_sweep)
    monkeypatch.setattr(cli, "rows_to_csv", reference_rows_to_csv)
    monkeypatch.setattr(cli, "compare_methods", reference_compare_methods)
    want = run_cli(capsys, ARGVS[case])
    assert got[0] == want[0] == 0
    assert got == want
    if case == "negative_zero":
        assert "\n-0.0,single_squeezed_displaced," in got[1]


SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, None, "two_mode_squeezed")
cell_objects = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32).map(np.float64),
    st.sampled_from((-0.0, 0.0, 1.5)).map(np.float64),
    st.text(alphabet="abc_", min_size=1, max_size=4),
)


@st.composite
def sweep_rows(draw):
    """Rows whose cells are drawn from one small pool of objects, so the
    same object fills several cells; a column is ``None`` throughout when
    drawn so."""
    pool = draw(st.lists(cell_objects, min_size=1, max_size=8))
    n_rows = draw(st.integers(0, 6))
    empty = draw(st.sets(st.integers(0, len(SWEEP_COLUMNS) - 1)))
    return [tuple(None if c in empty else pool[draw(st.integers(0, len(pool) - 1))]
                  for c in range(len(SWEEP_COLUMNS))) for _ in range(n_rows)]


@settings(max_examples=200, deadline=None)
@given(rows=sweep_rows())
@example(rows=[(0.0,) * 12, (-0.0,) * 12, (np.float64(-0.0),) * 12, (np.float64(0.0),) * 12])
@example(rows=[(0.0, "f", -0.0, None, math.nan, math.inf, -math.inf, np.float64(2.5), 1e-300, -1e300, 0.1, 0.0)] * 3)
def test_rows_to_csv_matches_the_per_cell_reference(rows):
    assert rows_to_csv([SweepRow(*row) for row in rows]) == reference_rows_to_csv(rows)

