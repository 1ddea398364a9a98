"""Sweep and compare output, byte for byte, against a reference path.

The reference evaluates each probe family on its own with
``qfi_perturbative`` and formats each CSV cell on its own with
``conftest.reference_rows_to_csv``. The CLI groups the families by their
probed modes and formats each distinct column once; neither may change a
byte, an exit code or an error message.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_rows_to_csv
from gaussfisher import cli, sweeps
from gaussfisher.bogoliubov import series_from_csv
from gaussfisher.qfi import FAMILIES, negativity_first_order, probe_family, qfi_oracle, qfi_perturbative
from gaussfisher.sweeps import (
    SWEEP_COLUMNS,
    CavityChannel,
    ComparisonReport,
    ComparisonRow,
    ImportedChannel,
    SweepSpec,
    SweepTable,
    rows_to_csv,
    run_sweep,
)

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


EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
         # where repr switches to exponent form, and the floats just inside it
         1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05)
numbers = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32).map(np.float64),
    st.sampled_from(EDGES).map(np.float64),
)
scalars = st.one_of(numbers, st.none(), st.text(alphabet="abc_", min_size=1, max_size=4))


@st.composite
def sweep_tables(draw):
    """Tables whose cells come from one small pool of column objects, the
    grid among them, so one list or value fills several cells: a list is a
    column down the grid, any other object repeats there."""
    n_grid = draw(st.integers(0, 5))
    columns = st.lists(numbers, min_size=n_grid, max_size=n_grid)
    grid = draw(columns)
    pool = [grid, *draw(st.lists(st.one_of(scalars, columns), min_size=1, max_size=8))]
    cells = st.sampled_from(pool)
    width = len(SWEEP_COLUMNS) - 1
    return SweepTable(grid, [tuple(draw(cells) for _ in range(width)) for _ in range(draw(st.integers(0, 4)))])


EDGE_COLUMN = [*EDGES, np.float64(-0.0), np.float64(1e16), np.float64(9.999999999999999e-05)]


@settings(max_examples=200, deadline=None)
@given(table=sweep_tables())
@example(table=SweepTable([0.0, -0.0], [(0.0,) * 11, (-0.0,) * 11, (np.float64(-0.0),) * 11, (np.float64(0.0),) * 11]))
# every method column empty but the perturbative value, which is the grid
@example(table=SweepTable(EDGE_COLUMN, [("f", np.float64(2.5), -0.0, EDGE_COLUMN, EDGE_COLUMN[::-1], None, None,
                                         None, None, 1e-300, EDGE_COLUMN)] * 2))
def test_rows_to_csv_matches_the_per_cell_reference(table):
    rows = list(table)
    assert len(rows) == len(table.grid) * len(table.families)
    assert rows_to_csv(table) == reference_rows_to_csv(rows)


def formatted(monkeypatch) -> list:
    """The cell objects ``rows_to_csv`` formats, in order, from now on."""
    calls = []
    real = sweeps._text
    monkeypatch.setattr(sweeps, "_text", lambda cells: calls.append(cells) or real(cells))
    return calls


def test_a_default_sweep_formats_one_residual_column_per_probed_mode_set(monkeypatch):
    table = run_sweep(SweepSpec(), CavityChannel(n_max=60))
    calls = formatted(monkeypatch)
    assert rows_to_csv(table) == reference_rows_to_csv(table)
    # (1,) for the single-mode probe and (1, 2) for both two-mode ones, each
    # also the truncation residual of its families
    assert len({id(cells[6]) for cells in table.families}) == 2
    assert all(cells[10] is cells[6] for cells in table.families)
    # the grid, the negativity, each family's value, e2 and c2, and the two residuals
    assert sum(type(cells) is list for cells in calls) == 1 + 1 + 3 * len(FAMILIES) + 2
    assert len(set(map(id, calls))) == len(calls)


def test_an_imported_channel_formats_each_repeated_value_once(monkeypatch):
    table = run_sweep(SweepSpec(), ImportedChannel(series_from_csv(CHANNEL.read_text(encoding="utf-8"))))
    calls = formatted(monkeypatch)
    text = rows_to_csv(table)
    assert text == reference_rows_to_csv(table)
    negativity = table.families[0][9]
    assert text.count(f",{negativity!r},") == len(table) == 101 * len(FAMILIES)
    # the grid is the one column down it; every other cell repeats one value
    assert [cells for cells in calls if type(cells) is list] == [table.grid]
    assert [cells for cells in calls if cells is negativity] == [negativity]
    assert len(set(map(id, calls))) == len(calls)
