"""The exact overlap coefficients on the probed rows alone.

``taylor_overlaps(n, rows)`` evaluates the closed forms on the rows block of
the first orders and the ``rows x rows`` block of the second orders, and
``compose_one_segment`` reads the columns block off the rows by the
coefficients' symmetry. Both must give the bits of the whole ``n x n``
matrices and of the composition from them (``conftest.compose_rows_reference``),
signed zeros included, and so must the cavity's reduced channels, at a
memory that no longer grows as ``n^2``.
"""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import compose_rows_reference
from gaussfisher.bogoliubov import BogoliubovSeries, _reduce
from gaussfisher.cavity import compose_one_segment, taylor_overlaps
from gaussfisher.sweeps import CavityChannel, SweepSpec

ROOT = Path(__file__).resolve().parents[1]
ROW_SETS = ((1, 2), (2, 1), (3,), (2, 5))
NAMES = ("alpha1", "alpha2", "beta1", "beta2")
#: a row set that stands for every mode, ``range(1, n_max + 1)``
EVERY = "every mode"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike ``==``, ``-0.0`` and ``0.0`` differ."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("n_max", [2, 3, 10, 61, 1000])
@pytest.mark.parametrize("rows", ROW_SETS + (EVERY,))
def test_rows_only_coefficients_are_the_whole_series_blocks(n_max, rows):
    rows = tuple(range(1, n_max + 1)) if rows == EVERY else rows
    if max(rows) > n_max:
        with pytest.raises(ValueError):
            taylor_overlaps(n_max, rows)
        return
    whole, probed = taylor_overlaps(n_max), taylor_overlaps(n_max, rows)
    pick = np.array(rows) - 1
    assert probed.rows == rows and probed.n_max == n_max and probed.fit_residual == 0.0
    for name in ("alpha1", "beta1"):
        assert same_bits(getattr(probed, name), getattr(whole, name)[pick]), name
    for name in ("alpha2", "beta2"):
        assert same_bits(getattr(probed, name), getattr(whole, name)[np.ix_(pick, pick)]), name
    # the symmetry the composition reads the columns block from
    assert same_bits(whole.alpha1[:, pick], 0.0 - probed.alpha1.T)
    assert same_bits(whole.beta1[:, pick], probed.beta1.T)


@pytest.mark.parametrize("n_max", [10, 60, 61, 1000])
@pytest.mark.parametrize("rows", ROW_SETS + ((1,), (4, 1, 3)))
def test_rows_only_composition_is_the_whole_matrix_composition(n_max, rows):
    grid = SweepSpec().grid
    got = compose_one_segment(taylor_overlaps(n_max, rows), grid)
    want = compose_rows_reference(taylor_overlaps(n_max), grid, rows)
    assert got[1].shape[-2] == want[1].shape[-2] == len(rows)
    for name, a, b in zip(("G",) + NAMES, got, want, strict=True):
        assert same_bits(a, b), name
    # the cavity composes the sorted rows and reduces the mode set, given as a list
    held = tuple(sorted(rows))
    fresh = _reduce(*compose_rows_reference(taylor_overlaps(n_max), grid, held), rows, held)
    channel = CavityChannel(n_max=n_max).reduced(grid, [list(rows)])[rows]
    for name, value in vars(fresh).items():
        assert same_bits(np.asarray(getattr(channel, name)), np.asarray(value)), name


@pytest.mark.parametrize("n_max", [3, 10, 60, 211])
def test_the_whole_exact_channel_is_the_rows_of_every_mode(n_max):
    """The whole exact series is the rows ``range(1, n_max + 1)``, bit for
    bit (its coefficients are an ``EVERY`` case above): their composition
    at each duration, and the reduced channels of each."""
    every = range(1, n_max + 1)
    whole, rows = taylor_overlaps(n_max), taylor_overlaps(n_max, every)
    assert whole.rows is None and rows.rows == tuple(every)
    for u in (0.0, 0.137, 0.3, 0.5, 0.771, 1.3):
        series, composed = compose_one_segment(whole, u), compose_one_segment(rows, u)
        assert isinstance(series, BogoliubovSeries)
        for name, value in zip(("G",) + NAMES, composed, strict=True):
            assert same_bits(value, getattr(series, name)), (u, name)
        for modes in ((1, 2), (3, 1), (2,)):
            got, want = _reduce(*composed, modes, every), series.reduced(modes)
            assert got.modes == want.modes == modes
            for name in ("s0", "s1", "s2", "b2", "beta1", "residual"):
                assert same_bits(getattr(got, name), getattr(want, name)), (u, modes, name)


def test_whole_series_composition_keeps_its_bits(overlap_series_10):
    """The fitted series, which the oracle composes, is not antisymmetric:
    it is read whole, as before, at each duration."""
    assert not np.array_equal(overlap_series_10.alpha1, -overlap_series_10.alpha1.T)
    for u in (0.3, 0.0, 0.137, 0.5):
        for overlaps in (overlap_series_10, taylor_overlaps(10)):
            got, want = compose_one_segment(overlaps, u), compose_rows_reference(overlaps, u)
            for name in ("G",) + NAMES:
                assert same_bits(getattr(got, name), getattr(want, name)), name


def test_rows_only_coefficients_refuse_bad_rows():
    for rows in ((0, 1), (1, 1), (1, 11)):
        with pytest.raises(ValueError):
            taylor_overlaps(10, rows)


def test_a_large_cut_composes_in_memory_linear_in_n():
    grid = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))
    tracemalloc.start()
    try:
        reduced = CavityChannel(n_max=4000).reduced(grid, [(1, 2)])[1, 2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reduced.s1.shape == (11, 4, 4)
    # one whole n x n float matrix alone would take 122 MiB
    assert peak < 32 * 2**20, peak / 2**20


def test_the_reducer_holds_little_beside_the_rows_it_reads():
    # the spectators are summed once, as complex Grams of the probed rows:
    # the real (U, 2m, 2n) rows of S1 alone took twice the alpha1 rows
    modes = (1, 2)
    composed = compose_one_segment(taylor_overlaps(4000, modes), np.asarray(SweepSpec.grid))
    assert composed[1].shape == (101, 2, 4000)
    tracemalloc.start()
    try:
        reduced = _reduce(*composed, modes, modes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reduced.b2.shape == (101, 4, 4)
    assert peak < 1.25 * composed[1].nbytes, peak / composed[1].nbytes


def test_sweep_at_n_max_16000_writes_finite_perturbative_cells():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "gaussfisher.cli", "sweep", "--nmax", "16000", "--grid", "0.3"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    rows = list(csv.DictReader(io.StringIO(run.stdout)))
    assert len(rows) == 3
    for row in rows:
        for column in ("qfi_perturbative", "e2", "c2", "residual_perturbative"):
            assert math.isfinite(float(row[column])), (row["family"], column)
