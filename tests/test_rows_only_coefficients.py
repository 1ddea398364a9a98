"""The exact overlap coefficients on the probed rows alone.

``taylor_overlaps(n, rows)`` evaluates the closed forms on the rows block of
the first orders and the ``rows x rows`` block of the second orders, and
``compose_one_segment`` reads the columns block off the rows by the
coefficients' symmetry. Both must give the bits of the whole ``n x n``
matrices and of the composition from them (``conftest.compose_rows_reference``),
signed zeros included, at a memory that no longer grows as ``n^2``.
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
from gaussfisher.cavity import compose_one_segment, taylor_overlaps
from gaussfisher.sweeps import CavityChannel, SweepSpec

ROOT = Path(__file__).resolve().parents[1]
ROW_SETS = ((1, 2), (2, 1), (3,), (2, 5))
NAMES = ("alpha1", "alpha2", "beta1", "beta2")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike ``==``, ``-0.0`` and ``0.0`` differ."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("n_max", [2, 3, 10, 61, 1000])
@pytest.mark.parametrize("rows", ROW_SETS)
def test_rows_only_coefficients_are_the_whole_series_blocks(n_max, rows):
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
    got = compose_one_segment(taylor_overlaps(n_max, rows), grid, rows)
    want = compose_rows_reference(taylor_overlaps(n_max), grid, rows)
    assert got.rows == want.rows == rows
    for name in ("G",) + NAMES:
        assert same_bits(getattr(got, name), getattr(want, name)), name
    # the sweep passes its rows as a list
    channel = CavityChannel(n_max=n_max).orders(grid, list(rows))
    for name in ("G",) + NAMES:
        assert same_bits(getattr(channel, name), getattr(want, name)), name


@pytest.mark.parametrize("rows", [None, (1, 2), (3, 1)])
def test_whole_series_composition_keeps_its_bits(overlap_series_10, rows):
    """The fitted series, which the oracle composes, is not antisymmetric:
    it is read whole, as before, at one duration and on a grid."""
    assert not np.array_equal(overlap_series_10.alpha1, -overlap_series_10.alpha1.T)
    for u in (0.3, (0.0, 0.137, 0.5)):
        for overlaps in (overlap_series_10, taylor_overlaps(10)):
            got, want = compose_one_segment(overlaps, u, rows), compose_rows_reference(overlaps, u, rows)
            for name in ("G",) + NAMES:
                assert same_bits(getattr(got, name), getattr(want, name)), name


def test_rows_only_coefficients_compose_only_their_own_rows():
    probed = taylor_overlaps(10, (1, 2))
    for rows in (None, (2, 1), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match=r"^the overlap series stores rows \(1, 2\), not "):
            compose_one_segment(probed, 0.3, rows)
    for rows in ((0, 1), (1, 1), (1, 11)):
        with pytest.raises(ValueError):
            taylor_overlaps(10, rows)


def test_a_large_cut_composes_in_memory_linear_in_n():
    grid = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))
    tracemalloc.start()
    try:
        stack = CavityChannel(n_max=4000).orders(grid, (1, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.alpha1.shape == (11, 2, 4000)
    # one whole n x n float matrix alone would take 122 MiB
    assert peak < 32 * 2**20, peak / 2**20


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
