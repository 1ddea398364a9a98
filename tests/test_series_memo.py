"""Without a cache directory the fitted overlap series is built once per
process and ``n_max``: later oracle sweeps read it with the same bytes, a
refused fit is refused again, and no caller can write to it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaussfisher import cavity
from gaussfisher.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_uncached_oracle_sweeps_fit_the_series_once_per_process(tmp_path, monkeypatch):
    quadratures = []
    real = cavity._overlaps_at_order
    monkeypatch.setattr(cavity, "_overlaps_at_order", lambda *args: quadratures.append(args) or real(*args))
    argv = ["sweep", "--nmax", "10", "--grid", "0.02369,0.3", "--methods", "oracle"]
    outputs, built = [], []
    for name in ("first.csv", "second.csv"):
        before = len(quadratures)
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name).read_bytes())
        built.append(len(quadratures) - before)
    assert built[0] > 0 and built[1] == 0, built
    assert outputs[0] == outputs[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "gaussfisher.cli", *argv], env=env, capture_output=True, timeout=300)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == outputs[0]


def test_a_refused_fit_is_not_kept(tmp_path, capsys, monkeypatch):
    fits = []
    real = cavity.perturbative_overlaps
    monkeypatch.setattr(cavity, "perturbative_overlaps", lambda n_max: fits.append(n_max) or real(n_max))
    argv = ["sweep", "--nmax", "136", "--grid", "0.4", "--methods", "oracle", "--out", str(tmp_path / "out.csv")]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: overlap series fit residual 1.873e-05 above 1.850e-05\n"
    # nothing was kept, so the second sweep fits again
    assert fits == [136, 136]
    assert not (tmp_path / "out.csv").exists()


def test_the_kept_series_is_shared_read_only():
    series = cavity.load_or_compute_overlap_series(6)
    assert cavity.load_or_compute_overlap_series(6) is series
    for name in cavity.SERIES_ARRAYS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(series, name)[0, 0] = 0.0
