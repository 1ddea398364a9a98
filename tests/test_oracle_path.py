"""The oracle's symplectic path ``S(theta) = expm(theta K1 + theta^2 K2) S0``
depends on the channel only, so one oracle call evaluates it once per theta
for every probe family."""

import numpy as np
import pytest

from conftest import synthetic_unitary_series
from gaussfisher import qfi
from gaussfisher.bogoliubov import series_to_csv
from gaussfisher.cli import main
from gaussfisher.sweeps import FAMILIES, SweepSpec

#: one oracle ladder reads the base point and three symmetric pairs
LADDER_THETAS = 7


@pytest.fixture
def expm_calls(monkeypatch):
    calls = []
    real = qfi.expm

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(qfi, "expm", counting)
    return calls


@pytest.fixture
def channel_file(tmp_path):
    path = tmp_path / "channel.csv"
    series = synthetic_unitary_series(5, np.random.default_rng(11), strength=0.2)
    path.write_text(series_to_csv(series), encoding="utf-8")
    return path


#: all three families (the default), or one
STATE_FLAGS = [[], ["--state", "two_mode_squeezed"]]


@pytest.mark.parametrize("state_flags", STATE_FLAGS)
def test_cavity_oracle_sweep_calls_expm_once_per_theta(tmp_path, expm_calls, state_flags):
    grid = (0.137, 0.5, 0.771)
    argv = ["sweep", "--nmax", "6", "--cache", str(tmp_path / "cache"), "--methods", "oracle",
            "--grid", ",".join(map(str, grid)), "--out", str(tmp_path / "out.csv")]
    assert main(argv + state_flags) == 0
    assert len(expm_calls) == LADDER_THETAS * len(grid)


@pytest.mark.parametrize("state_flags", STATE_FLAGS)
def test_imported_channel_oracle_sweep_calls_expm_once_per_theta(tmp_path, channel_file, expm_calls, state_flags):
    grid = (0.02, 0.05, 0.08, 0.11)
    argv = ["sweep", "--channel", str(channel_file), "--methods", "oracle",
            "--grid", ",".join(map(str, grid)), "--out", str(tmp_path / "out.csv")]
    assert main(argv + state_flags) == 0
    assert len(expm_calls) == LADDER_THETAS * len(grid)


def test_probes_in_one_family_match_each_probe_alone_bit_for_bit():
    series = synthetic_unitary_series(6, np.random.default_rng(12), strength=0.25)
    pairs = [(modes, state) for _, _, _, state, modes in SweepSpec(photons=1.3, x=0.6).probes()]
    together = qfi.probe_family(series, pairs)
    thetas = [0.05] + [0.05 + s * d for d in (0.005, 0.005 / 3, 0.0005) for s in (-1, 1)]
    for theta in thetas:
        for (mean, cov), pair in zip(together(theta), pairs):
            ((want_mean, want_cov),) = qfi.probe_family(series, [pair])(theta)
            assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)
    results = qfi.qfi_oracle(together, 0.05, steps=(5e-3, 5e-3 / 3, 5e-4))
    for result, pair in zip(results, pairs):
        (alone,) = qfi.qfi_oracle(qfi.probe_family(series, [pair]), 0.05, steps=(5e-3, 5e-3 / 3, 5e-4))
        assert (result.value, result.residual) == (alone.value, alone.residual)


def test_imported_channel_builds_one_family_per_sweep(tmp_path, channel_file, monkeypatch):
    seen = []
    real = qfi.probe_family

    def recording(series, probes):
        seen.append(list(probes))
        return real(series, probes)

    monkeypatch.setattr("gaussfisher.sweeps.probe_family", recording)
    argv = ["sweep", "--channel", str(channel_file), "--methods", "oracle",
            "--grid", "0.01:0.2:0.01", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    # the series does not change down the grid, so neither does its family
    assert len(seen) == 1 and len(seen[0]) == len(FAMILIES)


def test_compare_reads_each_ladder_theta_once_for_every_family(tmp_path, expm_calls):
    # three rungs of seven theta values, shared by the three families
    assert main(["compare", "--nmax", "10", "--out", str(tmp_path / "cmp.csv")]) == 0
    assert len(expm_calls) == 3 * LADDER_THETAS
    expm_calls.clear()
    # validate's dual-path line runs the same ladder
    assert main(["validate", "--nmax", "6", "--cache", str(tmp_path / "cache")]) == 0
    assert len(expm_calls) == 3 * LADDER_THETAS
