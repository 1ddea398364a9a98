"""The oracle's symplectic path ``S(theta) = expm(theta K1 + theta^2 K2) S0``
depends on the channel only, so it is computed once per series and theta and
shared by every probe family."""

import numpy as np
import pytest

from conftest import synthetic_unitary_series
from gaussfisher import qfi
from gaussfisher.bogoliubov import BogoliubovSeries, series_to_csv
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


def fresh_copy(series: BogoliubovSeries) -> BogoliubovSeries:
    return BogoliubovSeries(
        series.n_max, series.G, series.alpha1, series.alpha2, series.beta1, series.beta2
    )


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


def test_families_on_a_shared_path_match_fresh_series_bit_for_bit():
    series = synthetic_unitary_series(6, np.random.default_rng(12), strength=0.25)
    probes = SweepSpec(photons=1.3, x=0.6).probes()
    shared = [qfi.probe_family(series, modes, state) for _, _, _, state, modes in probes]
    thetas = [0.05] + [0.05 + s * d for d in (0.005, 0.005 / 3, 0.0005) for s in (-1, 1)]
    # a second pass reads every theta from the memo
    for theta in thetas + thetas[::-1]:
        for family, (_, _, _, state, modes) in zip(shared, probes):
            mean, cov = family(theta)
            want_mean, want_cov = qfi.probe_family(fresh_copy(series), modes, state)(theta)
            assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)


def test_memoized_path_is_read_only():
    series = synthetic_unitary_series(4, np.random.default_rng(13))
    s = qfi._symplectic_path(series, 0.03)
    assert s is qfi._symplectic_path(series, 0.03)
    for matrix in (s, *series._memo["generators"]):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


def test_imported_channel_memo_holds_at_most_one_ladder(tmp_path, channel_file, monkeypatch):
    seen = []
    real = qfi.probe_family

    def recording(series, modes, state):
        seen.append(series)
        return real(series, modes, state)

    monkeypatch.setattr("gaussfisher.sweeps.probe_family", recording)
    argv = ["sweep", "--channel", str(channel_file), "--methods", "oracle",
            "--grid", "0.01:0.2:0.01", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert len(seen) == 20 * len(FAMILIES)
    # every grid point used the same series object
    series = seen[0]
    assert all(s is series for s in seen)
    # the last ladder's seven theta values plus at most one older point
    assert LADDER_THETAS <= len(series._memo["path"]) <= 8


def test_compare_reads_each_ladder_theta_once_for_every_family(tmp_path, expm_calls):
    # three rungs of seven theta values, shared by the three families
    assert main(["compare", "--nmax", "10", "--out", str(tmp_path / "cmp.csv")]) == 0
    assert len(expm_calls) == 3 * LADDER_THETAS
    expm_calls.clear()
    # validate's dual-path line runs the same ladder
    assert main(["validate", "--nmax", "6", "--cache", str(tmp_path / "cache")]) == 0
    assert len(expm_calls) == 3 * LADDER_THETAS
