"""The oracle's symplectic path ``S(theta) = expm(theta K1 + theta^2 K2) S0``
depends on the channel only, so one oracle call evaluates it once per theta
for every probe family, and exponentiates its whole step ladder in one
``expm`` call on the stack of generators."""

import numpy as np
import pytest

from scipy.linalg import expm

from conftest import embed_state, exponential_generators, synthetic_unitary_series
from gaussfisher import qfi
from gaussfisher.bogoliubov import series_to_csv
from gaussfisher.cli import main
from gaussfisher.states import quadrature_indices, symplectic_form
from gaussfisher.sweeps import FAMILIES, SweepSpec

#: one oracle ladder reads the base point and three symmetric pairs
LADDER_THETAS = 7


@pytest.fixture
def expm_calls(monkeypatch):
    """The generator stack of every ``expm`` call from the oracle."""
    calls = []
    real = qfi.expm

    def counting(stack):
        assert stack.ndim == 3
        calls.append(stack)
        return real(stack)

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
    assert [len(stack) for stack in expm_calls] == [LADDER_THETAS] * len(grid)


@pytest.mark.parametrize("state_flags", STATE_FLAGS)
def test_imported_channel_oracle_sweep_calls_expm_once_per_theta(tmp_path, channel_file, expm_calls, state_flags):
    grid = (0.02, 0.05, 0.08, 0.11)
    argv = ["sweep", "--channel", str(channel_file), "--methods", "oracle",
            "--grid", ",".join(map(str, grid)), "--out", str(tmp_path / "out.csv")]
    assert main(argv + state_flags) == 0
    assert [len(stack) for stack in expm_calls] == [LADDER_THETAS] * len(grid)


def test_generators_are_exactly_in_the_symplectic_algebra(tmp_path, expm_calls):
    # the projection writes Omega K^T Omega as a signed permutation; it must give exactly
    # what the products give, so every exponentiated generator is its own projection
    argv = ["sweep", "--nmax", "6", "--cache", str(tmp_path / "cache"), "--methods", "oracle",
            "--grid", "0.137,0.771", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    omega = symplectic_form(6)
    for stack in expm_calls:
        for generator in stack:
            assert np.array_equal(generator, omega @ generator.T @ omega)


def test_family_refuses_a_state_of_the_wrong_size():
    series = synthetic_unitary_series(4, np.random.default_rng(13), strength=0.2)
    ((_, _, _, state, _),) = SweepSpec(families=("two_mode_squeezed",)).probes()
    with pytest.raises(ValueError, match="state size must match the number of target modes"):
        qfi.probe_family(series, [((1,), state)])


def test_probed_rows_give_the_full_sandwich_bit_for_bit():
    # the oracle amplifies roundoff far beyond its residual, so reading only the probed rows
    # must give exactly the probed block of the full 2n x 2n products, one theta at a time
    series = synthetic_unitary_series(6, np.random.default_rng(14), strength=0.25)
    pairs = [(modes, state) for _, _, _, state, modes in SweepSpec(photons=1.3, x=0.6).probes()]
    s0, k1, k2 = exponential_generators(series)
    thetas = [0.05] + [0.05 + s * d for d in (0.005, 0.005 / 3, 0.0005) for s in (-1, 1)]
    for theta, at_theta in zip(thetas, qfi.probe_family(series, pairs)(thetas)):
        s = expm(theta * k1 + theta**2 * k2) @ s0
        for (mean, cov), (modes, state) in zip(at_theta, pairs):
            full, idx = embed_state(6, modes, state), quadrature_indices(modes, 6)
            assert np.array_equal(mean, (s @ full.first_moments)[idx])
            assert np.array_equal(cov, (s @ full.covariance @ s.T)[np.ix_(idx, idx)])


def test_probes_in_one_family_match_each_probe_alone_bit_for_bit():
    series = synthetic_unitary_series(6, np.random.default_rng(12), strength=0.25)
    pairs = [(modes, state) for _, _, _, state, modes in SweepSpec(photons=1.3, x=0.6).probes()]
    thetas = [0.05] + [0.05 + s * d for d in (0.005, 0.005 / 3, 0.0005) for s in (-1, 1)]
    together = qfi.probe_family(series, pairs)(thetas)
    assert len(together) == len(thetas)
    for k, pair in enumerate(pairs):
        alone = qfi.probe_family(series, [pair])(thetas)
        for at_theta, (want,) in zip(together, alone):
            (mean, cov), (want_mean, want_cov) = at_theta[k], want
            assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)
    results = qfi.qfi_oracle(qfi.probe_family(series, pairs), 0.05, steps=(5e-3, 5e-3 / 3, 5e-4))
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
    # three rungs of seven theta values, shared by the three families, one call per rung
    assert main(["compare", "--nmax", "10", "--out", str(tmp_path / "cmp.csv")]) == 0
    assert [len(stack) for stack in expm_calls] == [LADDER_THETAS] * 3
    expm_calls.clear()
    # validate's dual-path line runs the same ladder
    assert main(["validate", "--nmax", "6"]) == 0
    assert [len(stack) for stack in expm_calls] == [LADDER_THETAS] * 3
