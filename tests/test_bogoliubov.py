import numpy as np
import pytest

from gaussfisher.bogoliubov import (
    BogoliubovMatrices,
    BogoliubovSeries,
    apply_channel,
    block_from_coefficients,
    coefficients_from_block,
    covariance_series,
    matrices_from_csv,
    matrices_to_csv,
    reduced_covariance_single,
    series_from_csv,
    series_to_csv,
    symplectic_from_bogoliubov,
    symplectify,
    synthetic_unitary_series,
    transformed_two_mode_blocks,
)
from gaussfisher.states import (
    GaussianState,
    embed_state,
    random_pure_state,
    squeezed_displaced_state,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_state,
)


def test_block_examples():
    assert np.allclose(block_from_coefficients(1.0, 0.0), np.eye(2))
    r = 1.0
    assert np.allclose(
        block_from_coefficients(np.cosh(r), np.sinh(r)),
        np.diag([np.exp(-r), np.exp(r)]),
    )
    assert np.allclose(block_from_coefficients(1j, 0.0), [[0.0, 1.0], [-1.0, 0.0]])


def test_block_coefficient_roundtrip(rng):
    for _ in range(20):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        aa, bb = coefficients_from_block(block_from_coefficients(a, b))
        assert np.isclose(aa, a) and np.isclose(bb, b)


def test_symplectic_from_identity():
    bogo = BogoliubovMatrices(3, np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex))
    s = symplectic_from_bogoliubov(bogo, max_residual=1e-12)
    assert np.allclose(s.matrix, np.eye(6))


def test_symplectic_single_mode_squeeze():
    r = 0.6
    bogo = BogoliubovMatrices(1, np.array([[np.cosh(r)]], dtype=complex), np.array([[np.sinh(r)]], dtype=complex))
    s = symplectic_from_bogoliubov(bogo, max_residual=1e-12)
    assert np.allclose(s.matrix, np.diag([np.exp(-r), np.exp(r)]))
    assert s.omega_residual() <= 1e-12


def test_symplectic_passive_channel(rng):
    # a passive channel (unitary mode mixing, no pair creation) maps to an
    # orthogonal symplectic matrix
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    bogo = BogoliubovMatrices(3, q, np.zeros((3, 3), dtype=complex))
    s = symplectic_from_bogoliubov(bogo, max_residual=1e-12)
    assert s.omega_residual() <= 1e-12
    assert np.max(np.abs(s.matrix @ s.matrix.T - np.eye(6))) <= 1e-12


def test_identity_check_rejects_corrupted_channel(rng):
    series = synthetic_unitary_series(4, rng)
    bogo = series.evaluate(0.05)
    corrupted = BogoliubovMatrices(4, bogo.alpha, 2.0 * bogo.beta)
    with pytest.raises(ValueError):
        symplectic_from_bogoliubov(corrupted, max_residual=1e-6)


def test_evaluate_series_zeroth_order(unitary_series):
    bogo = unitary_series.evaluate(0.0)
    assert np.allclose(bogo.alpha, np.diag(unitary_series.G))
    assert np.max(np.abs(bogo.beta)) == 0.0


def test_evaluate_series_polynomial_structure(unitary_series):
    theta = 0.03
    a1 = unitary_series.evaluate(theta).alpha
    a2 = unitary_series.evaluate(2 * theta).alpha
    # alpha(2t) - 2 alpha(t) + diag(G) = 2 t^2 alpha2: no first-order part
    remainder = a2 - 2.0 * a1 + np.diag(unitary_series.G)
    assert np.allclose(remainder, 2.0 * theta**2 * unitary_series.alpha2, atol=1e-14)


def test_evaluate_series_residual_cubic(unitary_series):
    res = [unitary_series.evaluate(t).identity_residual() for t in (0.02, 0.04, 0.08)]
    slope = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log(res), 1)[0]
    assert slope >= 2.7


def test_apply_channel_examples(rng):
    state = squeezed_displaced_state(1, 1, 0.4, 0.3)
    ident = symplectic_from_bogoliubov(
        BogoliubovMatrices(1, np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex))
    )
    out = apply_channel(ident, state)
    assert np.allclose(out.covariance, state.covariance)
    assert np.allclose(out.first_moments, state.first_moments)

    r = 0.8
    squeeze = symplectic_from_bogoliubov(
        BogoliubovMatrices(1, np.array([[np.cosh(r)]], dtype=complex), np.array([[np.sinh(r)]], dtype=complex))
    )
    out = apply_channel(squeeze, vacuum_state(1))
    assert np.allclose(out.covariance, np.diag([np.exp(-2 * r), np.exp(2 * r)]))

    with pytest.raises(ValueError):
        apply_channel(squeeze, vacuum_state(2))


def test_apply_channel_preserves_symplectic_spectrum(rng):
    from gaussfisher.states import random_symplectic, random_mixed_state

    for _ in range(50):
        n = int(rng.integers(1, 4))
        s_mat = random_symplectic(n, rng)
        from gaussfisher.bogoliubov import SymplecticMatrix

        channel = SymplecticMatrix(n, s_mat)
        state = random_mixed_state(n, rng)
        before = symplectic_eigenvalues(state)
        after = symplectic_eigenvalues(apply_channel(channel, state))
        assert np.allclose(before, after, atol=1e-9)


def test_symplectify_projects(rng):
    s = random_pure_state(3, rng).covariance  # any SPD-ish start is too far; use near-symplectic
    s = np.eye(6) + 1e-4 * rng.normal(size=(6, 6))
    base = symplectic_form(3)
    projected = symplectify(s)
    assert np.max(np.abs(projected @ base @ projected.T - base)) <= 1e-12


def test_synthetic_series_identities(rng):
    series = synthetic_unitary_series(5, rng)
    first, second = series.unitarity_residuals()
    assert first <= 1e-12 and second <= 1e-12
    diagfree = synthetic_unitary_series(5, rng, zero_diagonal=True)
    assert np.max(np.abs(np.diag(diagfree.alpha1))) == 0.0
    assert np.max(np.abs(np.diag(diagfree.beta1))) == 0.0
    first, second = diagfree.unitarity_residuals()
    assert first <= 1e-12 and second <= 1e-12


def test_series_requires_unit_phases():
    n = 2
    zeros = np.zeros((n, n), dtype=complex)
    with pytest.raises(ValueError):
        BogoliubovSeries(n, np.array([1.0, 1.1]), zeros, zeros, zeros, zeros)


def test_covariance_series_zeroth_and_first(unitary_series):
    n = unitary_series.n_max
    vac_in = vacuum_state(1)
    trivial = BogoliubovSeries(
        n,
        np.ones(n, dtype=complex),
        *(np.zeros((n, n), dtype=complex) for _ in range(4)),
    )
    orders = covariance_series(trivial, (2,), vac_in)
    assert np.allclose(orders.sigma0, np.eye(2))
    assert np.max(np.abs(orders.sigma1)) == 0.0
    assert np.max(np.abs(orders.sigma2)) == 0.0

    # first moments: mode k feeds through the first-order diagonal block
    k = 2
    delta = 0.7
    probe = squeezed_displaced_state(1, 1, 0.0, delta)
    orders = covariance_series(unitary_series, (k,), probe)
    w = unitary_series.alpha1[k - 1, k - 1] - unitary_series.beta1[k - 1, k - 1]
    expected = np.sqrt(2.0) * delta * np.array([w.real, -w.imag])
    assert np.allclose(orders.mean1, expected, atol=1e-14)


def test_covariance_series_matches_finite_difference(unitary_series):
    probe = squeezed_displaced_state(1, 1, 0.6, 0.0)
    orders = covariance_series(unitary_series, (2,), probe)
    full = embed_state(unitary_series.n_max, (2,), probe)

    def reduced(theta):
        s = symplectic_from_bogoliubov(unitary_series.evaluate(theta)).matrix
        cov = s @ full.covariance @ s.T
        return cov[2:4, 2:4]

    # Richardson-extrapolated central difference approaches sigma1
    errs = []
    for step in (1e-2, 5e-3):
        d1 = (reduced(step) - reduced(-step)) / (2 * step)
        errs.append(np.max(np.abs(d1 - orders.sigma1)))
    assert errs[1] <= 0.3 * errs[0]  # quadratic-in-step error
    # reconstruction: sigma(theta) - partial sum is third order
    res = []
    for theta in (0.02, 0.04, 0.08):
        res.append(np.max(np.abs(reduced(theta) - orders.covariance_at(theta))))
    slope = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log(res), 1)[0]
    assert slope >= 2.7


def test_reduced_covariance_single_paths(cavity_series_u03):
    series = cavity_series_u03
    sigma0 = np.diag([np.exp(1.0), np.exp(-1.0)])
    assert np.allclose(reduced_covariance_single(series, 1, np.eye(2), 0.0), np.eye(2))

    trivial_phase = BogoliubovSeries(
        series.n_max,
        np.ones(series.n_max, dtype=complex),
        *(np.zeros((series.n_max, series.n_max), dtype=complex) for _ in range(4)),
    )
    assert np.allclose(reduced_covariance_single(trivial_phase, 1, sigma0, 0.0), sigma0)

    # block formula against the full-matrix route
    theta = 0.05
    block_path = reduced_covariance_single(series, 1, sigma0, theta)
    full = embed_state(series.n_max, (1,), GaussianState(1, np.zeros(2), sigma0))
    s = symplectic_from_bogoliubov(series.evaluate(theta)).matrix
    full_path = (s @ full.covariance @ s.T)[:2, :2]
    assert np.max(np.abs(block_path - full_path)) <= 1e-8


def test_transformed_two_mode_blocks_paths(cavity_series_u03):
    series = cavity_series_u03
    eye_blocks = transformed_two_mode_blocks(
        series, 1, 2, np.eye(2), np.eye(2), np.zeros((2, 2)), 0.0
    )
    assert np.allclose(eye_blocks, np.eye(4))

    r = 0.5
    psi = np.diag([np.exp(r), np.exp(-r)])
    zero = np.zeros((2, 2))
    at_zero = transformed_two_mode_blocks(series, 1, 2, psi, psi, zero, 0.0)
    # zeroth order: each diagonal block is the phase-rotated squeezed block
    for idx, mode in enumerate((1, 2)):
        g = series.G[mode - 1]
        rot = block_from_coefficients(g, 0.0)
        assert np.allclose(at_zero[2 * idx:2 * idx + 2, 2 * idx:2 * idx + 2], rot @ psi @ rot.T)
    assert np.allclose(at_zero[:2, 2:], 0.0)

    theta = 0.05
    block_path = transformed_two_mode_blocks(series, 1, 2, psi, psi, zero, theta)
    probe = GaussianState(2, np.zeros(4), np.block([[psi, zero], [zero, psi]]))
    full = embed_state(series.n_max, (1, 2), probe)
    s = symplectic_from_bogoliubov(series.evaluate(theta)).matrix
    full_path = (s @ full.covariance @ s.T)[:4, :4]
    assert np.max(np.abs(block_path - full_path)) <= 1e-8

    with pytest.raises(ValueError):
        transformed_two_mode_blocks(series, 1, 1, psi, psi, zero, theta)


def test_series_csv_roundtrip(unitary_series):
    text = series_to_csv(unitary_series)
    back = series_from_csv(text)
    assert np.array_equal(back.G, unitary_series.G)
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        assert np.array_equal(getattr(back, name), getattr(unitary_series, name))


def test_matrices_csv_roundtrip(unitary_series):
    bogo = unitary_series.evaluate(0.04)
    back = matrices_from_csv(matrices_to_csv(bogo))
    assert np.array_equal(back.alpha, bogo.alpha)
    assert np.array_equal(back.beta, bogo.beta)
