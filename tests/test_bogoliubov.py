import numpy as np
import pytest

from conftest import _disassemble, synthetic_unitary_series
from gaussfisher.bogoliubov import (
    BogoliubovMatrices,
    BogoliubovSeries,
    covariance_series,
    series_from_csv,
    series_to_csv,
    symplectic_from_bogoliubov,
)
from gaussfisher.states import embed_state, squeezed_displaced_state, vacuum_state


def single_mode_block(alpha, beta):
    bogo = BogoliubovMatrices(1, np.array([[alpha]], dtype=complex), np.array([[beta]], dtype=complex))
    return symplectic_from_bogoliubov(bogo).matrix


def test_block_examples():
    assert np.allclose(single_mode_block(1.0, 0.0), np.eye(2))
    r = 1.0
    assert np.allclose(single_mode_block(np.cosh(r), np.sinh(r)), np.diag([np.exp(-r), np.exp(r)]))
    assert np.allclose(single_mode_block(1j, 0.0), [[0.0, 1.0], [-1.0, 0.0]])


def test_block_coefficient_roundtrip(rng):
    # the test-only decoder behind synthetic_unitary_series inverts the
    # block assembly of symplectic_from_bogoliubov
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        aa, bb = _disassemble(symplectic_from_bogoliubov(BogoliubovMatrices(3, a, b)).matrix)
        assert np.allclose(aa, a, rtol=0.0, atol=1e-15) and np.allclose(bb, b, rtol=0.0, atol=1e-15)


def test_symplectic_from_identity():
    bogo = BogoliubovMatrices(3, np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex))
    assert bogo.identity_residual() <= 1e-12
    s = symplectic_from_bogoliubov(bogo)
    assert np.allclose(s.matrix, np.eye(6))


def test_symplectic_single_mode_squeeze():
    r = 0.6
    bogo = BogoliubovMatrices(1, np.array([[np.cosh(r)]], dtype=complex), np.array([[np.sinh(r)]], dtype=complex))
    assert bogo.identity_residual() <= 1e-12
    s = symplectic_from_bogoliubov(bogo)
    assert np.allclose(s.matrix, np.diag([np.exp(-r), np.exp(r)]))
    assert s.omega_residual() <= 1e-12


def test_symplectic_passive_channel(rng):
    # a passive channel (unitary mode mixing, no pair creation) maps to an
    # orthogonal symplectic matrix
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    bogo = BogoliubovMatrices(3, q, np.zeros((3, 3), dtype=complex))
    assert bogo.identity_residual() <= 1e-12
    s = symplectic_from_bogoliubov(bogo)
    assert s.omega_residual() <= 1e-12
    assert np.max(np.abs(s.matrix @ s.matrix.T - np.eye(6))) <= 1e-12


def test_identity_check_rejects_corrupted_channel(rng):
    series = synthetic_unitary_series(4, rng)
    bogo = series.evaluate(0.05)
    corrupted = BogoliubovMatrices(4, bogo.alpha, 2.0 * bogo.beta)
    # doubling beta breaks alpha alpha^dag - beta beta^dag = I far beyond the
    # cubic truncation defect of the evaluated series
    assert corrupted.identity_residual() > 1e-6
    assert corrupted.identity_residual() > 10.0 * bogo.identity_residual()


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
        partial_sum = orders.sigma0 + orders.sigma1 * theta + orders.sigma2 * theta**2
        res.append(np.max(np.abs(reduced(theta) - partial_sum)))
    slope = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log(res), 1)[0]
    assert slope >= 2.7


def test_series_csv_roundtrip(unitary_series):
    text = series_to_csv(unitary_series)
    back = series_from_csv(text)
    assert np.array_equal(back.G, unitary_series.G)
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        assert np.array_equal(getattr(back, name), getattr(unitary_series, name))

