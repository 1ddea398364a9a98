import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _disassemble,
    embed_state,
    full_identity_defect,
    random_exact_channel,
    synthetic_unitary_series,
    vacuum_state,
)
from gaussfisher.bogoliubov import (
    BogoliubovSeries,
    _assemble,
    covariance_series,
    identity_residual,
    series_from_csv,
    series_to_csv,
)
from gaussfisher.qfi import probe_state


def single_mode_block(alpha, beta):
    return _assemble(np.array([[alpha]], dtype=complex), np.array([[beta]], dtype=complex))


def test_block_examples():
    assert np.allclose(single_mode_block(1.0, 0.0), np.eye(2))
    r = 1.0
    assert np.allclose(single_mode_block(np.cosh(r), np.sinh(r)), np.diag([np.exp(-r), np.exp(r)]))
    assert np.allclose(single_mode_block(1j, 0.0), [[0.0, 1.0], [-1.0, 0.0]])


def test_block_coefficient_roundtrip(rng):
    # the test-only decoder behind synthetic_unitary_series inverts the
    # block assembly of _assemble
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        aa, bb = _disassemble(_assemble(a, b))
        assert np.allclose(aa, a, rtol=0.0, atol=1e-15) and np.allclose(bb, b, rtol=0.0, atol=1e-15)


def test_symplectic_from_identity():
    alpha, beta = np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)
    assert identity_residual(alpha, beta) <= 1e-12
    assert np.allclose(_assemble(alpha, beta), np.eye(6))


def test_symplectic_single_mode_squeeze():
    r = 0.6
    alpha, beta = np.array([[np.cosh(r)]], dtype=complex), np.array([[np.sinh(r)]], dtype=complex)
    assert identity_residual(alpha, beta) <= 1e-12
    assert np.allclose(_assemble(alpha, beta), np.diag([np.exp(-r), np.exp(r)]))


def test_symplectic_passive_channel(rng):
    # a passive channel (unitary mode mixing, no pair creation) maps to an
    # orthogonal symplectic matrix
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    zeros = np.zeros((3, 3), dtype=complex)
    assert identity_residual(q, zeros) <= 1e-12
    s = _assemble(q, zeros)
    assert np.max(np.abs(s @ s.T - np.eye(6))) <= 1e-12


windows = st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.none() | windows, cols=st.none() | windows)
def test_identity_residual_is_window_of_full_defect(seed, rows, cols):
    # any (rows, cols) window equals that window of the full-matrix
    # S Omega S^T - Omega, on exact channels and on an arbitrary pair alike
    rng = np.random.default_rng(seed)
    exact = random_exact_channel(5, rng)
    arbitrary = tuple(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) for _ in range(2))

    def idx(modes):
        modes = range(1, 6) if modes is None else modes
        return np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes])

    for alpha, beta in (exact, arbitrary):
        reference = np.max(np.abs(full_identity_defect(alpha, beta)[np.ix_(idx(rows), idx(cols))]))
        window = identity_residual(alpha, beta, rows, cols)
        assert abs(window - reference) <= 1e-12 * max(1.0, reference)
    assert identity_residual(*exact, rows, cols) <= 1e-12


def test_identity_check_rejects_corrupted_channel(rng):
    series = synthetic_unitary_series(4, rng)
    alpha, beta = series.evaluate(0.05)
    # doubling beta breaks alpha alpha^dag - beta beta^dag = I far beyond the
    # cubic truncation defect of the evaluated series
    corrupted = identity_residual(alpha, 2.0 * beta)
    assert corrupted > 1e-6
    assert corrupted > 10.0 * identity_residual(alpha, beta)


def test_evaluate_series_zeroth_order(unitary_series):
    alpha, beta = unitary_series.evaluate(0.0)
    assert np.allclose(alpha, np.diag(unitary_series.G))
    assert np.max(np.abs(beta)) == 0.0
    assert not alpha.flags.writeable and not beta.flags.writeable


def test_evaluate_series_polynomial_structure(unitary_series):
    theta = 0.03
    a1, _ = unitary_series.evaluate(theta)
    a2, _ = unitary_series.evaluate(2 * theta)
    # alpha(2t) - 2 alpha(t) + diag(G) = 2 t^2 alpha2: no first-order part
    remainder = a2 - 2.0 * a1 + np.diag(unitary_series.G)
    assert np.allclose(remainder, 2.0 * theta**2 * unitary_series.alpha2, atol=1e-14)


def test_evaluate_series_residual_cubic(unitary_series):
    res = [identity_residual(*unitary_series.evaluate(t)) for t in (0.02, 0.04, 0.08)]
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
        BogoliubovSeries(np.array([1.0, 1.1]), zeros, zeros, zeros, zeros)
    for bad in (np.nan, np.inf, complex(np.nan, 1.0)):
        with pytest.raises(ValueError, match="unit modulus"):
            BogoliubovSeries(np.array([1.0, bad]), zeros, zeros, zeros, zeros)


def test_covariance_series_zeroth_and_first(unitary_series):
    n = unitary_series.n_max
    vac_in = vacuum_state(1)
    trivial = BogoliubovSeries(
        np.ones(n, dtype=complex),
        *(np.zeros((n, n), dtype=complex) for _ in range(4)),
    )
    (orders,) = covariance_series(trivial.reduced((2,)), [vac_in])
    assert np.allclose(orders.sigma0, np.eye(2))
    assert np.max(np.abs(orders.sigma1)) == 0.0
    assert np.max(np.abs(orders.sigma2)) == 0.0

    # first moments: mode k feeds through the first-order diagonal block
    k = 2
    delta = 0.7
    probe = probe_state("single_squeezed_displaced", 0.0, delta)
    (orders,) = covariance_series(unitary_series.reduced((k,)), [probe])
    w = unitary_series.alpha1[k - 1, k - 1] - unitary_series.beta1[k - 1, k - 1]
    expected = np.sqrt(2.0) * delta * np.array([w.real, -w.imag])
    assert np.allclose(orders.mean1, expected, atol=1e-14)


def test_covariance_series_matches_finite_difference(unitary_series):
    probe = probe_state("single_squeezed_displaced", 0.6, 0.0)
    (orders,) = covariance_series(unitary_series.reduced((2,)), [probe])
    full = embed_state(unitary_series.n_max, (2,), probe)

    def reduced(theta):
        s = _assemble(*unitary_series.evaluate(theta))
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

