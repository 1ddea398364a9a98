import numpy as np
import pytest

from conftest import fidelity, random_mixed_state, random_pure_state, vacuum_state
from gaussfisher.fidelity import FidelityError, fidelity_one_mode, fidelity_two_mode


def test_identical_states_give_one(rng):
    assert fidelity_one_mode(np.eye(2), np.eye(2), np.zeros(2)) == 1.0
    assert fidelity_two_mode(np.eye(4), np.eye(4), np.zeros(4)) == 1.0
    for n in (1, 2):
        for _ in range(50):
            state = random_mixed_state(n, rng)
            assert abs(fidelity(state, state) - 1.0) <= 1e-12


def test_coherent_state_overlap():
    # two coherent states separated by d along x: F = exp(-d^2 / 2)
    for d in (0.3, 1.0, 2.5):
        f = fidelity_one_mode(np.eye(2), np.eye(2), np.array([d, 0.0]))
        assert np.isclose(f, np.exp(-(d**2) / 2.0), rtol=0, atol=1e-14)


def test_opposite_squeezing_overlap():
    # brute-force evaluation of the formula gives 1/cosh(r) for
    # diag(e^r, e^-r) against diag(e^-r, e^r); frozen at r = 1
    sigma = np.diag([np.e, 1.0 / np.e])
    f = fidelity_one_mode(sigma, sigma[::-1, ::-1].copy(), np.zeros(2))
    assert np.isclose(f, 0.6480542736638855, rtol=0, atol=1e-13)
    assert np.isclose(f, 1.0 / np.cosh(1.0), rtol=0, atol=1e-13)


def test_swap_symmetry(rng):
    for n in (1, 2):
        for _ in range(50):
            a, b = random_mixed_state(n, rng), random_mixed_state(n, rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-12


def test_two_mode_product_factorization(rng):
    worst = 0.0
    for _ in range(50):
        a1, a2 = random_mixed_state(1, rng), random_mixed_state(1, rng)
        b1, b2 = random_mixed_state(1, rng), random_mixed_state(1, rng)
        z = np.zeros((2, 2))
        cov_a = np.block([[a1.covariance, z], [z, a2.covariance]])
        cov_b = np.block([[b1.covariance, z], [z, b2.covariance]])
        dx = np.concatenate(
            [b1.first_moments - a1.first_moments, b2.first_moments - a2.first_moments]
        )
        product = fidelity(a1, b1) * fidelity(a2, b2)
        joint = fidelity_two_mode(cov_a, cov_b, dx)
        worst = max(worst, abs(joint - product))
    assert worst <= 1e-10


def _smooth_family(n, rng):
    from scipy.linalg import expm
    from gaussfisher.states import symplectic_form

    q = rng.normal(scale=0.4, size=(2 * n, 2 * n))
    gen = symplectic_form(n) @ (0.5 * (q + q.T))
    base = random_mixed_state(n, rng, max_excess=0.3)

    def family(theta):
        s = expm(theta * gen)
        return s @ base.first_moments, s @ base.covariance @ s.T

    return family


def test_first_derivative_vanishes_at_zero_separation(rng):
    # stationarity of the fidelity at coincidence, by central differences
    step = 1e-4
    for n in (1, 2):
        fid = fidelity_one_mode if n == 1 else fidelity_two_mode
        for _ in range(5):
            family = _smooth_family(n, rng)
            theta = 0.3
            m0, c0 = family(theta)
            mp, cp = family(theta + step)
            mm, cm = family(theta - step)
            derivative = (fid(c0, cp, mp - m0) - fid(c0, cm, mm - m0)) / (2 * step)
            assert abs(derivative) <= 1e-6


def test_quadratic_local_decay(rng):
    # (1 - F(theta, theta + d)) / d^2 approaches a finite limit
    family = _smooth_family(2, rng)
    theta = 0.2
    m0, c0 = family(theta)
    ratios = []
    for d in (2e-3, 1e-3, 5e-4):
        md, cd = family(theta + d)
        ratios.append((1.0 - fidelity_two_mode(c0, cd, md - m0)) / d**2)
    assert abs(ratios[-1] - ratios[-2]) <= 0.02 * abs(ratios[-1])


def test_displacement_exponent_scales_quadratically(rng):
    a, b = random_mixed_state(1, rng), random_mixed_state(1, rng)
    dx = np.array([0.4, -0.2])
    base = fidelity_one_mode(a.covariance, b.covariance, np.zeros(2))
    exponents = []
    for t in (1.0, 2.0, 3.0):
        f = fidelity_one_mode(a.covariance, b.covariance, t * dx)
        exponents.append(-np.log(f / base))
    assert np.isclose(exponents[1], 4.0 * exponents[0], rtol=1e-10)
    assert np.isclose(exponents[2], 9.0 * exponents[0], rtol=1e-10)


def test_fidelity_bounds_and_errors(rng):
    with pytest.raises(FidelityError):
        fidelity_one_mode(np.eye(2), np.eye(4), None)
    with pytest.raises(FidelityError):
        fidelity_two_mode(np.eye(4), np.eye(4), np.zeros(3))
    # unphysical covariance surfaces as a broken denominator or radicand
    with pytest.raises(FidelityError):
        fidelity_one_mode(0.05 * np.eye(2), 0.05 * np.eye(2), None)
    for n in (1, 2):
        for _ in range(20):
            a, b = random_mixed_state(n, rng), random_pure_state(n, rng)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0


def test_mode_count_guard(rng):
    with pytest.raises(FidelityError):
        fidelity(vacuum_state(3), vacuum_state(3))
    with pytest.raises(FidelityError):
        fidelity(vacuum_state(1), vacuum_state(2))
