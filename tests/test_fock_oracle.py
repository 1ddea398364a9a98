"""Brute-force density-matrix cross-checks.

Gaussian states are rebuilt as truncated Fock-basis density matrices
(displaced squeezed thermal states), their moments are verified against the
requested ones, and the Uhlmann fidelity is evaluated from its operator
definition. This is as independent from the covariance-matrix formulas as
an oracle gets.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, expm, sqrtm

from gaussfisher.fidelity import fidelity_one_mode, fidelity_two_mode


def ladder(cutoff):
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        a[n - 1, n] = np.sqrt(n)
    return a


def single_mode_density_matrix(mean, cov, cutoff):
    """Density matrix of a displaced squeezed thermal state.

    The covariance is factored as ``nu * S S^T`` with ``S`` the symmetric
    positive square root of ``cov/nu`` (any symmetric 2x2 matrix with unit
    determinant is symplectic), giving thermal occupation, squeezing
    magnitude, and squeezing angle.
    """
    cov = np.asarray(cov, dtype=float)
    nu = np.sqrt(np.linalg.det(cov))
    nbar = (nu - 1.0) / 2.0
    m = cov / nu
    evals, evecs = np.linalg.eigh(m)
    r = 0.5 * np.log(evals[1])  # eigenvalues are e^{-2r}, e^{2r}
    # eigenvector of the large axis at angle t in the (x, p) plane
    t = np.arctan2(evecs[1, 1], evecs[0, 1])
    xi = -r * np.exp(2j * t)

    a = ladder(cutoff)
    ad = a.conj().T
    n_op = ad @ a
    rho_th = np.diag((nbar / (1 + nbar)) ** np.arange(cutoff)) / (1 + nbar) if nbar > 0 else None
    if rho_th is None:
        rho_th = np.zeros((cutoff, cutoff), dtype=complex)
        rho_th[0, 0] = 1.0
    squeeze = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))
    alpha = complex(mean[0], mean[1]) / np.sqrt(2.0)
    displace = expm(alpha * ad - np.conj(alpha) * a)
    u = displace @ squeeze
    rho = u @ rho_th @ u.conj().T
    return rho / np.trace(rho).real


def moments_from_density_matrix(rho, cutoff):
    a = ladder(cutoff)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    quads = (x, p)
    mean = np.array([np.trace(rho @ q).real for q in quads])
    cov = np.zeros((2, 2))
    for i, qi in enumerate(quads):
        for j, qj in enumerate(quads):
            sym = qi @ qj + qj @ qi
            cov[i, j] = np.trace(rho @ sym).real - 2.0 * mean[i] * mean[j]
    return mean, cov


def uhlmann(rho1, rho2):
    # a truncated Fock-basis density matrix is singular (rank one for a pure
    # state) or ill-conditioned (thermal weights decay geometrically), so
    # sqrtm warns; its square roots still reach the tolerance each test
    # asserts against the closed-form fidelity
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        root = sqrtm(rho1)
        inner = sqrtm(root @ rho2 @ root)
    return float(np.trace(inner).real ** 2)


@pytest.mark.parametrize(
    "state_a, state_b",
    [
        # (mean, cov) pairs: mixed squeezed vs displaced thermal, etc.
        (
            (np.array([0.4, -0.2]), 1.3 * np.diag([np.exp(0.8), np.exp(-0.8)])),
            (np.array([-0.3, 0.5]), 1.1 * np.eye(2)),
        ),
        (
            (np.zeros(2), np.diag([np.exp(1.0), np.exp(-1.0)])),
            (np.array([0.7, 0.0]), np.diag([np.exp(-0.6), np.exp(0.6)])),
        ),
        (
            (np.array([0.2, 0.1]), 1.5 * np.eye(2)),
            (np.array([0.2, 0.1]), 1.5 * np.eye(2)),
        ),
    ],
)
def test_single_mode_fidelity_against_fock_basis(state_a, state_b):
    cutoff = 60
    rhos = []
    for mean, cov in (state_a, state_b):
        rho = single_mode_density_matrix(mean, cov, cutoff)
        got_mean, got_cov = moments_from_density_matrix(rho, cutoff)
        assert np.allclose(got_mean, mean, atol=1e-8)
        assert np.allclose(got_cov, cov, atol=1e-7)
        rhos.append(rho)
    brute = uhlmann(*rhos)
    formula = fidelity_one_mode(
        state_a[1], state_b[1], np.asarray(state_b[0]) - np.asarray(state_a[0])
    )
    assert np.isclose(formula, brute, rtol=0, atol=2e-7)


def two_mode_squeezed_thermal(r, nbar, cutoff):
    """Two-mode squeezed thermal state as a Fock-basis density matrix."""
    a = ladder(cutoff)
    eye = np.eye(cutoff)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    if nbar > 0:
        th = np.diag((nbar / (1 + nbar)) ** np.arange(cutoff)) / (1 + nbar)
    else:
        th = np.zeros((cutoff, cutoff))
        th[0, 0] = 1.0
    rho0 = np.kron(th, th).astype(complex)
    # covariance blocks cosh(r), sinh(r) correspond to the two-mode squeeze
    # operator with parameter r/2
    s = r / 2.0
    u = expm(s * (a1.conj().T @ a2.conj().T - a1 @ a2))
    rho = u @ rho0 @ u.conj().T
    return rho / np.trace(rho).real


def _tms_cov(r, nbar):
    nu = 2.0 * nbar + 1.0
    ch, sh = np.cosh(r), np.sinh(r)
    block = ch * np.eye(2)
    cross = np.diag([sh, -sh])
    return nu * np.block([[block, cross], [cross, block]])


def test_two_mode_fidelity_against_fock_basis():
    cutoff = 14
    cases = [
        ((0.8, 0.0), (0.5, 0.05)),
        ((0.6, 0.02), (0.6, 0.02)),
    ]
    for (r1, n1), (r2, n2) in cases:
        rho1 = two_mode_squeezed_thermal(r1, n1, cutoff)
        rho2 = two_mode_squeezed_thermal(r2, n2, cutoff)
        brute = uhlmann(rho1, rho2)
        formula = fidelity_two_mode(_tms_cov(r1, n1), _tms_cov(r2, n2), np.zeros(4))
        assert np.isclose(formula, brute, rtol=0, atol=5e-6), (r1, n1, r2, n2)


def test_two_mode_fidelity_displaced_entangled_states():
    # nonzero first moments on correlated states: the exponential factor of
    # the two-mode formula is exercised beyond the product-state regime
    cutoff = 16
    a = ladder(cutoff)
    eye = np.eye(cutoff)
    ops = (np.kron(a, eye), np.kron(eye, a))

    def displace(rho, alphas):
        u = expm(sum(al * op.conj().T - np.conj(al) * op for al, op in zip(alphas, ops)))
        return u @ rho @ u.conj().T

    def means_of(alphas):
        return np.array(
            [np.sqrt(2.0) * alphas[0].real, np.sqrt(2.0) * alphas[0].imag,
             np.sqrt(2.0) * alphas[1].real, np.sqrt(2.0) * alphas[1].imag]
        )

    r1, n1, alphas1 = 0.5, 0.0, (0.35 + 0.1j, -0.2j)
    r2, n2, alphas2 = 0.4, 0.04, (0.1, 0.25)
    rho1 = displace(two_mode_squeezed_thermal(r1, n1, cutoff), alphas1)
    rho2 = displace(two_mode_squeezed_thermal(r2, n2, cutoff), alphas2)
    brute = uhlmann(rho1, rho2)
    formula = fidelity_two_mode(
        _tms_cov(r1, n1), _tms_cov(r2, n2), means_of(alphas2) - means_of(alphas1)
    )
    assert np.isclose(formula, brute, rtol=0, atol=1e-5)
