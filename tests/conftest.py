import numpy as np
import pytest

from gaussfisher.cavity import compose_one_segment, perturbative_overlaps, rindler_overlaps
from gaussfisher.bogoliubov import (
    CovarianceSeries,
    block_from_coefficients,
    synthetic_unitary_series,
)
from gaussfisher.states import embed_state


def full_covariance_series(series, modes, input_state):
    """Reference covariance orders from the full ``2n x 2n`` products.

    Embeds the probe in the vacuum of all other modes, forms
    ``S_i Sigma_in S_j^T`` with the whole symplectic orders and reduces to the
    probed block rows and columns; ``O(n^3)`` per call.
    """
    s0, s1, s2 = series.symplectic_orders()
    full = embed_state(series.n_max, tuple(modes), input_state)
    sigma_in, x_in = full.covariance, full.first_moments
    idx = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes]).astype(int)

    def red(m):
        return m[np.ix_(idx, idx)]

    return CovarianceSeries(
        red(s0 @ sigma_in @ s0.T),
        red(s1 @ sigma_in @ s0.T + s0 @ sigma_in @ s1.T),
        red(s2 @ sigma_in @ s0.T + s0 @ sigma_in @ s2.T + s1 @ sigma_in @ s1.T),
        (s0 @ x_in)[idx],
        (s1 @ x_in)[idx],
    )


def full_unitarity_residuals(series, modes=None):
    """Reference order-by-order identity defects from full ``n x n`` products,
    restricted to the probed modes afterwards."""
    g = np.diag(series.G)
    r1a = g @ series.alpha1.conj().T + series.alpha1 @ g.conj().T
    r1b = g @ series.beta1.T - (g @ series.beta1.T).T
    r2a = (
        g @ series.alpha2.conj().T
        + series.alpha2 @ g.conj().T
        + series.alpha1 @ series.alpha1.conj().T
        - series.beta1 @ series.beta1.conj().T
    )
    m = g @ series.beta2.T + series.alpha1 @ series.beta1.T
    r2b = m - m.T

    def norm(mat):
        if modes is not None:
            idx = np.array([k - 1 for k in modes])
            mat = mat[np.ix_(idx, idx)]
        return float(np.max(np.abs(mat)))

    return max(norm(r1a), norm(r1b)), max(norm(r2a), norm(r2b))


def sigma_orders_from_blocks(series, k, k_prime, psi_k, psi_kp, phi):
    """Reduced covariance orders assembled block by block.

    Collects the theta powers of the transformed two-mode covariance from
    the 2x2 coefficient blocks directly, without ever forming the full
    transformation matrix; an independent route against the full-matrix
    order collection.
    """
    n = series.n_max
    probe = (k, k_prime)
    values = {
        (k, k): np.asarray(psi_k, float),
        (k, k_prime): np.asarray(phi, float),
        (k_prime, k): np.asarray(phi, float).T,
        (k_prime, k_prime): np.asarray(psi_kp, float),
    }

    def m0(i):
        return block_from_coefficients(series.G[i - 1], 0.0)

    def m1(i, j):
        return block_from_coefficients(series.alpha1[i - 1, j - 1], series.beta1[i - 1, j - 1])

    def m2(i, j):
        return block_from_coefficients(series.alpha2[i - 1, j - 1], series.beta2[i - 1, j - 1])

    dim = 2 * len(probe)
    s0 = np.zeros((dim, dim))
    s1 = np.zeros((dim, dim))
    s2 = np.zeros((dim, dim))
    for bi, i in enumerate(probe):
        for bj, j in enumerate(probe):
            sl = (slice(2 * bi, 2 * bi + 2), slice(2 * bj, 2 * bj + 2))
            s0[sl] = m0(i) @ values[(i, j)] @ m0(j).T
            c1 = np.zeros((2, 2))
            for m in probe:
                c1 += m1(i, m) @ values[(m, j)] @ m0(j).T
                c1 += m0(i) @ values[(i, m)] @ m1(j, m).T
            s1[sl] = c1
            c2 = np.zeros((2, 2))
            for m in probe:
                c2 += m2(i, m) @ values[(m, j)] @ m0(j).T
                c2 += m0(i) @ values[(i, m)] @ m2(j, m).T
            for m in probe:
                for mp in probe:
                    c2 += m1(i, m) @ values[(m, mp)] @ m1(j, mp).T
            for spectator in range(1, n + 1):
                if spectator in probe:
                    continue
                c2 += m1(i, spectator) @ m1(j, spectator).T
            s2[sl] = c2
    return s0, s1, s2


def alpha1_closed_form(m: int, n: int) -> float:
    """First-order inertial-to-accelerated mode-mixing coefficient.

    Hand-derived by expanding the overlap integrals to first order in h:
    sqrt(mn) (1 - (-1)^(m+n)) / (pi^2 (n - m)^3) off the diagonal.
    Serves as an independent oracle for the quadrature + fit pipeline.
    """
    if m == n:
        return 0.0
    return np.sqrt(m * n) * (1 - (-1) ** (m + n)) / (np.pi**2 * (n - m) ** 3)


def beta1_closed_form(m: int, n: int) -> float:
    """First-order pair-creation coefficient, same derivation:
    sqrt(mn) (1 - (-1)^(m+n)) / (pi^2 (n + m)^3)."""
    return np.sqrt(m * n) * (1 - (-1) ** (m + n)) / (np.pi**2 * (n + m) ** 3)


@pytest.fixture(scope="session")
def overlap_series_10():
    return perturbative_overlaps(1.0, 10)


@pytest.fixture(scope="session")
def overlap_series_60():
    # deep mode ladder: keeps truncation noise at trivial-channel points
    # (integer u) below the comparison tolerances of the sweep criteria
    return perturbative_overlaps(1.0, 60)


@pytest.fixture(scope="session")
def cavity_series_u03(overlap_series_10):
    return compose_one_segment(overlap_series_10, 0.3)


@pytest.fixture(scope="session")
def exact_overlaps_h005():
    return {n: rindler_overlaps(1.0, 0.05, n) for n in (5, 10, 20)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def unitary_series():
    return synthetic_unitary_series(6, np.random.default_rng(11), strength=0.3)


@pytest.fixture(scope="session")
def unitary_series_diagfree():
    return synthetic_unitary_series(6, np.random.default_rng(12), strength=0.3, zero_diagonal=True)
