"""Multimode Gaussian states: first moments plus covariance matrix.

Conventions used throughout the package:

* quadratures are interleaved, ``(x_1, p_1, x_2, p_2, ...)``, with
  ``x = (a + a^dag)/sqrt(2)`` and ``p = (a - a^dag)/(i sqrt(2))``;
* the covariance matrix is ``Sigma_ij = <X_i X_j + X_j X_i> - 2<X_i><X_j>``,
  so the vacuum covariance is the identity matrix;
* the symplectic form is ``Omega = diag([[0, -1], [1, 0]], ...)`` and a
  physical covariance satisfies ``Sigma + i*Omega >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

SYMMETRY_TOL = 1e-12
# Perturbatively built states can be unphysical at third order in the small
# parameter; the tolerance absorbs that without passing genuinely bad input.
PHYSICALITY_TOL = 1e-10
EIGENVALUE_PAIRING_RTOL = 1e-8


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for ``n_modes`` modes.

    Each 2x2 block is ``[[0, -1], [1, 0]]``, so ``Omega @ Omega = -I`` and
    ``Omega.T = -Omega``.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = -1.0
        omega[2 * k + 1, 2 * k] = 1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n_modes`` bosonic modes.

    Instances are immutable: the wrapped arrays are marked read-only, so a
    state can be shared freely between workers.

    Attributes:
        n_modes (int): number of modes
        first_moments (array): quadrature expectation values, length ``2 n``
        covariance (array): symmetric ``2n x 2n`` covariance matrix
    """

    n_modes: int
    first_moments: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        mean = np.asarray(self.first_moments, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        dim = 2 * self.n_modes
        if mean.shape != (dim,):
            raise ValueError(f"first_moments must have length {dim}")
        if cov.shape != (dim, dim):
            raise ValueError(f"covariance must be {dim}x{dim}")
        asym = np.max(np.abs(cov - cov.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
        cov = 0.5 * (cov + cov.T)
        omega = symplectic_form(self.n_modes)
        nu_min = np.min(np.linalg.eigvalsh(cov + 1j * omega))
        if nu_min < -PHYSICALITY_TOL:
            raise ValueError(
                f"covariance is not physical: min eig(Sigma + i Omega) = {nu_min:.3e}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "first_moments", mean)
        object.__setattr__(self, "covariance", cov)


def vacuum_state(n_modes: int) -> GaussianState:
    """Vacuum of ``n_modes`` modes: zero means, identity covariance."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def squeezed_displaced_state(n_modes: int, k: int, r: float, delta: float) -> GaussianState:
    """All modes vacuum except mode ``k``, which is squeezed and displaced.

    Mode ``k`` carries covariance ``diag(e^r, e^-r)`` and first moments
    ``(sqrt(2)*delta, 0)``. Mode indices are 1-based.
    """
    _check_mode_index(k, n_modes)
    mean = np.zeros(2 * n_modes)
    mean[2 * (k - 1)] = np.sqrt(2.0) * delta
    cov = np.eye(2 * n_modes)
    cov[2 * (k - 1), 2 * (k - 1)] = np.exp(r)
    cov[2 * k - 1, 2 * k - 1] = np.exp(-r)
    return GaussianState(n_modes, mean, cov)


def two_mode_squeezed_state(n_modes: int, k: int, k_prime: int, r: float) -> GaussianState:
    """Two-mode squeezed vacuum on modes ``k`` and ``k_prime``.

    Diagonal 2x2 blocks are ``cosh(r) I``, the cross block is
    ``sinh(r) diag(1, -1)``; first moments vanish.
    """
    _check_mode_index(k, n_modes)
    _check_mode_index(k_prime, n_modes)
    if k == k_prime:
        raise ValueError("two-mode squeezing requires two distinct modes")
    cov = np.eye(2 * n_modes)
    ik, ip = 2 * (k - 1), 2 * (k_prime - 1)
    ch, sh = np.cosh(r), np.sinh(r)
    for i in (ik, ik + 1):
        cov[i, i] = ch
    for i in (ip, ip + 1):
        cov[i, i] = ch
    sz = np.diag([sh, -sh])
    cov[ik:ik + 2, ip:ip + 2] = sz
    cov[ip:ip + 2, ik:ik + 2] = sz
    return GaussianState(n_modes, np.zeros(2 * n_modes), cov)


def embed_state(n_modes: int, modes, state: GaussianState) -> GaussianState:
    """Embed a small state into ``n_modes`` modes, vacuum everywhere else.

    ``modes`` (1-based, distinct) says where the given state's modes go.
    """
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("mode indices must be distinct")
    if state.n_modes != len(modes):
        raise ValueError("state size must match the number of target modes")
    for k in modes:
        _check_mode_index(k, n_modes)
    mean = np.zeros(2 * n_modes)
    cov = np.eye(2 * n_modes)
    idx = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes]).astype(int)
    mean[idx] = state.first_moments
    cov[np.ix_(idx, idx)] = state.covariance
    return GaussianState(n_modes, mean, cov)


def symplectic_eigenvalues(state_or_cov, tol: float = 1e-9) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted in descending order.

    The values are the moduli of the eigenvalues of ``i Omega Sigma``, which
    come in +/- pairs; the pairs are averaged into ``n`` values. Values below
    ``1 - tol`` indicate an unphysical covariance and raise instead of being
    clipped.
    """
    cov = state_or_cov.covariance if isinstance(state_or_cov, GaussianState) else np.asarray(state_or_cov)
    n = cov.shape[0] // 2
    omega = symplectic_form(n)
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * omega @ cov)))
    pairs = moduli.reshape(n, 2)
    spread = np.abs(pairs[:, 1] - pairs[:, 0])
    scale = np.maximum(np.abs(pairs[:, 1]), 1.0)
    if np.any(spread > EIGENVALUE_PAIRING_RTOL * scale):
        raise ValueError("symplectic eigenvalues do not pair up; covariance may be invalid")
    nu = np.sort(pairs.mean(axis=1))[::-1]
    if np.any(nu < 1.0 - tol):
        raise ValueError(f"unphysical covariance: min symplectic eigenvalue {nu.min():.12f}")
    return nu


def random_symplectic(n_modes: int, rng: np.random.Generator, strength: float = 0.4) -> np.ndarray:
    """Random symplectic matrix ``exp(Omega Q)`` with ``Q`` symmetric."""
    q = rng.normal(scale=strength, size=(2 * n_modes, 2 * n_modes))
    q = 0.5 * (q + q.T)
    return expm(symplectic_form(n_modes) @ q)


def random_pure_state(n_modes: int, rng: np.random.Generator, strength: float = 0.4) -> GaussianState:
    """Random pure Gaussian state ``S I S^T`` with random displacement."""
    s = random_symplectic(n_modes, rng, strength)
    mean = rng.normal(scale=1.0, size=2 * n_modes)
    return GaussianState(n_modes, mean, s @ s.T)


def random_mixed_state(
    n_modes: int,
    rng: np.random.Generator,
    strength: float = 0.4,
    max_excess: float = 0.5,
) -> GaussianState:
    """Random mixed Gaussian state ``S diag(nu) S^T`` with ``nu >= 1``."""
    s = random_symplectic(n_modes, rng, strength)
    nu = 1.0 + rng.uniform(0.0, max_excess, size=n_modes)
    d = np.repeat(nu, 2)
    mean = rng.normal(scale=1.0, size=2 * n_modes)
    return GaussianState(n_modes, mean, s @ np.diag(d) @ s.T)


def _check_mode_index(k: int, n_modes: int) -> None:
    if not 1 <= k <= n_modes:
        raise ValueError(f"mode index {k} out of range 1..{n_modes}")
