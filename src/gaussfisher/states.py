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

SYMMETRY_TOL = 1e-12
# Perturbatively built states can be unphysical at third order in the small
# parameter; the tolerance absorbs that without passing genuinely bad input.
PHYSICALITY_TOL = 1e-10


def quadrature_indices(modes, n_modes: int) -> np.ndarray:
    """Interleaved quadrature indices ``(2k-2, 2k-1)`` of the 1-based ``modes``,
    in their order. Every mode list goes through here: a mode outside
    ``1..n_modes`` or a repeated mode raises ``ValueError``."""
    modes = tuple(modes)
    for k in modes:
        if not isinstance(k, (int, np.integer)):
            raise ValueError(f"mode index {k!r} is not an integer")
        if not 1 <= k <= n_modes:
            raise ValueError(f"mode index {k} out of range 1..{n_modes}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"mode indices {','.join(map(str, modes))} must be distinct")
    return np.array([i for k in modes for i in (2 * k - 2, 2 * k - 1)], dtype=int)


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
