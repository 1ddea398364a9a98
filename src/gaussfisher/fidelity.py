"""Exact Uhlmann fidelity between one- and two-mode Gaussian states.

Both formulas take the covariance matrices and the difference of first
moments; they follow the vacuum-equals-identity covariance normalization used
across this package, which differs from several conventions found in the
literature by a rescaling of the covariance matrix.
"""

from __future__ import annotations

import numpy as np

from .states import symplectic_form

#: square roots of radicands in [-NEGATIVE_CLAMP, 0) are treated as 0
NEGATIVE_CLAMP = 1e-12
#: allowed fidelity overshoot above 1 before an error is raised
OVERSHOOT_TOL = 1e-9


class FidelityError(ValueError):
    """Raised for unphysical inputs or convention violations."""


def _real_det(matrix: np.ndarray, tol: float = 1e-10) -> float:
    """Determinant of a complex matrix that must be real up to roundoff."""
    d = np.linalg.det(matrix)
    scale = max(abs(d), 1.0)
    if abs(d.imag) > tol * scale:
        raise FidelityError(f"determinant expected real, got imaginary part {d.imag:.3e}")
    return float(d.real)


def _sqrt_nonneg(value: float, label: str) -> float:
    if value < -NEGATIVE_CLAMP:
        raise FidelityError(f"negative radicand in {label}: {value:.3e}")
    return np.sqrt(max(value, 0.0))


def _finish(f: float) -> float:
    if f < 0.0 or f > 1.0 + OVERSHOOT_TOL:
        raise FidelityError(f"fidelity {f!r} outside [0, 1]")
    return min(f, 1.0)


def fidelity_one_mode(sigma: np.ndarray, sigma_prime: np.ndarray, delta_x=None) -> float:
    """Fidelity of two single-mode Gaussian states.

    ``F = exp(-dX^T A^-1 dX) / (sqrt(Lambda + Delta) - sqrt(Lambda))`` with
    ``A = sigma + sigma'``, ``Delta = det(A)/4`` and
    ``Lambda = det(sigma + i Omega) det(sigma' + i Omega) / 4``.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma_prime = np.asarray(sigma_prime, dtype=float)
    if sigma.shape != (2, 2) or sigma_prime.shape != (2, 2):
        raise FidelityError("single-mode fidelity needs 2x2 covariance matrices")
    omega = symplectic_form(1)
    a = sigma + sigma_prime
    delta = np.linalg.det(a) / 4.0
    lam = _real_det(sigma + 1j * omega) * _real_det(sigma_prime + 1j * omega) / 4.0
    denom = _sqrt_nonneg(lam + delta, "Lambda + Delta") - _sqrt_nonneg(lam, "Lambda")
    if denom <= 0.0:
        raise FidelityError(f"non-positive denominator {denom:.3e}; check conventions")
    return _finish(_exp_factor(a, delta_x) / denom)


def fidelity_two_mode(sigma: np.ndarray, sigma_prime: np.ndarray, delta_x=None) -> float:
    """Fidelity of two two-mode Gaussian states.

    ``F = exp(-dX^T A^-1 dX) /
    (sqrt(Lambda) + sqrt(Gamma) - sqrt((sqrt(Lambda) + sqrt(Gamma))^2 - Delta))``
    with ``Gamma = det(i Omega sigma i Omega sigma' + I)/16``,
    ``Lambda = det(i Omega sigma + I) det(i Omega sigma' + I)/16`` and
    ``Delta = det(A)/16``.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma_prime = np.asarray(sigma_prime, dtype=float)
    if sigma.shape != (4, 4) or sigma_prime.shape != (4, 4):
        raise FidelityError("two-mode fidelity needs 4x4 covariance matrices")
    omega = symplectic_form(2)
    eye = np.eye(4)
    io = 1j * omega
    a = sigma + sigma_prime
    gamma = _real_det(io @ sigma @ io @ sigma_prime + eye) / 16.0
    lam = _real_det(io @ sigma + eye) * _real_det(io @ sigma_prime + eye) / 16.0
    delta = np.linalg.det(a) / 16.0
    sqrt_lam = _sqrt_nonneg(lam, "Lambda")
    sqrt_gamma = _sqrt_nonneg(gamma, "Gamma")
    root = _sqrt_nonneg((sqrt_lam + sqrt_gamma) ** 2 - delta, "(sqrt(Lambda)+sqrt(Gamma))^2 - Delta")
    denom = sqrt_lam + sqrt_gamma - root
    if denom <= 0.0:
        raise FidelityError(f"non-positive denominator {denom:.3e}; check conventions")
    return _finish(_exp_factor(a, delta_x) / denom)


def _exp_factor(a: np.ndarray, delta_x) -> float:
    if delta_x is None:
        return 1.0
    dx = np.asarray(delta_x, dtype=float).reshape(-1)
    if dx.shape[0] != a.shape[0]:
        raise FidelityError("delta_x length must match the covariance dimension")
    return float(np.exp(-dx @ np.linalg.solve(a, dx)))
