"""Quantum Fisher information for Gaussian states under a parametrized
Bogoliubov channel.

Two routes are provided and cross-validated, both taking the channel series,
the probed modes and the probe state on those modes:

* an exact oracle: symmetric finite differences of the Uhlmann fidelity,
  Richardson-extrapolated in the step size;
* the perturbative route at leading order in the channel parameter, split
  into a first-moment part ``E2`` and a covariance part ``C2`` with
  ``H = 4 (E2 + C2)``, both read off the order-by-order reduced covariance
  (trace form).

Probe families are data: a named family is just a :class:`GaussianState`
from :func:`probe_state` plus its modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bogoliubov import BogoliubovSeries, covariance_series
from .fidelity import fidelity_one_mode, fidelity_two_mode
from .states import (
    GaussianState,
    embed_state,
    quadrature_indices,
    squeezed_displaced_state,
    symplectic_form,
    two_mode_squeezed_state,
)


@dataclass(frozen=True)
class QfiResult:
    """QFI value with its displacement and covariance contributions.

    For ``method="perturbative"`` the value is exactly ``4 (e2 + c2)`` and
    ``residual`` reports the mode-truncation tail estimate; for
    ``method="oracle"`` the split is not available (NaN) and ``residual`` is
    the extrapolation error estimate.
    """

    value: float
    e2: float
    c2: float
    method: str
    residual: float

    def __post_init__(self):
        if self.method not in ("oracle", "perturbative"):
            raise ValueError("method must be 'oracle' or 'perturbative'")
        # a truncated channel can push a vanishing QFI slightly negative, but
        # never beyond its own truncation residual scale
        floor = max(1e-9, 4.0 * self.residual) if math.isfinite(self.residual) else 1e-9
        if self.value < -floor:
            raise ValueError(f"negative QFI value {self.value!r}")
        if self.method == "perturbative" and not math.isclose(
            self.value, 4.0 * (self.e2 + self.c2), rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(self.value))
        ):
            raise ValueError("perturbative QFI must equal 4 (e2 + c2)")


def c2_from_orders(sigma0: np.ndarray, sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    """Covariance contribution to the QFI from the covariance orders.

    ``(1/16) [ (Tr X)^2 - Tr X^2 + 4 Tr Y ]`` with ``X = sigma0^-1 sigma1``
    and ``Y = sigma0^-1 sigma2``. Valid for channels whose first order
    preserves purity (then ``Tr X = 0`` up to truncation); the pure quadratic
    term keeps the quoted normalization.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    if abs(np.linalg.det(sigma0)) < 1e-12:
        raise ValueError("singular zeroth-order covariance")
    x = np.linalg.solve(sigma0, np.asarray(sigma1, dtype=float))
    y = np.linalg.solve(sigma0, np.asarray(sigma2, dtype=float))
    tx = np.trace(x)
    return float((tx**2 - np.trace(x @ x) + 4.0 * np.trace(y)) / 16.0)


def _perturbative_residual(series: BogoliubovSeries, probe_modes) -> float:
    """Truncation estimate: spectator-sum tail plus the channel-identity
    defect seen by the probed modes.

    It depends on the series and the mode set only, so it is memoized on the
    series: probe families on the same modes share one evaluation.
    """
    key = tuple(probe_modes)
    memo = series._residual_memo
    if key not in memo:
        # largest term of the last spectator row, an estimate of what the
        # truncation of the spectator sums discards
        spectators = [n for n in range(series.n_max) if n + 1 not in key]
        tail = 0.0
        if spectators:
            cols = np.array(key) - 1
            tail = float(
                max(
                    0.5 * np.max(np.abs(series.alpha1[spectators[-1], cols]) ** 2),
                    0.5 * np.max(np.abs(series.beta1[spectators[-1], cols]) ** 2),
                )
            )
        _, second = series.unitarity_residuals(modes=key)
        memo[key] = max(tail, second)
    return memo[key]


def negativity_first_order(series: BogoliubovSeries, k: int, k_prime: int) -> float:
    """Entanglement (negativity) generated between two modes, per unit theta.

    At first order this is just ``|beta1_{k k'}|``. The two modes must be
    distinct and lie in ``1..n_max``.
    """
    quadrature_indices((k, k_prime), series.n_max)
    return float(abs(series.beta1[k - 1, k_prime - 1]))


def energy_budget(x: float, photons: float) -> tuple[float, float]:
    """Split a mean photon number into squeezing and displacement.

    ``sinh^2 r = x N`` and ``delta^2 = (1 - x) N``, so the total photon
    number per mode is preserved for any fraction ``x`` in [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if photons < 0.0:
        raise ValueError("photon number must be non-negative")
    r = float(np.arcsinh(np.sqrt(x * photons)))
    delta = float(np.sqrt((1.0 - x) * photons))
    return r, delta


def energy_matched_params(
    family: str, photons: float, k: int, k_prime: int, x: float = 1.0
) -> tuple[float, float]:
    """Probe parameters ``(r, delta)`` at a fixed total energy budget.

    The budget is ``E0 = N (omega_k + omega_k')`` in units of hbar. The
    two-mode families put ``N`` photons in each probe mode; the single-mode
    family concentrates the whole budget in mode ``k``, whose frequency is
    proportional to ``k``, hence the rescaled photon number.
    """
    if family == "single_squeezed_displaced":
        scaled = photons * (k + k_prime) / k
        return energy_budget(x, scaled)
    if family == "two_product_squeezed_displaced":
        return energy_budget(x, photons)
    if family == "two_mode_squeezed":
        if x != 1.0:
            raise ValueError("a two-mode squeezed probe carries no displacement; use x = 1")
        return energy_budget(1.0, photons)
    raise ValueError(f"unknown state family {family!r}")


def probe_state(family: str, r: float, delta: float) -> GaussianState:
    """Initial reduced state of the probed modes for a named family."""
    if family == "single_squeezed_displaced":
        return squeezed_displaced_state(1, 1, r, delta)
    if family == "two_product_squeezed_displaced":
        mean = np.zeros(4)
        mean[0] = mean[2] = np.sqrt(2.0) * delta
        cov = np.diag([np.exp(r), np.exp(-r), np.exp(r), np.exp(-r)])
        return GaussianState(2, mean, cov)
    if family == "two_mode_squeezed":
        if delta != 0.0:
            raise ValueError("two-mode squeezed probes carry no displacement")
        return two_mode_squeezed_state(2, 1, 2, r)
    raise ValueError(f"unknown state family {family!r}")


def qfi_perturbative(series: BogoliubovSeries, modes, state: GaussianState) -> QfiResult:
    """Leading-order QFI of a pure Gaussian probe on ``modes``.

    ``state`` lives on the probed modes (all other modes vacuum). From its
    covariance orders, ``E2 = mean1^T (2 sigma0)^-1 mean1`` and ``C2`` is the
    trace form :func:`c2_from_orders`. The trace form holds for pure probes
    only, so a mixed ``state`` (``|det Sigma - 1| > 1e-9``) is refused.
    """
    modes = tuple(modes)
    det = float(np.linalg.det(state.covariance))
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"perturbative QFI needs a pure probe state, got det Sigma = {det!r}")
    orders = covariance_series(series, modes, state)
    e2 = float(orders.mean1 @ np.linalg.solve(2.0 * orders.sigma0, orders.mean1))
    c2 = c2_from_orders(orders.sigma0, orders.sigma1, orders.sigma2)
    return QfiResult(4.0 * (e2 + c2), e2, c2, "perturbative", _perturbative_residual(series, modes))


def probe_family(series: BogoliubovSeries, modes, state: GaussianState):
    """Callable ``theta -> (reduced means, reduced covariance)`` for the oracle.

    The channel is realized as the exponential family
    ``exp(theta K1 + theta^2 K2) S0`` whose Taylor orders coincide with the
    series; the generators are projected onto the symplectic algebra, which
    only symmetrizes conjugate coefficient pairs (the projection is local in
    the 2x2 block structure), so every state along the family is exactly
    physical and the fidelity is clean down to tiny separations. ``state``
    lives on ``modes``; all other modes are vacuum.
    """
    modes = tuple(modes)
    full_input = embed_state(series.n_max, modes, state)
    idx = quadrature_indices(modes, series.n_max)
    s0, s1, s2 = series.symplectic_orders()
    omega = symplectic_form(series.n_max)
    s0_inv = s0.T  # zeroth order is a rotation on each mode
    k1 = s1 @ s0_inv
    k2 = s2 @ s0_inv - 0.5 * k1 @ k1
    # project onto the symplectic algebra: K = Omega K^T Omega for
    # generators of symplectic flows
    k1 = 0.5 * (k1 + omega @ k1.T @ omega)
    k2 = 0.5 * (k2 + omega @ k2.T @ omega)

    def family(theta: float) -> tuple[np.ndarray, np.ndarray]:
        s = expm(theta * k1 + theta**2 * k2) @ s0
        mean = (s @ full_input.first_moments)[idx]
        cov = (s @ full_input.covariance @ s.T)[np.ix_(idx, idx)]
        return mean, cov

    return family


def qfi_oracle(family, theta: float, steps=(1e-2, 1e-3, 1e-4)) -> QfiResult:
    """QFI from symmetric finite differences of the fidelity.

    ``family`` maps ``theta`` to a ``(mean, covariance)`` pair, as the
    callable from :func:`probe_family` does.

    ``H(d) = 8 (1 - sqrt(F(state(theta - d), state(theta + d)))) / (2 d)^2``
    is evaluated on the decreasing step ladder and Richardson-extrapolated to
    ``d -> 0`` (the error series is even in ``d`` because the fidelity is
    stationary at zero separation). The residual is the difference of the
    last two extrapolants.
    """
    steps = tuple(float(s) for s in steps)
    if not steps or any(s <= 0.0 for s in steps):
        raise ValueError("steps must be positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must decrease")

    # Families built from truncated series can be marginally unphysical (a
    # symplectic eigenvalue below 1 by the cubic truncation defect), which
    # turns the fidelity at small separations into noise. A tiny isotropic
    # noise floor, fixed once at the base point so it cannot introduce any
    # step dependence, restores physicality; it vanishes for exact channels.
    _, base_cov = family(theta)
    dim = base_cov.shape[0]
    if dim not in (2, 4):
        raise ValueError("oracle supports one- and two-mode families only")
    omega = symplectic_form(dim // 2)
    min_eig = float(np.min(np.linalg.eigvalsh(base_cov + 1j * omega)))
    noise_floor = 3.0 * max(0.0, -min_eig)
    fid = fidelity_one_mode if dim == 2 else fidelity_two_mode
    bump = noise_floor * np.eye(dim)

    def h_of(d: float) -> float:
        mean_a, cov_a = family(theta - d)
        mean_b, cov_b = family(theta + d)
        f = fid(cov_a + bump, cov_b + bump, mean_b - mean_a)
        return 8.0 * (1.0 - np.sqrt(f)) / (2.0 * d) ** 2

    tableau = [[h_of(steps[0])]]
    for i in range(1, len(steps)):
        row = [h_of(steps[i])]
        for j in range(1, i + 1):
            ratio = (steps[i - j] / steps[i]) ** 2
            row.append(row[j - 1] + (row[j - 1] - tableau[i - 1][j - 1]) / (ratio - 1.0))
        tableau.append(row)
    value = tableau[-1][-1]
    residual = abs(tableau[-1][-1] - tableau[-1][-2]) if len(steps) > 1 else math.inf
    return QfiResult(max(value, 0.0), math.nan, math.nan, "oracle", residual)
