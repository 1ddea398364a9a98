"""Quantum Fisher information for Gaussian states under a parametrized
Bogoliubov channel.

Two routes are provided and cross-validated:

* an exact oracle: symmetric finite differences of the Uhlmann fidelity,
  Richardson-extrapolated in the step size;
* perturbative closed forms at leading order in the channel parameter,
  split into a first-moment part ``E2`` and a covariance part ``C2`` with
  ``H = 4 (E2 + C2)``.

The perturbative covariance part is evaluated through the order-by-order
reduced covariance (trace form); explicit coefficient expressions quoted in
the literature are kept as secondary cross-check paths because several of
them carry transcription ambiguities. Disagreements are surfaced, never
silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bogoliubov import (
    BogoliubovSeries,
    covariance_series,
    symplectic_from_bogoliubov,
)
from .fidelity import fidelity_one_mode, fidelity_two_mode
from .states import (
    GaussianState,
    embed_state,
    squeezed_displaced_state,
    symplectic_form,
    two_mode_squeezed_state,
)

#: the two perturbative covariance paths must agree this well or be flagged
PATH_AGREEMENT_TOL = 1e-9


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


@dataclass(frozen=True)
class FSums:
    """Quadratic sums of first-order coefficients over spectator modes.

    ``f_alpha[i] = 1/2 sum_n |alpha1_{n, i}|^2`` and likewise for ``beta``,
    with ``n`` running over 1..n_max outside the exclusion set and ``i`` over
    the probe modes (column index). ``g_alpha_beta[i, j] = sum_n alpha1_{n, i}
    conj(beta1_{n, j})``. ``tail`` is the magnitude of the largest last-row
    term, an estimate of what the truncation discards.
    """

    probe_modes: tuple
    exclusion: tuple
    f_alpha: np.ndarray
    f_beta: np.ndarray
    g_alpha_beta: np.ndarray
    tail: float


def f_sums(series: BogoliubovSeries, exclusion, probe_modes) -> FSums:
    """Spectator-mode sums entering the coefficient-form QFI expressions."""
    exclusion = tuple(sorted(set(int(m) for m in exclusion)))
    probe_modes = tuple(int(m) for m in probe_modes)
    for m in exclusion:
        if not 1 <= m <= series.n_max:
            raise ValueError(f"excluded mode {m} out of range 1..{series.n_max}")
    rows = np.array([n for n in range(1, series.n_max + 1) if n not in exclusion], dtype=int) - 1
    cols = np.array(probe_modes, dtype=int) - 1
    a = series.alpha1[np.ix_(rows, cols)] if rows.size else np.zeros((0, cols.size))
    b = series.beta1[np.ix_(rows, cols)] if rows.size else np.zeros((0, cols.size))
    f_alpha = 0.5 * np.sum(np.abs(a) ** 2, axis=0)
    f_beta = 0.5 * np.sum(np.abs(b) ** 2, axis=0)
    # G^{alpha beta}_{ij} = sum_n alpha1_{ni} conj(beta1_{nj})
    g = a.T @ np.conj(b) if rows.size else np.zeros((cols.size, cols.size), dtype=complex)
    tail = 0.0
    if rows.size:
        tail = float(
            max(
                0.5 * np.max(np.abs(a[-1, :]) ** 2),
                0.5 * np.max(np.abs(b[-1, :]) ** 2),
            )
        )
    return FSums(probe_modes, exclusion, f_alpha, f_beta, g, tail)


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


def c2_two_mode_general(sigma0: np.ndarray, sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    """Master two-mode covariance contribution (4x4 covariance orders)."""
    if np.asarray(sigma0).shape != (4, 4):
        raise ValueError("two-mode path expects 4x4 matrices")
    return c2_from_orders(sigma0, sigma1, sigma2)


def _single_mode_orders(series: BogoliubovSeries, k: int, r: float, delta: float = 0.0):
    state = squeezed_displaced_state(1, 1, r, delta)
    return covariance_series(series, (k,), state)


def c2_single_mode(series: BogoliubovSeries, k: int, r: float) -> float:
    """Covariance contribution for a single squeezed probe mode.

    Evaluated through the covariance orders and, independently, through the
    explicit coefficient expression; a mismatch beyond ``PATH_AGREEMENT_TOL``
    is raised, since it indicates either a non-unitary channel series or a
    transcription bug.
    """
    orders = _single_mode_orders(series, k, r)
    master = c2_from_orders(orders.sigma0, orders.sigma1, orders.sigma2)
    explicit = _c2_single_mode_explicit(series, k, r)
    if abs(master - explicit) > PATH_AGREEMENT_TOL * max(1.0, abs(master)):
        raise ValueError(
            f"single-mode covariance paths disagree: trace form {master!r}, "
            f"coefficient form {explicit!r}"
        )
    return master


def _c2_single_mode_explicit(series: BogoliubovSeries, k: int, r: float) -> float:
    """Coefficient-form single-mode covariance contribution.

    Derived by expanding the reduced covariance block sums; agrees with the
    trace form identically for unitarity-respecting series.
    """
    i = k - 1
    g = series.G[i]
    at = np.conj(g) * series.alpha1[i, i]
    bt = np.conj(g) * series.beta1[i, i]
    n11, n22 = (at - bt).real, (at + bt).real
    n12, n21 = (at + bt).imag, -(at - bt).imag
    term12 = 4.0 * (np.conj(g) * series.alpha2[i, i]).real
    term3 = (
        2.0 * at.real**2
        + 2.0 * bt.real**2
        + 2.0 * np.cosh(2 * r) * (at.imag**2 + bt.imag**2)
        - 4.0 * np.sinh(2 * r) * at.imag * bt.imag
    )
    spectators = np.arange(series.n_max) != i
    a1, b1 = series.alpha1[i, spectators], series.beta1[i, spectators]
    term4 = 2.0 * np.cosh(r) * np.sum(np.abs(a1) ** 2 + np.abs(b1) ** 2)
    term4 += 4.0 * np.sinh(r) * np.sum((np.conj(g) ** 2 * a1 * b1).real)
    det_sigma1 = 4.0 * n11 * n22 - (n12 * np.exp(-r) + n21 * np.exp(r)) ** 2
    delta2 = term12 + term3 + term4 + 0.5 * det_sigma1
    return float(delta2 / 4.0)


def e2_single_mode(series: BogoliubovSeries, k: int, r: float, delta: float) -> float:
    """First-moment contribution for a single squeezed displaced probe mode.

    ``delta^2 (|w|^2 cosh r - Re[w^2 conj(G_k)^2] sinh r)`` with
    ``w = alpha1_kk - beta1_kk``; this is the quadratic form
    ``<X>^(1)T (2 sigma^(0))^-1 <X>^(1)`` written out. The literature
    variant (see :func:`e2_single_mode_literature`) carries an extra factor
    of two and the opposite squeezing sign; the finite-difference oracle
    singles out this normalization.
    """
    i = k - 1
    w = series.alpha1[i, i] - series.beta1[i, i]
    g = series.G[i]
    return float(
        delta**2
        * ((abs(w) ** 2) * np.cosh(r) - (w**2 * np.conj(g) ** 2).real * np.sinh(r))
    )


def e2_two_mode(series: BogoliubovSeries, k: int, k_prime: int, r: float, delta: float) -> float:
    """First-moment contribution for two displaced squeezed product modes.

    Uses the full response amplitudes
    ``A_ij = alpha1_ii + alpha1_ij - beta1_ii - beta1_ij`` (diagonal
    first-order terms included; they vanish for the cavity channel).
    """
    if k == k_prime:
        raise ValueError("probe modes must be distinct")
    total = 0.0
    for i, j in ((k, k_prime), (k_prime, k)):
        a = (
            series.alpha1[i - 1, i - 1]
            + series.alpha1[i - 1, j - 1]
            - series.beta1[i - 1, i - 1]
            - series.beta1[i - 1, j - 1]
        )
        g = series.G[i - 1]
        total += (abs(a) ** 2) * np.cosh(r) - (a**2 * np.conj(g) ** 2).real * np.sinh(r)
    return float(delta**2 * total)


def c2_two_mode_product(series: BogoliubovSeries, k: int, k_prime: int, r: float) -> float:
    """Covariance contribution for two equally squeezed product probe modes."""
    if k == k_prime:
        raise ValueError("probe modes must be distinct")
    state = GaussianState(
        2,
        np.zeros(4),
        np.diag([np.exp(r), np.exp(-r), np.exp(r), np.exp(-r)]),
    )
    orders = covariance_series(series, (k, k_prime), state)
    return c2_two_mode_general(orders.sigma0, orders.sigma1, orders.sigma2)


def _perturbative_residual(series: BogoliubovSeries, probe_modes) -> float:
    """Truncation estimate: spectator-sum tail plus the channel-identity
    defect seen by the probed modes.

    It depends on the series and the mode set only, so it is memoized on the
    series: probe families on the same modes share one evaluation.
    """
    key = tuple(probe_modes)
    memo = series._residual_memo
    if key not in memo:
        tail = f_sums(series, key, key).tail
        _, second = series.unitarity_residuals(modes=key)
        memo[key] = max(tail, second)
    return memo[key]


def qfi_single_mode(series: BogoliubovSeries, k: int, r: float, delta: float) -> QfiResult:
    """Perturbative QFI for a single squeezed displaced probe mode."""
    e2 = e2_single_mode(series, k, r, delta)
    c2 = c2_single_mode(series, k, r)
    return QfiResult(4.0 * (e2 + c2), e2, c2, "perturbative", _perturbative_residual(series, (k,)))


def qfi_two_mode_product(
    series: BogoliubovSeries, k: int, k_prime: int, r: float, delta: float
) -> QfiResult:
    """Perturbative QFI for two displaced squeezed product probe modes."""
    e2 = e2_two_mode(series, k, k_prime, r, delta)
    c2 = c2_two_mode_product(series, k, k_prime, r)
    return QfiResult(4.0 * (e2 + c2), e2, c2, "perturbative", _perturbative_residual(series, (k, k_prime)))


def qfi_two_mode_squeezed(series: BogoliubovSeries, k: int, k_prime: int, r: float) -> QfiResult:
    """Perturbative QFI for a two-mode squeezed probe.

    The state has zero first moments, so the displacement part vanishes
    identically and the value is ``4 c2`` from the master covariance path.
    """
    if k == k_prime:
        raise ValueError("probe modes must be distinct")
    state = two_mode_squeezed_state(2, 1, 2, r)
    orders = covariance_series(series, (k, k_prime), state)
    c2 = c2_two_mode_general(orders.sigma0, orders.sigma1, orders.sigma2)
    return QfiResult(4.0 * c2, 0.0, c2, "perturbative", _perturbative_residual(series, (k, k_prime)))


def negativity_first_order(series: BogoliubovSeries, k: int, k_prime: int) -> float:
    """Entanglement (negativity) generated between two modes, per unit theta.

    At first order this is just ``|beta1_{k k'}|``.
    """
    if k == k_prime:
        raise ValueError("modes must be distinct")
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


def qfi_perturbative(
    series: BogoliubovSeries, family: str, modes, r: float, delta: float
) -> QfiResult:
    """Dispatch the perturbative QFI for a named probe family."""
    if family == "single_squeezed_displaced":
        return qfi_single_mode(series, modes[0], r, delta)
    if family == "two_product_squeezed_displaced":
        return qfi_two_mode_product(series, modes[0], modes[1], r, delta)
    if family == "two_mode_squeezed":
        if delta != 0.0:
            raise ValueError("two-mode squeezed probes carry no displacement")
        return qfi_two_mode_squeezed(series, modes[0], modes[1], r)
    raise ValueError(f"unknown state family {family!r}")


def channel_family(series: BogoliubovSeries, modes, input_state: GaussianState, exact: bool = True):
    """Callable ``theta -> (reduced means, reduced covariance)`` for the oracle.

    With ``exact=True`` (default) the channel is realized as the exponential
    family ``exp(theta K1 + theta^2 K2) S0`` whose Taylor orders coincide
    with the series; the generators are projected onto the symplectic
    algebra, which only symmetrizes conjugate coefficient pairs (the
    projection is local in the 2x2 block structure), so every state along
    the family is exactly physical and the fidelity is clean down to tiny
    separations. With ``exact=False`` the truncated series is evaluated as
    is; its cubic non-symplectic defect can push a nearly pure reduced state
    marginally outside the physical cone, which limits how small the
    differencing step may be.
    """
    modes = tuple(modes)
    full_input = embed_state(series.n_max, modes, input_state)
    idx = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes]).astype(int)
    s0, s1, s2 = series.symplectic_orders()
    if exact:
        omega = symplectic_form(series.n_max)
        s0_inv = s0.T  # zeroth order is a rotation on each mode
        k1 = s1 @ s0_inv
        k2 = s2 @ s0_inv - 0.5 * k1 @ k1
        # project onto the symplectic algebra: K = Omega K^T Omega for
        # generators of symplectic flows
        k1 = 0.5 * (k1 + omega @ k1.T @ omega)
        k2 = 0.5 * (k2 + omega @ k2.T @ omega)

        def transformation(theta: float) -> np.ndarray:
            return expm(theta * k1 + theta**2 * k2) @ s0

    else:

        def transformation(theta: float) -> np.ndarray:
            return symplectic_from_bogoliubov(series.evaluate(theta)).matrix

    def family(theta: float) -> tuple[np.ndarray, np.ndarray]:
        s = transformation(theta)
        mean = (s @ full_input.first_moments)[idx]
        cov = (s @ full_input.covariance @ s.T)[np.ix_(idx, idx)]
        return mean, cov

    return family


def probe_family(series: BogoliubovSeries, family: str, modes, r: float, delta: float):
    """Oracle state family for a named probe family."""
    return channel_family(series, modes, probe_state(family, r, delta))


def qfi_oracle(family, theta: float, steps=(1e-2, 1e-3, 1e-4), residual_bound: float | None = None) -> QfiResult:
    """QFI from symmetric finite differences of the fidelity.

    ``H(d) = 8 (1 - sqrt(F(state(theta - d), state(theta + d)))) / (2 d)^2``
    is evaluated on the decreasing step ladder and Richardson-extrapolated to
    ``d -> 0`` (the error series is even in ``d`` because the fidelity is
    stationary at zero separation). The residual is the difference of the
    last two extrapolants; if ``residual_bound`` is given, non-convergence
    raises.
    """
    steps = tuple(float(s) for s in steps)
    if not steps or any(s <= 0.0 for s in steps):
        raise ValueError("steps must be positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must decrease")

    def as_mean_cov(state) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(state, GaussianState):
            return state.first_moments, state.covariance
        mean, cov = state
        return np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)

    # Families built from truncated series can be marginally unphysical (a
    # symplectic eigenvalue below 1 by the cubic truncation defect), which
    # turns the fidelity at small separations into noise. A tiny isotropic
    # noise floor, fixed once at the base point so it cannot introduce any
    # step dependence, restores physicality; it vanishes for exact channels.
    base_mean, base_cov = as_mean_cov(family(theta))
    dim = base_cov.shape[0]
    if dim not in (2, 4):
        raise ValueError("oracle supports one- and two-mode families only")
    omega = symplectic_form(dim // 2)
    min_eig = float(np.min(np.linalg.eigvalsh(base_cov + 1j * omega)))
    noise_floor = 3.0 * max(0.0, -min_eig)
    fid = fidelity_one_mode if dim == 2 else fidelity_two_mode
    bump = noise_floor * np.eye(dim)

    def h_of(d: float) -> float:
        mean_a, cov_a = as_mean_cov(family(theta - d))
        mean_b, cov_b = as_mean_cov(family(theta + d))
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
    if residual_bound is not None and residual > residual_bound:
        raise ValueError(
            f"oracle did not converge: residual {residual:.3e} above {residual_bound:.3e}"
        )
    return QfiResult(max(value, 0.0), math.nan, math.nan, "oracle", residual)


# ---------------------------------------------------------------------------
# Coefficient expressions as quoted in the literature. These are kept verbatim
# as cross-check paths; the validated routes above are the trace form and the
# first-moment quadratic form. Measured relationships are documented in the
# test suite rather than patched silently.
# ---------------------------------------------------------------------------


def e2_single_mode_literature(series: BogoliubovSeries, k: int, r: float, delta: float) -> float:
    """Quoted form ``2 delta^2 (|w|^2 cosh r + Re[w^2 conj(G_k)^2] sinh r)``."""
    i = k - 1
    w = series.alpha1[i, i] - series.beta1[i, i]
    g = series.G[i]
    return float(
        2.0
        * delta**2
        * ((abs(w) ** 2) * np.cosh(r) + (w**2 * np.conj(g) ** 2).real * np.sinh(r))
    )


def e2_two_mode_literature(
    series: BogoliubovSeries, k: int, k_prime: int, r: float, delta: float
) -> float:
    """Quoted two-mode form with ``cos/sin(2 phi)`` weights and ``|A|^2`` terms."""
    total = 0.0
    for i, j in ((k, k_prime), (k_prime, k)):
        a = (
            series.alpha1[i - 1, i - 1]
            + series.alpha1[i - 1, j - 1]
            - series.beta1[i - 1, i - 1]
            - series.beta1[i - 1, j - 1]
        )
        phi = np.angle(series.G[i - 1])
        total += np.cosh(r) * abs(a) ** 2
        total += np.sinh(r) * (np.cos(2 * phi) * abs(a) ** 2 + np.sin(2 * phi) * (a**2).imag)
    return float(2.0 * delta**2 * total)


def c2_single_mode_literature(
    series: BogoliubovSeries, k: int, r: float, exclusion=None
) -> float:
    """Quoted coefficient form of the single-mode covariance contribution.

    The source expression carries an unbalanced bracket; this transcription
    takes the reading in which the final parenthesized group multiplies
    ``sinh^2 r``. Kept for comparison only.
    """
    i = k - 1
    exclusion = (k,) if exclusion is None else tuple(exclusion)
    sums = f_sums(series, exclusion, (k,))
    fa, fb = float(sums.f_alpha[0]), float(sums.f_beta[0])
    cross = 0.0
    for n in range(series.n_max):
        if (n + 1) in exclusion:
            continue
        cross += (series.alpha1[n, i] * np.conj(series.beta1[n, i])).real
    a_kk = series.alpha1[i, i]
    b_kk = series.beta1[i, i]
    phi = np.angle(series.G[i])
    inner = (
        abs(b_kk) ** 2 * np.sin(phi) ** 2
        + 0.5 * b_kk.imag * b_kk.real * np.sin(2 * phi)
        - (a_kk**2).real * np.cos(2 * phi)
    )
    return float(
        (fa + fb) * np.cosh(r)
        - cross * np.sinh(r)
        - 0.25
        * (
            (a_kk * np.conj(b_kk)).real * np.sinh(2 * r)
            + abs(a_kk) ** 2 * np.cosh(r) ** 2
            + 0.5 * inner
        )
        * np.sinh(r) ** 2
    )


def c2_two_mode_product_literature(
    series: BogoliubovSeries, k: int, k_prime: int, r: float
) -> float:
    """Quoted coefficient form of the product-probe covariance contribution,
    in the variant specialized to channels with vanishing diagonal
    first-order coefficients. Kept for comparison only."""
    i, j = k - 1, k_prime - 1
    sums = f_sums(series, (k, k_prime), (k, k_prime))
    fa_k, fa_kp = sums.f_alpha
    fb_k, fb_kp = sums.f_beta
    g_k, g_kp = series.G[i], series.G[j]
    a_kkp = series.alpha1[i, j]
    a_kpk = series.alpha1[j, i]
    b_kkp = series.beta1[i, j]
    b_kpk = series.beta1[j, i]
    a2_kk = series.alpha2[i, i]
    a2_kpkp = series.alpha2[j, j]
    g_ab = sums.g_alpha_beta
    ch, sh = np.cosh(r), np.sinh(r)
    total = (
        4.0 * ch * (fa_k + fb_k + fa_kp + fb_kp)
        - 4.0 * ch**4 * abs(b_kkp) ** 2
        + 4.0 * ch**2 * (2.0 * abs(b_kkp) ** 2 + fb_k - fa_k + fb_kp - fa_kp)
        - 4.0
        * sh**2
        * (
            np.conj(g_kp) ** 2 * a_kkp**2
            + g_kp**2 * b_kkp**2
            + np.conj(g_k) * a2_kk
            + np.conj(g_kp) * a2_kpkp
        )
        - 4.0 * np.sinh(2 * r) * (a_kkp * b_kkp + a_kpk * b_kpk)
        + 4.0 * sh * (np.conj(g_k) ** 2 * g_ab[0, 0] + np.conj(g_kp) ** 2 * g_ab[1, 1])
        + 4.0 * np.sinh(2 * r) * ch**2 * (a_kkp * b_kkp + a_kpk * b_kpk)
        + 2.0
        * sh**4
        * (
            abs(a_kkp) ** 2
            - abs(b_kkp) ** 2
            - np.conj(g_kp) ** 2 * a_kkp**2
            - g_kp**2 * b_kkp**2
        )
        - 0.5
        * np.sinh(2 * r) ** 2
        * (
            abs(a_kkp) ** 2
            - 3.0 * abs(b_kkp) ** 2
            - np.conj(g_kp) ** 2 * a_kkp**2
            - g_kp**2 * b_kkp**2
        )
    )
    return float(total.real / 4.0)
