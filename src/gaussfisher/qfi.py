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

Probe families are data: a named family is a row of :data:`FAMILIES`, and
its probe just a :class:`GaussianState` from :func:`probe_state` plus its
modes. The oracle evaluates any list of such probes on one channel
together: its whole step ladder in one matrix exponential call, and each
probe on its own rows of the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bogoliubov import BogoliubovSeries, covariance_series
from .fidelity import fidelity_one_mode, fidelity_two_mode
from .states import GaussianState, quadrature_indices, symplectic_form

#: the named probe families, in sweep row order: each family's number of
#: probed modes, and whether it carries displacement
FAMILIES = {
    "single_squeezed_displaced": (1, True),
    "two_product_squeezed_displaced": (2, True),
    "two_mode_squeezed": (2, False),
}


@dataclass(frozen=True)
class QfiResult:
    """QFI value with its displacement and covariance contributions.

    For ``method="perturbative"`` the value is exactly ``4 (e2 + c2)`` and
    ``residual`` reports the mode-truncation tail estimate; for
    ``method="oracle"`` the split is not available (NaN) and ``residual`` is
    the extrapolation error estimate. The numbers are floats for one channel
    and arrays of the stack's shape for a stack of channels; every entry is
    checked.
    """

    value: float | np.ndarray
    e2: float | np.ndarray
    c2: float | np.ndarray
    method: str
    residual: float | np.ndarray

    def __post_init__(self):
        if self.method not in ("oracle", "perturbative"):
            raise ValueError("method must be 'oracle' or 'perturbative'")
        for name in ("value", "e2", "c2", "residual"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, float(v) if v.ndim == 0 else v)
        value = np.asarray(self.value)
        # a truncated channel can push a vanishing QFI slightly negative, but
        # never beyond its own truncation residual scale
        residual = np.asarray(self.residual)
        floor = np.where(np.isfinite(residual), np.maximum(1e-9, 4.0 * residual), 1e-9)
        negative = value < -floor
        if np.any(negative):
            raise ValueError(f"negative QFI value {float(value[negative].flat[0])!r}")
        if self.method == "perturbative" and not np.all(
            np.abs(value - 4.0 * (np.asarray(self.e2) + self.c2)) <= 1e-12 * np.maximum(1.0, np.abs(value))
        ):
            raise ValueError("perturbative QFI must equal 4 (e2 + c2)")


def c2_from_orders(sigma0: np.ndarray, sigma1: np.ndarray, sigma2: np.ndarray):
    """Covariance contribution to the QFI from the covariance orders.

    ``(1/16) [ (Tr X)^2 - Tr X^2 + 4 Tr Y ]`` with ``X = sigma0^-1 sigma1``
    and ``Y = sigma0^-1 sigma2``. Valid for channels whose first order
    preserves purity (then ``Tr X = 0`` up to truncation); the pure quadratic
    term keeps the quoted normalization. Leading axes are a stack of order
    sets: ``(..., d, d)`` matrices give one value per stack entry, and a
    singular ``sigma0`` anywhere in the stack raises ``ValueError``.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    if np.any(np.abs(np.linalg.det(sigma0)) < 1e-12):
        raise ValueError("singular zeroth-order covariance")
    x = np.linalg.solve(sigma0, np.asarray(sigma1, dtype=float))
    y = np.linalg.solve(sigma0, np.asarray(sigma2, dtype=float))

    def trace(mat: np.ndarray):
        return mat.trace(axis1=-2, axis2=-1)

    tx = trace(x)
    return (tx**2 - trace(x @ x) + 4.0 * trace(y)) / 16.0


def perturbative_rows(modes, n_max: int) -> tuple:
    """Output modes whose block rows :func:`qfi_perturbative` reads for a
    probe on ``modes``: the probed modes, then the last spectator (the
    highest mode outside them) when there is one."""
    modes = tuple(modes)
    spectators = [n for n in range(1, n_max + 1) if n not in modes]
    return modes + tuple(spectators[-1:])


def _perturbative_residual(series: BogoliubovSeries, probe_modes):
    """Truncation estimate: spectator-sum tail plus the channel-identity
    defect seen by the probed modes, per channel of the stack."""
    modes = tuple(probe_modes)
    # largest term of the last spectator row, an estimate of what the
    # truncation of the spectator sums discards
    spectator = perturbative_rows(modes, series.n_max)[len(modes):]
    tail = 0.0
    if spectator:
        (row,) = series.row_positions(spectator)
        cols = np.array(modes) - 1
        tail = np.maximum(
            0.5 * np.max(np.abs(series.alpha1[..., row, cols]) ** 2, axis=-1),
            0.5 * np.max(np.abs(series.beta1[..., row, cols]) ** 2, axis=-1),
        )
    _, second = series.unitarity_residuals(modes=modes)
    return np.maximum(tail, second)


def negativity_first_order(series: BogoliubovSeries, k: int, k_prime: int):
    """Entanglement (negativity) generated between two modes, per unit theta.

    At first order this is just ``|beta1_{k k'}|``, one value per channel of
    a stack. The two modes must be distinct and lie in ``1..n_max``.
    """
    quadrature_indices((k, k_prime), series.n_max)
    (row,) = series.row_positions((k,))
    return np.abs(series.beta1[..., row, k_prime - 1])


def _family(family: str) -> tuple[int, bool]:
    """``(n_modes, displaced)`` of a named family, from :data:`FAMILIES`."""
    if family not in FAMILIES:
        raise ValueError(f"unknown state family {family!r}")
    return FAMILIES[family]


def energy_matched_params(
    family: str, photons: float, k: int, k_prime: int, x: float = 1.0
) -> tuple[float, float]:
    """Probe parameters ``(r, delta)`` at a fixed total energy budget.

    The budget is ``E0 = N (omega_k + omega_k')`` in units of hbar. The
    two-mode families put ``N`` photons in each probe mode; the single-mode
    family concentrates the whole budget in mode ``k``, whose frequency is
    proportional to ``k``, hence the rescaled photon number ``N_f``. That is
    split into squeezing, ``sinh^2 r = x N_f``, and displacement,
    ``delta^2 = (1 - x) N_f``, for a fraction ``x`` in [0, 1]; a family
    without displacement takes ``x = 1`` only.
    """
    n_modes, displaced = _family(family)
    if not displaced and x != 1.0:
        raise ValueError("a two-mode squeezed probe carries no displacement; use x = 1")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if n_modes == 1:
        photons = photons * (k + k_prime) / k
    if photons < 0.0:
        raise ValueError("photon number must be non-negative")
    return float(np.arcsinh(np.sqrt(x * photons))), float(np.sqrt((1.0 - x) * photons))


def probe_state(family: str, r: float, delta: float) -> GaussianState:
    """Initial reduced state of the probed modes for a named family.

    A displaced family puts ``diag(e^r, e^-r)`` and first moments
    ``(sqrt(2) delta, 0)`` on each of its modes: the product probe is the
    single-mode probe on two modes. The two-mode squeezed vacuum has
    diagonal blocks ``cosh(r) I`` and cross blocks ``sinh(r) diag(1, -1)``.
    """
    n_modes, displaced = _family(family)
    if displaced:
        mean = np.tile([np.sqrt(2.0) * delta, 0.0], n_modes)
        return GaussianState(n_modes, mean, np.diag(np.tile([np.exp(r), np.exp(-r)], n_modes)))
    if delta != 0.0:
        raise ValueError("two-mode squeezed probes carry no displacement")
    diagonal, cross = np.cosh(r) * np.eye(2), np.sinh(r) * np.diag([1.0, -1.0])
    return GaussianState(2, np.zeros(4), np.block([[diagonal, cross], [cross, diagonal]]))


def qfi_perturbative(series: BogoliubovSeries, modes, state: GaussianState) -> QfiResult:
    """Leading-order QFI of a pure Gaussian probe on ``modes``.

    ``state`` lives on the probed modes (all other modes vacuum). From its
    covariance orders, ``E2 = mean1^T (2 sigma0)^-1 mean1`` and ``C2`` is the
    trace form :func:`c2_from_orders`. The trace form holds for pure probes
    only, so a mixed ``state`` (``|det Sigma - 1| > 1e-9``) is refused.

    ``series`` is one channel, or a stack of channels storing at least the
    rows :func:`perturbative_rows` names; a stack gives a :class:`QfiResult`
    of arrays with the stack's shape from one pass of the kernel, so a
    whole grid costs one call per probe.
    """
    modes = tuple(modes)
    det = float(np.linalg.det(state.covariance))
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"perturbative QFI needs a pure probe state, got det Sigma = {det!r}")
    orders = covariance_series(series, modes, state)
    solved = np.linalg.solve(2.0 * orders.sigma0, orders.mean1[..., None])[..., 0]
    e2 = np.sum(orders.mean1 * solved, axis=-1)
    c2 = c2_from_orders(orders.sigma0, orders.sigma1, orders.sigma2)
    return QfiResult(4.0 * (e2 + c2), e2, c2, "perturbative", _perturbative_residual(series, modes))


def probe_family(series: BogoliubovSeries, probes):
    """Callable ``thetas -> [[(reduced means, reduced covariance), ...], ...]``
    for the oracle: for each theta of the sequence, one pair per
    ``(modes, state)`` entry of ``probes``, in order.

    The channel is realized as the exponential family
    ``S(theta) = exp(theta K1 + theta^2 K2) S0`` whose Taylor orders coincide
    with the series; the generators are projected onto the symplectic
    algebra, which only symmetrizes conjugate coefficient pairs (the
    projection is local in the 2x2 block structure), so every state along the
    family is exactly physical. ``S(theta)`` depends on the channel only, so
    each call exponentiates the generators of all its theta values in one
    ``expm`` call on their stack (scipy runs the same routine on each matrix
    as for a single one), and every probe reads each ``S``.

    A probe reads only its own rows: its mean is ``S[idx] mu_in`` and its
    covariance the ``idx`` columns of ``(S[idx] Sigma_in) S^T``. These give
    the same bits as the full ``S Sigma_in S^T``, at a fixed BLAS build and
    thread count. The oracle's finite differences amplify roundoff far
    beyond their residual, so the products keep exactly this form:
    restricting the columns as well, ``S[idx] Sigma_in S[idx]^T``, moves
    ``qfi_oracle`` by up to 1.7e-2 relative at ``n_max`` 60, where its
    residual is 3.1e-6. Each ``state`` lives on its ``modes`` and every
    other mode is vacuum, so the embedded state is physical because the
    probe is.
    """
    dim = 2 * series.n_max
    probed = [(quadrature_indices(modes, series.n_max), state) for modes, state in probes]
    if any(2 * state.n_modes != idx.size for idx, state in probed):
        raise ValueError("state size must match the number of target modes")
    s0, s1, s2 = series.symplectic_orders()
    s0_inv = s0.T  # zeroth order is a rotation on each mode
    k1 = s1 @ s0_inv
    k2 = s2 @ s0_inv - 0.5 * k1 @ k1
    # project onto the symplectic algebra: K = Omega K^T Omega for generators
    # of symplectic flows. Omega swaps x and p on each mode with one sign
    # flip, so Omega K^T Omega is K^T permuted, with the entries whose row
    # and column share a parity negated: exactly what the products give.
    swap = np.arange(dim) ^ 1
    sign = np.where(np.add.outer(swap, swap) % 2, 1.0, -1.0)
    k1 = 0.5 * (k1 + sign * k1.T[np.ix_(swap, swap)])
    k2 = 0.5 * (k2 + sign * k2.T[np.ix_(swap, swap)])

    def family(thetas) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        generators = np.empty((len(thetas), dim, dim))
        for generator, t in zip(generators, thetas):
            generator[...] = t * k1 + t**2 * k2
        flows = expm(generators)
        # the probes' full-size moments are formed once the generator stack is
        # freed, so that the peak memory holds only two stacks
        del generators
        inputs = []
        for idx, state in probed:
            mean, cov = np.zeros(dim), np.eye(dim)
            mean[idx] = state.first_moments
            cov[np.ix_(idx, idx)] = state.covariance
            inputs.append((idx, mean, cov))
        out = []
        for flow in flows:
            s = flow @ s0
            s_t = np.ascontiguousarray(s.T)
            out.append([(s[idx] @ mean, ((s[idx] @ cov) @ s_t)[:, idx]) for idx, mean, cov in inputs])
        return out

    return family


def qfi_oracle(family, theta: float, steps=(1e-2, 1e-3, 1e-4)) -> list[QfiResult]:
    """QFI from symmetric finite differences of the fidelity, one
    :class:`QfiResult` per probe.

    ``family`` maps a sequence of theta values to one list of
    ``(mean, covariance)`` pairs per theta, one pair per probe, as the
    callable from :func:`probe_family` does; it is called once, on the base
    point followed by each step's pair ``theta - d, theta + d``, and the
    results follow its probe order.

    ``H(d) = 8 (1 - sqrt(F(state(theta - d), state(theta + d)))) / (2 d)^2``
    is evaluated on the decreasing step ladder and Richardson-extrapolated to
    ``d -> 0`` (the error series is even in ``d`` because the fidelity is
    stationary at zero separation), separately for each probe. The residual
    is the difference of the last two extrapolants.
    """
    steps = tuple(float(s) for s in steps)
    if not steps or any(s <= 0.0 for s in steps):
        raise ValueError("steps must be positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must decrease")
    base, *shifted = family([theta] + [t for d in steps for t in (theta - d, theta + d)])

    # Families built from truncated series can be marginally unphysical (a
    # symplectic eigenvalue below 1 by the cubic truncation defect), which
    # turns the fidelity at small separations into noise. A tiny isotropic
    # noise floor per probe, fixed once at the base point so it cannot
    # introduce any step dependence, restores physicality; it vanishes for
    # exact channels.
    per_probe = []
    for _, base_cov in base:
        dim = base_cov.shape[0]
        if dim not in (2, 4):
            raise ValueError("oracle supports one- and two-mode families only")
        omega = symplectic_form(dim // 2)
        min_eig = float(np.min(np.linalg.eigvalsh(base_cov + 1j * omega)))
        noise_floor = 3.0 * max(0.0, -min_eig)
        fid = fidelity_one_mode if dim == 2 else fidelity_two_mode
        per_probe.append((fid, noise_floor * np.eye(dim)))

    def h_of(d: float, minus, plus) -> list[float]:
        return [
            8.0 * (1.0 - np.sqrt(fid(cov_a + bump, cov_b + bump, mean_b - mean_a))) / (2.0 * d) ** 2
            for (fid, bump), (mean_a, cov_a), (mean_b, cov_b) in zip(per_probe, minus, plus)
        ]

    results = []
    for ladder in zip(*map(h_of, steps, shifted[::2], shifted[1::2])):
        tableau = [[ladder[0]]]
        for i in range(1, len(steps)):
            row = [ladder[i]]
            for j in range(1, i + 1):
                ratio = (steps[i - j] / steps[i]) ** 2
                row.append(row[j - 1] + (row[j - 1] - tableau[i - 1][j - 1]) / (ratio - 1.0))
            tableau.append(row)
        residual = abs(tableau[-1][-1] - tableau[-1][-2]) if len(steps) > 1 else math.inf
        results.append(QfiResult(max(tableau[-1][-1], 0.0), math.nan, math.nan, "oracle", residual))
    return results
