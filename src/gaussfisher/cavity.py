"""Bogoliubov series for a Dirichlet cavity that rides one uniform-acceleration
segment between two inertial phases.

The channel is assembled from first principles in three steps:

1. :func:`rindler_overlaps` computes the inertial-to-accelerated mode
   overlaps at finite ``h = a L / c^2`` by Gauss-Legendre quadrature of the
   Klein-Gordon inner product on the shared ``t = 0`` slice;
2. :func:`perturbative_overlaps` extracts their first- and second-order
   coefficients by polynomial fits over a ladder of small ``h`` values;
3. :func:`compose_one_segment` chains "enter the accelerated frame, accrue
   mode phases for a proper duration, return to the inertial frame" into a
   single series in ``h``.

All quantities are dimensionless in ``(h, u)``; the cavity length only sets
absolute frequencies.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovMatrices, BogoliubovSeries

#: ladder of acceleration values used to extract the overlap series
DEFAULT_H_LADDER = (0.00125, 0.0025, 0.005, 0.01, 0.02, 0.04)
#: quadrature escalation schedule and convergence target per matrix entry
QUADRATURE_ORDERS = (64, 128, 256, 512)
QUADRATURE_TOL = 1e-10


class QuadratureError(RuntimeError):
    """The overlap quadrature did not converge within ``QUADRATURE_ORDERS``."""


@dataclass(frozen=True)
class CavityScenario:
    """Geometry and probe configuration for the moving-cavity channel.

    ``h`` is the dimensionless proper acceleration at the cavity center
    (natural units, ``h = a L / c^2``) and ``u`` the dimensionless duration
    of the accelerated segment; one unit of ``u`` is a full phase revolution
    of every mode, so everything downstream is periodic in ``u``.
    """

    length: float = 1.0
    h: float = 0.05
    u: float = 0.3
    k: int = 1
    k_prime: int = 2
    n_max: int = 10

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("cavity length must be positive")
        if not 0.0 < self.h < 2.0:
            raise ValueError(
                f"h={self.h!r} out of range (0, 2): the left wall must stay "
                "outside the acceleration horizon"
            )
        if self.u < 0.0:
            raise ValueError("duration parameter u must be non-negative")
        if not 1 <= self.k <= self.n_max or not 1 <= self.k_prime <= self.n_max:
            raise ValueError("probed modes must lie in 1..n_max")
        if self.k == self.k_prime:
            raise ValueError("probed modes must be distinct")


@dataclass(frozen=True)
class RindlerOverlaps:
    """Inertial-to-accelerated mode overlaps at one finite ``h``."""

    n_max: int
    h: float
    alpha: np.ndarray
    beta: np.ndarray
    quad_order: int

    def identity_residual(self) -> float:
        return BogoliubovMatrices(self.n_max, self.alpha, self.beta).identity_residual()

    def as_matrices(self) -> BogoliubovMatrices:
        return BogoliubovMatrices(self.n_max, self.alpha, self.beta)


@dataclass(frozen=True)
class OverlapSeries:
    """First/second-order coefficients of the overlaps in ``h``.

    All matrices are real in the phase convention where the overlap matrix
    tends to the identity as ``h -> 0``. ``fit_residual`` is the worst
    per-entry RMS misfit of the polynomial regression.
    """

    n_max: int
    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    h_ladder: tuple
    fit_residual: float


def proper_frequency(n: int, h: float, length: float) -> float:
    """Mode frequency with respect to proper time at the cavity center.

    ``n pi h / (2 L artanh(h/2))``; tends to the inertial ``n pi / L`` as
    ``h -> 0``.
    """
    if not 0.0 < h < 2.0:
        raise ValueError("h must lie in (0, 2)")
    return n * np.pi * h / (2.0 * length * np.arctanh(h / 2.0))


@functools.lru_cache(maxsize=len(QUADRATURE_ORDERS))
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]; every ladder
    quadrature reuses the same few orders."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _max_fit_residual(n_max: int) -> float:
    # raw coefficients grow with the mode index, and so does the part of the
    # ladder data the polynomial cannot represent
    return 1e-7 * max(1.0, (n_max / 10.0) ** 2)


def _overlaps_at_order(length: float, h: float, n_max: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Overlap matrices by fixed-order Gauss-Legendre quadrature.

    Inertial modes ``sin(n pi (x - x_L)/L) / sqrt(n pi)`` with
    ``omega_n = n pi / L``; accelerated-frame modes
    ``sin(m pi ln(x/x_L)/D) / sqrt(m pi)`` with ``Omega_m = m pi / D`` and
    ``D = ln(x_R/x_L)``. On the shared slice the time derivative of the
    accelerated modes converts as ``d/dt = (1/x) d/d(eta)``, giving

        alpha_mn = \\int (omega_n + Omega_m / x) f~_m f_n dx
        beta_mn  = \\int (omega_n - Omega_m / x) f~_m f_n dx

    with all mode functions real on the slice.
    """
    x_l = length / h - length / 2.0
    x_r = length / h + length / 2.0
    big_d = np.log(x_r / x_l)
    nodes, weights = _gauss_legendre(order)
    x = 0.5 * (x_r - x_l) * nodes + 0.5 * (x_r + x_l)
    w = 0.5 * (x_r - x_l) * weights

    n_idx = np.arange(1, n_max + 1)
    omega = n_idx * np.pi / length
    big_omega = n_idx * np.pi / big_d
    # rows: modes, columns: quadrature nodes
    f_in = np.sin(np.outer(n_idx, np.pi * (x - x_l) / length)) / np.sqrt(n_idx * np.pi)[:, None]
    f_acc = np.sin(np.outer(n_idx, np.pi * np.log(x / x_l) / big_d)) / np.sqrt(n_idx * np.pi)[:, None]

    base = (f_acc * w) @ f_in.T          #  \int f~_m f_n
    curved = (f_acc * (w / x)) @ f_in.T  # \int f~_m f_n / x
    alpha = base * omega[None, :] + curved * big_omega[:, None]
    beta = base * omega[None, :] - curved * big_omega[:, None]
    return alpha, beta


def rindler_overlaps(length: float, h: float, n_max: int, tol: float = QUADRATURE_TOL) -> RindlerOverlaps:
    """Overlap matrices at finite ``h`` with quadrature order escalated until
    every entry is stable to ``tol``; raises :class:`QuadratureError` when the
    largest order in ``QUADRATURE_ORDERS`` is not enough."""
    if not 0.0 < h < 2.0:
        raise ValueError("h must lie in (0, 2): wall positions require h < 2")
    prev = None
    for order in QUADRATURE_ORDERS:
        alpha, beta = _overlaps_at_order(length, h, n_max, order)
        if prev is not None:
            change = max(np.max(np.abs(alpha - prev[0])), np.max(np.abs(beta - prev[1])))
            if change < tol:
                return RindlerOverlaps(n_max, h, alpha, beta, order)
        prev = (alpha, beta)
    raise QuadratureError(
        f"quadrature did not converge to {tol:g} at order {QUADRATURE_ORDERS[-1]}"
    )


def _fit_overlap_series(
    h: np.ndarray,
    alphas: list,
    betas: list,
    n_max: int,
    fit_degree: int,
    max_fit_residual: float | None,
) -> OverlapSeries:
    design = np.vander(h, fit_degree + 1, increasing=True)[:, 1:]
    coef_a, res_a, *_ = np.linalg.lstsq(design, np.stack([m.reshape(-1) for m in alphas]), rcond=None)
    coef_b, res_b, *_ = np.linalg.lstsq(design, np.stack([m.reshape(-1) for m in betas]), rcond=None)
    dof = max(h.size - fit_degree, 1)
    worst = 0.0
    for res in (res_a, res_b):
        if res.size:
            worst = max(worst, float(np.sqrt(np.max(res) / dof)))
    if max_fit_residual is not None and worst > max_fit_residual:
        raise ValueError(
            f"overlap series fit residual {worst:.3e} above {max_fit_residual:.0e}; "
            "refine the h ladder"
        )
    shape = (n_max, n_max)
    return OverlapSeries(
        n_max,
        coef_a[0].reshape(shape),
        coef_a[1].reshape(shape),
        coef_b[0].reshape(shape),
        coef_b[1].reshape(shape),
        tuple(h),
        worst,
    )


def perturbative_overlaps(
    length: float,
    n_max: int,
    h_ladder=DEFAULT_H_LADDER,
    fit_degree: int = 4,
    max_fit_residual: float | None = None,
) -> OverlapSeries:
    """First- and second-order overlap coefficients from an ``h`` ladder.

    Each matrix entry is regressed on ``(h, h^2, ..., h^degree)`` with the
    intercept pinned to the analytic zeroth order (identity for alpha, zero
    for beta). The cubic and quartic terms are kept as nuisance parameters so
    they do not leak into the linear coefficient; only orders one and two are
    returned.
    """
    h = np.asarray(sorted(h_ladder), dtype=float)
    if h.size < fit_degree + 1:
        raise ValueError("h ladder must have more points than the fit degree")
    if max_fit_residual is None:
        max_fit_residual = _max_fit_residual(n_max)
    alphas, betas = [], []
    for hv in h:
        ov = rindler_overlaps(length, hv, n_max)
        alphas.append(ov.alpha - np.eye(n_max))
        betas.append(ov.beta)
    return _fit_overlap_series(h, alphas, betas, n_max, fit_degree, max_fit_residual)


def mode_phases(n_max: int, u: float) -> np.ndarray:
    """Phase factors ``G_n = exp(2 pi i n u)`` accrued during the segment."""
    return np.exp(2j * np.pi * np.arange(1, n_max + 1) * u)


def compose_one_segment(overlaps: OverlapSeries, u: float) -> BogoliubovSeries:
    """Series of the full travel channel at duration parameter ``u``.

    The exact composition is ``B_out = B_in^-1 o phases o B_in`` with
    ``B_in`` the overlap channel; expanding ``B_in`` to second order gives,
    with ``G = mode_phases(u)`` and real overlap coefficients,

        alpha1_ij = oa1_ij (G_i - G_j)
        beta1_ij  = ob1_ij (G_i - conj(G_j))
        alpha2_ij = G_i oa2_ij + G_j oa2_ji
                    + sum_k [G_k oa1_ki oa1_kj - conj(G_k) ob1_ki ob1_kj]
        beta2_ij  = G_i ob2_ij - conj(G_j) ob2_ji
                    + sum_k [G_k oa1_ki ob1_kj - conj(G_k) ob1_ki oa1_kj]

    The relative signs follow from exact inversion of the truncated overlap
    channel; they are fixed by requiring the composed series to satisfy the
    second-order channel identities (and are verified that way in the tests).
    """
    if u < 0.0:
        raise ValueError("u must be non-negative")
    n = overlaps.n_max
    g = mode_phases(n, u)
    gc = np.conj(g)
    oa1, oa2 = overlaps.alpha1, overlaps.alpha2
    ob1, ob2 = overlaps.beta1, overlaps.beta2

    alpha1 = oa1 * (g[:, None] - g[None, :])
    beta1 = ob1 * (g[:, None] - gc[None, :])
    alpha2 = (
        g[:, None] * oa2
        + g[None, :] * oa2.T
        + oa1.T @ (g[:, None] * oa1)
        - ob1.T @ (gc[:, None] * ob1)
    )
    beta2 = (
        g[:, None] * ob2
        - gc[None, :] * ob2.T
        + oa1.T @ (g[:, None] * ob1)
        - ob1.T @ (gc[:, None] * oa1)
    )
    return BogoliubovSeries(n, g, alpha1, alpha2, beta1, beta2)


def cavity_series(
    scenario: CavityScenario, cache_dir: str | None = None
) -> BogoliubovSeries:
    """Composed channel series for a scenario (theta is ``h``)."""
    overlaps = load_or_compute_overlap_series(scenario.length, scenario.n_max, cache_dir)
    return compose_one_segment(overlaps, scenario.u)


# ---------------------------------------------------------------------------
# CSV cache for the quadrature overlaps: the ladder quadratures dominate the
# cost of everything else in this package, so they are worth keeping.
# ---------------------------------------------------------------------------


def _cache_path(cache_dir: str, h: float, n_max: int, order: int) -> str:
    return os.path.join(cache_dir, f"overlaps_h{h:.6g}_n{n_max}_q{order}.csv")


def save_overlaps_csv(path: str, overlaps: RindlerOverlaps) -> None:
    lines = ["component,m,n,value"]
    for name, mat in (("alpha", overlaps.alpha), ("beta", overlaps.beta)):
        for m in range(overlaps.n_max):
            for n in range(overlaps.n_max):
                lines.append(f"{name},{m + 1},{n + 1},{float(mat[m, n].real)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_overlaps_csv(path: str, h: float, n_max: int, order: int) -> RindlerOverlaps:
    mats = {"alpha": np.zeros((n_max, n_max)), "beta": np.zeros((n_max, n_max))}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            comp, m, n, value = line.strip().split(",")
            mats[comp][int(m) - 1, int(n) - 1] = float(value)
    return RindlerOverlaps(n_max, h, mats["alpha"], mats["beta"], order)


def load_or_compute_overlaps(
    length: float, h: float, n_max: int, cache_dir: str | None = None
) -> RindlerOverlaps:
    """Quadrature overlaps, using the CSV cache when possible.

    The cached matrices are L-independent once expressed in mode indices, so
    the cache key is ``(h, n_max, quadrature order)``.
    """
    if cache_dir is None:
        return rindler_overlaps(length, h, n_max)
    os.makedirs(cache_dir, exist_ok=True)
    for order in QUADRATURE_ORDERS:
        path = _cache_path(cache_dir, h, n_max, order)
        if os.path.exists(path):
            return load_overlaps_csv(path, h, n_max, order)
    overlaps = rindler_overlaps(length, h, n_max)
    save_overlaps_csv(_cache_path(cache_dir, h, n_max, overlaps.quad_order), overlaps)
    return overlaps


def load_or_compute_overlap_series(
    length: float,
    n_max: int,
    cache_dir: str | None = None,
    h_ladder=DEFAULT_H_LADDER,
) -> OverlapSeries:
    """Overlap series with the ladder quadratures served from the cache.

    The fit is held to the same residual bound as :func:`perturbative_overlaps`,
    so a damaged cache file is refused rather than fitted.
    """
    if cache_dir is None:
        return perturbative_overlaps(length, n_max, h_ladder)
    h = np.asarray(sorted(h_ladder), dtype=float)
    alphas, betas = [], []
    for hv in h:
        ov = load_or_compute_overlaps(length, float(hv), n_max, cache_dir)
        alphas.append(ov.alpha - np.eye(n_max))
        betas.append(ov.beta)
    return _fit_overlap_series(h, alphas, betas, n_max, 4, _max_fit_residual(n_max))
