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
   single series in ``h``: the whole channel at one duration, or the block
   rows of a few output modes stacked over a grid of durations, which is
   all a perturbative sweep reads.

Lengths are in units of the cavity length ``L``: every output is
dimensionless in ``(h, u)``, and ``L`` would only set absolute frequencies.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
import types
import zipfile
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovSeries
from .states import quadrature_indices

#: ladder of acceleration values used to extract the overlap series
H_LADDER = (0.00125, 0.0025, 0.005, 0.01, 0.02, 0.04)
#: quadrature escalation schedule and convergence target per matrix entry
QUADRATURE_ORDERS = (64, 128, 256, 512)
QUADRATURE_TOL = 1e-10


class QuadratureError(RuntimeError):
    """The overlap quadrature did not converge within ``QUADRATURE_ORDERS``."""


@dataclass(frozen=True)
class CavityScenario:
    """Geometry and mode truncation of the moving-cavity channel.

    ``h`` is the dimensionless proper acceleration at the cavity center
    (natural units, ``h = a L / c^2``) and ``u`` the dimensionless duration
    of the accelerated segment; one unit of ``u`` is a full phase revolution
    of every mode, so everything downstream is periodic in ``u``.
    """

    h: float = 0.05
    u: float = 0.3
    n_max: int = 10

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max={self.n_max!r} must be an integer >= 1")
        if not 0.0 < self.h < 2.0:
            raise ValueError(
                f"h={self.h!r} out of range (0, 2): the left wall must stay "
                "outside the acceleration horizon"
            )
        if not math.isfinite(self.u):
            raise ValueError(f"duration parameter u={self.u!r} is not finite")
        if self.u < 0.0:
            raise ValueError("duration parameter u must be non-negative")


@dataclass(frozen=True)
class RindlerOverlaps:
    """Inertial-to-accelerated mode overlaps at one finite ``h``."""

    n_max: int
    h: float
    alpha: np.ndarray
    beta: np.ndarray
    quad_order: int


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
    fit_residual: float


@functools.cache
def _gauss_legendre() -> types.MappingProxyType:
    """Read-only mapping of Gauss-Legendre rules on [-1, 1] by order, each a
    read-only ``(2, order)`` array of nodes and weights.

    The rules of ``QUADRATURE_ORDERS`` are package data, read once per
    process on first use: ``gauss_legendre.npz`` stores the output of
    ``numpy.polynomial.legendre.leggauss`` on numpy 2.4.6 bit for bit, so no
    process pays for the eigensolve behind it and the overlaps do not move
    with the installed numpy's node algorithm.
    """
    with np.load(os.path.join(os.path.dirname(__file__), "gauss_legendre.npz")) as data:
        rules = {int(order): data[order] for order in data.files}
    for rule in rules.values():
        rule.setflags(write=False)
    return types.MappingProxyType(rules)


def _max_fit_residual(n_max: int) -> float:
    # raw coefficients grow with the mode index, and so does the part of the
    # ladder data the polynomial cannot represent
    return 1e-7 * max(1.0, (n_max / 10.0) ** 2)


def _overlaps_at_order(
    h: float, n_max: int, nodes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Overlap matrices by the Gauss-Legendre rule ``(nodes, weights)`` on
    [-1, 1].

    With the cavity length as the unit, the walls sit at
    ``x_L, x_R = 1/h -+ 1/2``. Inertial modes ``sin(n pi (x - x_L)) / sqrt(n pi)``
    with ``omega_n = n pi``; accelerated-frame modes
    ``sin(m pi ln(x/x_L)/D) / sqrt(m pi)`` with ``Omega_m = m pi / D`` and
    ``D = ln(x_R/x_L)``. On the shared slice the time derivative of the
    accelerated modes converts as ``d/dt = (1/x) d/d(eta)``, giving

        alpha_mn = \\int (omega_n + Omega_m / x) f~_m f_n dx
        beta_mn  = \\int (omega_n - Omega_m / x) f~_m f_n dx

    with all mode functions real on the slice.
    """
    x_l = 1.0 / h - 0.5
    x_r = 1.0 / h + 0.5
    big_d = np.log(x_r / x_l)
    x = 0.5 * (x_r - x_l) * nodes + 0.5 * (x_r + x_l)
    w = 0.5 * (x_r - x_l) * weights

    n_idx = np.arange(1, n_max + 1)
    omega = n_idx * np.pi
    big_omega = n_idx * np.pi / big_d
    # rows: modes, columns: quadrature nodes
    f_in = np.sin(np.outer(n_idx, np.pi * (x - x_l))) / np.sqrt(n_idx * np.pi)[:, None]
    f_acc = np.sin(np.outer(n_idx, np.pi * np.log(x / x_l) / big_d)) / np.sqrt(n_idx * np.pi)[:, None]

    base = (f_acc * w) @ f_in.T          #  \int f~_m f_n
    curved = (f_acc * (w / x)) @ f_in.T  # \int f~_m f_n / x
    alpha = base * omega[None, :] + curved * big_omega[:, None]
    beta = base * omega[None, :] - curved * big_omega[:, None]
    return alpha, beta


def rindler_overlaps(h: float, n_max: int) -> RindlerOverlaps:
    """Overlap matrices at finite ``h`` with quadrature order escalated until
    every entry is stable to ``QUADRATURE_TOL``; raises :class:`QuadratureError`
    when the largest order in ``QUADRATURE_ORDERS`` is not enough."""
    if not 0.0 < h < 2.0:
        raise ValueError("h must lie in (0, 2): wall positions require h < 2")
    rules = _gauss_legendre()
    prev = None
    for order in QUADRATURE_ORDERS:
        alpha, beta = _overlaps_at_order(h, n_max, *rules[order])
        if prev is not None:
            change = max(np.max(np.abs(alpha - prev[0])), np.max(np.abs(beta - prev[1])))
            if change < QUADRATURE_TOL:
                return RindlerOverlaps(n_max, h, alpha, beta, order)
        prev = (alpha, beta)
    raise QuadratureError(
        f"quadrature did not converge to {QUADRATURE_TOL:g} at order {QUADRATURE_ORDERS[-1]}"
    )


def perturbative_overlaps(n_max: int) -> OverlapSeries:
    """First- and second-order overlap coefficients from the ``H_LADDER`` fit.

    Each matrix entry is regressed on ``(h, h^2, h^3, h^4)`` with the
    intercept pinned to the analytic zeroth order (identity for alpha, zero
    for beta). The cubic and quartic terms are kept as nuisance parameters so
    they do not leak into the linear coefficient; only orders one and two are
    returned. A fit residual above ``_max_fit_residual(n_max)`` raises
    ``ValueError``.
    """
    h = np.asarray(H_LADDER)
    alphas, betas = [], []
    for hv in h:
        ov = rindler_overlaps(hv, n_max)
        alphas.append((ov.alpha - np.eye(n_max)).reshape(-1))
        betas.append(ov.beta.reshape(-1))
    design = np.vander(h, 5, increasing=True)[:, 1:]
    coef_a, res_a, *_ = np.linalg.lstsq(design, np.stack(alphas), rcond=None)
    coef_b, res_b, *_ = np.linalg.lstsq(design, np.stack(betas), rcond=None)
    worst = float(np.sqrt(max(np.max(res_a), np.max(res_b)) / (h.size - 4)))
    bound = _max_fit_residual(n_max)
    if worst > bound:
        raise ValueError(f"overlap series fit residual {worst:.3e} above {bound:.0e}")
    orders = (c.reshape(n_max, n_max) for c in (coef_a[0], coef_a[1], coef_b[0], coef_b[1]))
    return OverlapSeries(n_max, *orders, worst)


def mode_phases(n_max: int, u) -> np.ndarray:
    """Phase factors ``G_n = exp(2 pi i n u)`` accrued during the segment:
    ``(n_max,)`` for one duration, ``(len(u), n_max)`` for a grid."""
    return np.exp(2j * np.pi * np.arange(1, n_max + 1) * np.asarray(u, dtype=float)[..., None])


def compose_one_segment(overlaps: OverlapSeries, u, rows=None) -> BogoliubovSeries:
    """Series of the full travel channel at duration parameter ``u``.

    ``u`` is one duration, which gives one channel, or a one-dimensional
    grid, which gives a stack of channels along a leading axis. ``rows``
    (1-based output modes) restricts every matrix to the block rows of those
    modes; ``None`` keeps them all. The exact composition is
    ``B_out = B_in^-1 o phases o B_in`` with ``B_in`` the overlap channel;
    expanding ``B_in`` to second order gives, with ``G = mode_phases(u)``
    and real overlap coefficients,

        alpha1_ij = oa1_ij (G_i - G_j)
        beta1_ij  = ob1_ij (G_i - conj(G_j))
        alpha2_ij = G_i oa2_ij + G_j oa2_ji
                    + sum_k [G_k oa1_ki oa1_kj - conj(G_k) ob1_ki ob1_kj]
        beta2_ij  = G_i ob2_ij - conj(G_j) ob2_ji
                    + sum_k [G_k oa1_ki ob1_kj - conj(G_k) ob1_ki oa1_kj]

    Each ``sum_k`` is one ``(U r, n) @ (n, n)`` product for ``U`` durations
    and ``r`` rows, so a whole grid costs four matrix products.

    The relative signs follow from exact inversion of the truncated overlap
    channel; they are fixed by requiring the composed series to satisfy the
    second-order channel identities (and are verified that way in the tests).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim > 1:
        raise ValueError("u must be one duration or a one-dimensional grid")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if np.any(u < 0.0):
        raise ValueError("u must be non-negative")
    n = overlaps.n_max
    r = slice(None) if rows is None else quadrature_indices(rows, n)[::2] // 2
    g = mode_phases(n, u)
    gc = np.conj(g)
    g_rows = g[..., r, None]
    oa1, oa2 = overlaps.alpha1, overlaps.alpha2
    ob1, ob2 = overlaps.beta1, overlaps.beta2

    def spectator_sum(left: np.ndarray, phases: np.ndarray, right: np.ndarray) -> np.ndarray:
        # sum_k phases_k left_ki right_kj for the rows i, as one product over
        # the rows of every channel in the stack
        weighted = left.T[r] * phases[..., None, :]
        return (weighted.reshape(-1, n) @ right).reshape(weighted.shape)

    # accumulated in place, in the order of the formulas above, so that no
    # more than two temporaries of the stack's size are alive at once
    alpha2 = g_rows * oa2[r]
    alpha2 += g[..., None, :] * oa2.T[r]
    alpha2 += spectator_sum(oa1, g, oa1)
    alpha2 -= spectator_sum(ob1, gc, ob1)
    beta2 = g_rows * ob2[r]
    beta2 -= gc[..., None, :] * ob2.T[r]
    beta2 += spectator_sum(oa1, g, ob1)
    beta2 -= spectator_sum(ob1, gc, oa1)
    alpha1 = g_rows - g[..., None, :]
    alpha1 *= oa1[r]
    beta1 = g_rows - gc[..., None, :]
    beta1 *= ob1[r]
    return BogoliubovSeries(n, g, alpha1, alpha2, beta1, beta2, rows)


# Overlap-series cache: one .npz file per n_max.

SERIES_ARRAYS = ("alpha1", "alpha2", "beta1", "beta2")


def series_cache_file(cache_dir: str, n_max: int) -> str:
    return os.path.join(cache_dir, f"overlap_series_n{n_max}.npz")


def save_overlaps_csv(path: str, overlaps: OverlapSeries) -> None:
    """Write an overlap series to ``path`` in ``.npz`` format, through a
    temporary file in the same directory so that a failed write leaves any
    previous file intact."""
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            arrays = {name: getattr(overlaps, name) for name in SERIES_ARRAYS}
            np.savez(fh, fit_residual=overlaps.fit_residual, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_overlaps_csv(path: str, n_max: int) -> OverlapSeries:
    """Read an overlap series written by :func:`save_overlaps_csv` (``.npz``).

    Raises ``ValueError`` for a damaged file, a missing array, an array that
    is not finite float64 of the expected shape, or a stored fit residual
    above the bound :func:`perturbative_overlaps` enforces.
    """
    shapes = dict.fromkeys(SERIES_ARRAYS, (n_max, n_max)) | {"fit_residual": ()}
    try:
        # np.load keeps no handle of its own when given an open file, so the
        # file is closed even when the archive fails to parse
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            arrays = {name: data[name] for name in shapes}
        for name, arr in arrays.items():
            if arr.dtype != np.float64 or arr.shape != shapes[name] or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} is not a finite float64 array of shape {shapes[name]}")
        residual, bound = float(arrays["fit_residual"]), _max_fit_residual(n_max)
        if residual > bound:
            raise ValueError(f"fit residual {residual:.3e} above {bound:.0e}")
    # a damaged zip archive surfaces as any of these, depending on the byte hit
    except (zipfile.BadZipFile, KeyError, EOFError, ValueError, NotImplementedError,
            RuntimeError, OSError) as exc:
        raise ValueError(f"overlap-series cache file {path}: {exc}; delete it to rebuild") from exc
    return OverlapSeries(n_max, *(arrays[name] for name in SERIES_ARRAYS), residual)


def load_or_compute_overlap_series(n_max: int, cache_dir: str | None = None) -> OverlapSeries:
    """Overlap series, read from ``cache_dir`` when its file exists and
    computed (then written there) otherwise."""
    if cache_dir is None:
        return perturbative_overlaps(n_max)
    path = series_cache_file(cache_dir, n_max)
    if os.path.exists(path):
        return load_overlaps_csv(path, n_max)
    overlaps = perturbative_overlaps(n_max)
    os.makedirs(cache_dir, exist_ok=True)
    save_overlaps_csv(path, overlaps)
    return overlaps
