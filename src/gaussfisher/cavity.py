"""Bogoliubov series for a Dirichlet cavity that rides one uniform-acceleration
segment between two inertial phases.

The channel is assembled from first principles in three steps:

1. :func:`rindler_overlaps` computes the inertial-to-accelerated mode
   overlaps at finite ``h = a L / c^2`` by Gauss-Legendre quadrature of the
   Klein-Gordon inner product on the shared ``t = 0`` slice;
2. their first- and second-order coefficients in ``h`` come from
   :func:`taylor_overlaps`, exactly, by expanding that inner product's
   integrand in ``h``, on every mode or on the rows a probe reads; the
   perturbative route reads only these.
   :func:`perturbative_overlaps` fits the same coefficients to the
   quadrature over a ladder of small ``h`` values, and the oracle still
   completes that fitted series, read from or written to an ``.npz`` cache,
   or without one fitted in the process, which keeps the last one built;
3. :func:`compose_one_segment` chains "enter the accelerated frame, accrue
   mode phases for a proper duration, return to the inertial frame" into a
   single series in ``h``: the whole channel, or, stacked over a grid of
   durations, the arrays of a few output modes' rows, from which a sweep
   reduces what each probe reads (:class:`bogoliubov.ReducedChannel`).

Lengths are in units of the cavity length ``L``: every output is
dimensionless in ``(h, u)``, and ``L`` would only set absolute frequencies.
"""

from __future__ import annotations

import functools
import os
import tempfile
import types
import zipfile
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovSeries, _keep
from .states import quadrature_indices

#: ladder of acceleration values used to extract the overlap series
H_LADDER = (0.00125, 0.0025, 0.005, 0.01, 0.02, 0.04)
#: quadrature escalation schedule and convergence target per matrix entry
QUADRATURE_ORDERS = (64, 128, 256, 512)
QUADRATURE_TOL = 1e-10


class QuadratureError(RuntimeError):
    """The overlap quadrature did not converge within ``QUADRATURE_ORDERS``."""


@dataclass(frozen=True)
class RindlerOverlaps:
    """Inertial-to-accelerated mode overlaps at one finite ``h``."""

    alpha: np.ndarray
    beta: np.ndarray
    quad_order: int


@dataclass(frozen=True)
class OverlapSeries:
    """First/second-order coefficients of the overlaps in ``h``.

    All matrices are real in the phase convention where the overlap matrix
    tends to the identity as ``h -> 0``. ``fit_residual`` is the worst
    per-entry RMS misfit of the polynomial regression, and 0 for the exact
    coefficients of :func:`taylor_overlaps`.

    The read-only matrices hold what :func:`compose_one_segment` reads for
    the output ``rows`` (1-based, distinct; ``None``, a whole series, for
    every mode): the first orders on the rows ``m`` and every column ``n``,
    and the second orders on the block ``rows x rows``, in ``rows`` order.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    fit_residual: float
    rows: tuple | None = None

    def __post_init__(self):
        for name in SERIES_ARRAYS:
            getattr(self, name).setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.alpha1.shape[-1]


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


def rindler_overlaps(h: float, n_max: int, first_order: int | None = None) -> RindlerOverlaps:
    """Overlap matrices at finite ``h`` with quadrature order escalated until
    every entry is stable to ``QUADRATURE_TOL``; raises :class:`QuadratureError`
    when the largest order in ``QUADRATURE_ORDERS`` is not enough.

    The escalation starts at ``first_order``, one of ``QUADRATURE_ORDERS``
    (the smallest when ``None``). Starting above the smallest order gives
    the same matrices as a full escalation whenever that escalation would
    not have converged before ``first_order``'s successor.
    """
    if not 0.0 < h < 2.0:
        raise ValueError("h must lie in (0, 2): wall positions require h < 2")
    rules = _gauss_legendre()
    orders = QUADRATURE_ORDERS
    prev = None
    for order in orders[0 if first_order is None else orders.index(first_order):]:
        alpha, beta = _overlaps_at_order(h, n_max, *rules[order])
        if prev is not None:
            change = max(np.max(np.abs(alpha - prev[0])), np.max(np.abs(beta - prev[1])))
            if change < QUADRATURE_TOL:
                return RindlerOverlaps(alpha, beta, order)
        prev = (alpha, beta)
    raise QuadratureError(
        f"quadrature did not converge to {QUADRATURE_TOL:g} at order {orders[-1]}"
    )


def perturbative_overlaps(n_max: int) -> OverlapSeries:
    """First- and second-order overlap coefficients from the ``H_LADDER`` fit.

    The ladder's quadratures run from the largest ``h`` down, and each
    point starts its escalation at the order that checked the previous
    point's convergence. The order a point converges at does not fall as
    ``h`` falls (checked for every ``n_max`` from 1 to 144), so the skipped
    pairs of orders are ones that would not have converged: the series
    equals that of a full escalation at every point, bit for bit, from 14
    quadratures instead of 24 at ``n_max`` 90.

    Each matrix entry is regressed on ``(h, h^2, h^3, h^4)`` with the
    intercept pinned to the analytic zeroth order (identity for alpha, zero
    for beta). The cubic and quartic terms are kept as nuisance parameters so
    they do not leak into the linear coefficient; only orders one and two are
    returned. A fit residual above ``_max_fit_residual(n_max)`` raises
    ``ValueError``.
    """
    h = np.asarray(H_LADDER)
    alphas, betas = [], []
    first = None
    for hv in h[::-1]:
        ov = rindler_overlaps(hv, n_max, first)
        first = QUADRATURE_ORDERS[QUADRATURE_ORDERS.index(ov.quad_order) - 1]
        alphas.append((ov.alpha - np.eye(n_max)).reshape(-1))
        betas.append(ov.beta.reshape(-1))
    # the fit stacks the ladder in ascending h, as its design matrix does
    design = np.vander(h, 5, increasing=True)[:, 1:]
    coef_a, res_a, *_ = np.linalg.lstsq(design, np.stack(alphas[::-1]), rcond=None)
    coef_b, res_b, *_ = np.linalg.lstsq(design, np.stack(betas[::-1]), rcond=None)
    worst = float(np.sqrt(max(np.max(res_a), np.max(res_b)) / (h.size - 4)))
    bound = _max_fit_residual(n_max)
    if worst > bound:
        raise ValueError(f"overlap series fit residual {worst:.3e} above {bound:.3e}")
    orders = (c.reshape(n_max, n_max) for c in (coef_a[0], coef_a[1], coef_b[0], coef_b[1]))
    return OverlapSeries(*orders, worst)


def taylor_overlaps(n_max: int, rows=None) -> OverlapSeries:
    """Exact first- and second-order coefficients of the overlaps in ``h``.

    With ``t = x - x_L`` in [0, 1], the integrand of :func:`_overlaps_at_order`
    expands in ``h`` through the accelerated modes' phase and the ``1/x``
    weight of their frequency:

        xi = ln(x/x_L)/D = t + h t(1-t)/2 + h^2 t(1-t)(1-2t)/6 + O(h^3)
        1/(D x)          = 1 + h (1/2 - t) + h^2 (t^2 - t + 1/6) + O(h^3)

    Each order of the integrand is a polynomial in ``t`` times sines and
    cosines of ``(n -+ m) pi t``. Integrating by parts leaves only boundary
    terms, and those collapse, for rows ``m`` and columns ``n``, to

        alpha1_mn = 2 sqrt(mn) / (pi^2 (n - m)^3)             m + n odd
        beta1_mn  = 2 sqrt(mn) / (pi^2 (n + m)^3)             m + n odd
        alpha2_mn = sqrt(mn) (m + 2n) / (pi^2 (n - m)^4)      m + n even, m != n
        alpha2_nn = -n^2 pi^2 / 240
        beta2_mn  = sqrt(mn) (2n - m) / (pi^2 (n + m)^4)      m + n even

    and zero otherwise: reflecting the cavity about its centre maps ``h`` to
    ``-h`` and multiplies the overlap of modes ``m`` and ``n`` by
    ``(-1)^(m+n)``, so first orders vanish for even ``m + n`` and second
    orders for odd. There is no quadrature, no fit (``fit_residual`` is 0)
    and no bound on ``n_max``.

    They are evaluated on the 1-based output ``rows`` a probe reads: the
    first orders on ``rows x`` every mode, the second orders on ``rows x
    rows``, in ``rows`` order. ``None`` is every mode, the whole series.
    """
    idx = np.arange(1, n_max + 1, dtype=float)
    rows = None if rows is None else tuple(rows)
    m = (idx if rows is None else idx[quadrature_indices(rows, n_max)[::2] // 2])[:, None]
    odd, root, gap, gap2, span, span2 = _taylor_factors(m, idx[None, :])
    alpha1 = np.where(odd, 2.0 * root * gap2 * gap, 0.0)
    beta1 = np.where(odd, 2.0 * root * span2 * span, 0.0)
    n = m.T
    odd, root, gap, gap2, span, span2 = _taylor_factors(m, n)
    alpha2 = np.where(odd, 0.0, root * (m + 2.0 * n) * gap2 * gap2)
    np.fill_diagonal(alpha2, -((np.pi * n[0]) ** 2) / 240.0)
    beta2 = np.where(odd, 0.0, root * (2.0 * n - m) * span2 * span2)
    return OverlapSeries(alpha1, alpha2, beta1, beta2, 0.0, rows)


def _taylor_factors(m: np.ndarray, n: np.ndarray) -> tuple:
    """Parity mask and factors of :func:`taylor_overlaps`' closed forms on
    rows ``m`` and columns ``n``: ``m + n`` odd, ``sqrt(mn) / pi^2``,
    ``1/(n - m)`` and ``1/(n + m)`` with their squares."""
    # powers by products: a float power is several times slower per entry;
    # the diagonal, where n - m vanishes, is even and takes alpha2_nn
    gap = 1.0 / np.where(m == n, 1.0, n - m)
    span = 1.0 / (n + m)
    return (m + n) % 2 == 1, np.sqrt(m * n) / np.pi**2, gap, gap * gap, span, span * span


#: the largest rounding error, in radians, of the highest phase 2 pi n_max u,
#: counted as one unit of roundoff of it. At n_max 60 it admits u up to 1194,
#: where every cell agrees with the cell at u = 0 far within its residual; at
#: u = 1e15 the rounding spans whole revolutions, and the cells were wrong
PHASE_ROUNDING_MAX = 1e-10


def mode_phases(n_max: int, u) -> np.ndarray:
    """Phase factors ``G_n = exp(2 pi i n u)`` accrued during the segment:
    ``(n_max,)`` for one duration, ``(len(u), n_max)`` for a grid. A
    duration whose phase ``2 pi n_max u`` is not finite, or carries a
    rounding error above :data:`PHASE_ROUNDING_MAX`, raises ``ValueError``."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        phase = 2.0 * np.pi * n_max * np.abs(u)
    finite = np.isfinite(phase)
    if not np.all(finite):
        bad = float(u[~finite][0])
        raise ValueError(f"duration u={bad!r} gives mode phases 2 pi n u that are not finite at n_max {n_max}")
    rounding = phase * np.finfo(float).eps
    coarse = rounding > PHASE_ROUNDING_MAX
    if np.any(coarse):
        bad, error = float(u[coarse][0]), float(rounding[coarse][0])
        raise ValueError(
            f"duration u={bad!r} gives mode phases 2 pi n u with a rounding error of {error:.3e} rad "
            f"at n_max {n_max}, above the bound of {PHASE_ROUNDING_MAX:g} rad"
        )
    return np.exp(2j * np.pi * np.arange(1, n_max + 1) * u[..., None])


def compose_one_segment(overlaps: OverlapSeries, u):
    """Series of the full travel channel at duration parameter ``u``.

    ``u`` is one duration, which gives one channel, or a one-dimensional
    grid, which gives a stack of channels along a leading axis. A whole
    ``overlaps`` at one duration gives the whole :class:`BogoliubovSeries`,
    which is one channel; the exact coefficients on a few output ``rows``
    give the arrays ``(G, alpha1, alpha2, beta1, beta2)`` of those rows, in
    ``rows`` order, with the second orders on the block ``rows x rows``.
    The exact composition is ``B_out = B_in^-1 o phases o B_in`` with
    ``B_in`` the overlap channel; expanding ``B_in`` to second order gives,
    with ``G = mode_phases(u)`` and real overlap coefficients,

        alpha1_ij = oa1_ij (G_i - G_j)
        beta1_ij  = ob1_ij (G_i - conj(G_j))
        alpha2_ij = G_i oa2_ij + G_j oa2_ji
                    + sum_k [G_k oa1_ki oa1_kj - conj(G_k) ob1_ki ob1_kj]
        beta2_ij  = G_i ob2_ij - conj(G_j) ob2_ji
                    + sum_k [G_k oa1_ki ob1_kj - conj(G_k) ob1_ki oa1_kj]

    for ``i, j`` in the rows. Each ``sum_k`` is one ``(U r, n) @ (n, r)``
    product for ``U`` durations and ``r`` rows, so a whole grid costs four
    such products, ``O(U r^2 n)``, and the second orders never span all
    ``n`` columns unless the rows are every mode. The sums read the columns
    ``oa1_ki``, ``ob1_ki`` of the rows, which the exact coefficients give
    from their rows, bit for bit, by the symmetry of ``oa1`` and ``ob1``;
    only a fitted series needs its whole matrices read as columns.

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
    n, rows = overlaps.n_max, overlaps.rows
    oa1, ob1, oa2, ob2 = overlaps.alpha1, overlaps.beta1, overlaps.alpha2, overlaps.beta2
    # 0 - x keeps the zeros +0.0, as they are in the whole matrix, where a
    # negation would flip the sign of the zero sums that read them
    r, oa1_cols, ob1_cols = (slice(None), oa1, ob1) if rows is None else (
        quadrature_indices(rows, n)[::2] // 2, 0.0 - oa1.T, ob1.T)
    g = mode_phases(n, u)
    gc = np.conj(g)
    g_rows, g_cols, gc_cols = g[..., r, None], g[..., None, r], gc[..., None, r]

    def spectator_sum(left: np.ndarray, phases: np.ndarray, right: np.ndarray) -> np.ndarray:
        # sum_k phases_k left_ki right_kj for the rows i and columns j, from
        # the columns blocks, as one product over the rows of every channel
        weighted = left.T * phases[..., None, :]
        return (weighted.reshape(-1, n) @ right).reshape(*weighted.shape[:-1], -1)

    # accumulated in place, in the order of the formulas above, so that no
    # more than two temporaries of the stack's size are alive at once
    alpha2 = g_rows * oa2
    alpha2 += g_cols * oa2.T
    alpha2 += spectator_sum(oa1_cols, g, oa1_cols)
    alpha2 -= spectator_sum(ob1_cols, gc, ob1_cols)
    beta2 = g_rows * ob2
    beta2 -= gc_cols * ob2.T
    beta2 += spectator_sum(oa1_cols, g, ob1_cols)
    beta2 -= spectator_sum(ob1_cols, gc, oa1_cols)
    alpha1 = g_rows - g[..., None, :]
    alpha1 *= oa1
    beta1 = g_rows - gc[..., None, :]
    beta1 *= ob1
    if rows is None:
        return BogoliubovSeries(g, alpha1, alpha2, beta1, beta2)
    return g[..., r], alpha1, alpha2, beta1, beta2


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
            raise ValueError(f"fit residual {residual:.3e} above {bound:.3e}")
    # a damaged zip archive surfaces as any of these, depending on the byte hit
    except (zipfile.BadZipFile, KeyError, EOFError, ValueError, NotImplementedError,
            RuntimeError, OSError) as exc:
        raise ValueError(f"overlap-series cache file {path}: {exc}; delete it to rebuild") from exc
    return OverlapSeries(*(arrays[name] for name in SERIES_ARRAYS), residual)


#: the fitted series kept per process without a cache directory: the one
#: last built, keyed on its n_max
_fitted = {}


def load_or_compute_overlap_series(n_max: int, cache_dir: str | None = None) -> OverlapSeries:
    """Overlap series, read from ``cache_dir`` when its file exists and
    computed (then written there) otherwise. Without ``cache_dir`` the
    process keeps the series it fitted last, at the BLAS threading of that
    build, by :func:`bogoliubov._keep`: a call at the same ``n_max`` builds
    nothing, and a call at another drops it before fitting its own."""
    if cache_dir is None:
        return _keep(_fitted, n_max, lambda: perturbative_overlaps(n_max))
    path = series_cache_file(cache_dir, n_max)
    if os.path.exists(path):
        return load_overlaps_csv(path, n_max)
    overlaps = perturbative_overlaps(n_max)
    os.makedirs(cache_dir, exist_ok=True)
    save_overlaps_csv(path, overlaps)
    return overlaps
