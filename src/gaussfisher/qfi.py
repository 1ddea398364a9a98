"""Quantum Fisher information for Gaussian states under a parametrized
Bogoliubov channel.

Two routes are provided and cross-validated, both taking a list of probes,
one result per probe, in order:

* an exact oracle, :func:`qfi_oracle` on the family :func:`probe_family`
  of the whole series and its ``(modes, state)`` probes, the probed modes
  and the probe state on those modes: symmetric finite differences of the
  Uhlmann fidelity, Richardson-extrapolated in the step size;
* the perturbative route :func:`qfi_perturbative` at leading order in the
  channel parameter, on ``(reduced, state)`` probes, where ``reduced`` is
  the :class:`ReducedChannel` of the probed modes, the only part of the
  channel it reads: a first-moment part ``E2`` and a covariance part
  ``C2``, with ``H = 4 (E2 + C2)``, both read off the covariance orders
  :meth:`ReducedChannel.covariance_orders` gives (trace form). The probe is
  pure, so ``sigma0`` is symplectic and its inverse is ``Omega sigma0
  Omega^T``: the route factors no matrix.

Probe families are data: a named family is a row of :data:`FAMILIES`, and
its probe just a :class:`GaussianState` from :func:`probe_state` plus its
modes. The oracle evaluates any list of such probes on one channel
together: its whole step ladder in one matrix exponential call, and each
probe on its own rows of the channel.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bogoliubov import BogoliubovSeries, ReducedChannel
from .fidelity import fidelity_one_mode, fidelity_two_mode
from .states import GaussianState, quadrature_indices, symplectic_form


@functools.cache
def _blas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of each OpenBLAS loaded in this
    process, found once from ``/proc/self/maps``; empty where there is no
    ``/proc`` or no OpenBLAS. numpy and scipy each bundle their own."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            names = {line.split()[-1] for line in fh}
    except OSError:
        return ()
    controls = []
    for path in sorted(names):
        library = os.path.basename(path)
        if not (library.startswith("lib") and "blas" in library.lower()):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            controls.append((get, set_))
            break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS pool at one thread, and give
    each pool back its count on exit. The oracle's products are too small to
    gain from a second thread, and the spinning workers of one pool take the
    cores from the other's; its output bits do not depend on the count. The
    counts are process-wide, so the oracle is not for concurrent threads."""
    controls = _blas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


#: the named probe families, in sweep row order: each family's number of
#: probed modes, and whether it carries displacement
FAMILIES = {
    "single_squeezed_displaced": (1, True),
    "two_product_squeezed_displaced": (2, True),
    "two_mode_squeezed": (2, False),
}
#: the largest squeezing |r| a probe may carry, on every family and route: the
#: probe covariance spans e^(2|r|), and its roundoff grows with it. The
#: two-mode squeezed oracle fails first, its fidelity determinants coming out
#: complex from r 5.3 on modes 1,60 at n_max 120 (5.8 on modes 1,30 at n_max
#: 60, 6.9 on modes 1,2 at n_max 10)
MAX_SQUEEZING = 5.0
#: the largest displacement |delta| a probe may carry: its photon number
#: delta^2 stays 1e100 below the largest float, room for the factors (up to
#: about 1e5) that the channel and the squeezing put on it in ``e2``
MAX_DISPLACEMENT = 1e100


@dataclass(frozen=True)
class QfiResult:
    """QFI value with its displacement and covariance contributions.

    For ``method="perturbative"`` the value is exactly ``4 (e2 + c2)`` and
    ``residual`` reports the mode-truncation tail estimate; for
    ``method="oracle"`` the split is not available (NaN) and ``residual`` is
    the extrapolation error estimate. The numbers are floats for one channel
    and arrays of the stack's shape for a stack of channels; every entry is
    checked, and the value must be finite.
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
        # a NaN compares false below, so it is refused by name first
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ValueError(f"QFI value {float(bad.flat[0])!r} is not finite")
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


def negativity_first_order(reduced: ReducedChannel):
    """Entanglement (negativity) generated between the two probed modes
    ``(k, k')`` of a reduced channel, per unit theta.

    At first order this is just ``|beta1_{k k'}|``, one value per channel of
    a stack; a sweep reads it off its ``(k, k')`` reduced channel.
    """
    if len(reduced.modes) != 2:
        raise ValueError(f"the negativity needs two probed modes, not {reduced.modes}")
    return np.abs(reduced.beta1[..., 0, 1])


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
    A squeezing above :data:`MAX_SQUEEZING` or a displacement above
    :data:`MAX_DISPLACEMENT` is refused by name.
    """
    n_modes, displaced = _family(family)
    if not abs(r) <= MAX_SQUEEZING:
        raise ValueError(
            f"squeezing r={float(r)!r} is out of range: |r| must not exceed {MAX_SQUEEZING:g}, "
            "beyond which the probe covariance's spread e^(2|r|) leaves the QFI routes too few digits"
        )
    if not abs(delta) <= MAX_DISPLACEMENT:
        raise ValueError(
            f"displacement delta={float(delta)!r} is out of range: |delta| must not exceed "
            f"{MAX_DISPLACEMENT:g}, beyond which its photon number delta^2 overflows the QFI"
        )
    if displaced:
        mean = np.tile([np.sqrt(2.0) * delta, 0.0], n_modes)
        return GaussianState(mean, np.diag(np.tile([np.exp(r), np.exp(-r)], n_modes)))
    if delta != 0.0:
        raise ValueError("two-mode squeezed probes carry no displacement")
    diagonal, cross = np.cosh(r) * np.eye(2), np.sinh(r) * np.diag([1.0, -1.0])
    return GaussianState(np.zeros(4), np.block([[diagonal, cross], [cross, diagonal]]))


def qfi_perturbative(probes) -> list[QfiResult]:
    """Leading-order QFI of each pure Gaussian probe, one :class:`QfiResult`
    per ``(reduced, state)`` entry of ``probes``, in order.

    ``reduced`` is the :class:`ReducedChannel` of the probed modes, such as
    ``series.reduced(modes)``, and all the kernel and its residual read of
    the channel; ``state`` lives on those modes (all other modes vacuum).
    From its covariance orders, ``E2 = mean1^T (2 sigma0)^-1 mean1`` and
    ``C2 = (1/16) [ (Tr X)^2 - Tr X^2 + 4 Tr Y ]`` with
    ``X = sigma0^-1 sigma1`` and ``Y = sigma0^-1 sigma2`` (trace form). The
    trace form holds for pure probes only, so a mixed ``state``
    (``|det Sigma - 1| > 1e-9``) is refused. A pure probe needs no solve:
    ``sigma0 = A0 Sigma A0^T`` with ``A0`` a rotation and ``Sigma`` symplectic,
    so ``sigma0^-1 = Omega sigma0 Omega^T``, a signed permutation of
    ``sigma0``. A reduced stack gives results of arrays with the stack's
    shape, and each result holds a copy of its own of the truncation residual.
    """
    results = []
    for reduced, state in probes:
        det = float(np.linalg.det(state.covariance))
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"perturbative QFI needs a pure probe state, got det Sigma = {det!r}")
        sigma0, sigma1, sigma2, mean1 = reduced.covariance_orders(state)
        omega = symplectic_form(state.n_modes)
        inv = omega @ sigma0 @ omega.T
        x, y = inv @ sigma1, inv @ sigma2
        tx = x.trace(axis1=-2, axis2=-1)
        c2 = (tx**2 - (x @ x).trace(axis1=-2, axis2=-1) + 4.0 * y.trace(axis1=-2, axis2=-1)) / 16.0
        e2 = 0.5 * np.sum(mean1 * (inv @ mean1[..., None])[..., 0], axis=-1)
        for name, term in (("e2", e2), ("c2", c2)):
            bad = np.asarray(term)[~np.isfinite(term)]
            if bad.size:
                raise ValueError(f"perturbative {name}={float(bad.flat[0])!r} is not finite")
        results.append(QfiResult(4.0 * (e2 + c2), e2, c2, "perturbative", reduced.residual.copy()))
    return results


@_one_blas_thread()
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
    the same bits as the full ``S Sigma_in S^T`` at a fixed BLAS build, on
    the one BLAS thread the oracle runs on. The oracle's finite differences
    amplify roundoff far beyond their residual, so the products keep exactly
    this form: restricting the columns as well, ``S[idx] Sigma_in S[idx]^T``,
    moves ``qfi_oracle`` by up to 1.7e-2 relative at ``n_max`` 60, where its
    residual is 3.1e-6. Each ``state`` lives on its ``modes`` and every
    other mode is vacuum, so the embedded state is physical because the
    probe is. A theta whose square, flow or moments are not finite is refused.
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
            try:
                generator[...] = t * k1 + t**2 * k2
            except OverflowError:
                raise ValueError(f"oracle theta={float(t)!r} is out of range: its square overflows a float, "
                                 "so the family's second-order generator cannot be formed") from None
        with np.errstate(over="ignore", invalid="ignore"):
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
        for flow, t in zip(flows, thetas):
            if not np.all(np.isfinite(flow)):
                raise ValueError(f"oracle theta={float(t)!r} is out of range: "
                                 "its flow exp(theta K1 + theta^2 K2) is not finite")
            s = flow @ s0
            s_t = np.ascontiguousarray(s.T)
            with np.errstate(over="ignore", invalid="ignore"):
                out.append([(s[idx] @ mean, ((s[idx] @ cov) @ s_t)[:, idx]) for idx, mean, cov in inputs])
            if not all(np.isfinite(x).all() for moments in out[-1] for x in moments):
                raise ValueError(f"oracle theta={float(t)!r} is out of range: the probes' moments at it are not finite")
        return out

    return family


@_one_blas_thread()
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
    is the difference of the last two extrapolants. The smallest step
    carries the extrapolant, so a fidelity below 1/2 there is refused by
    name: no step is then a second difference, and the extrapolant is a
    number of the steps alone. So is a smallest step whose ``(2d)^2``
    underflows below the smallest normal float, before ``family`` is called.
    """
    steps = tuple(float(s) for s in steps)
    if not steps or any(s <= 0.0 for s in steps):
        raise ValueError("steps must be positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must decrease")
    if 2.0 * steps[-1] < math.sqrt(sys.float_info.min):
        raise ValueError(f"oracle step d={steps[-1]!r} at theta={float(theta)!r} is too small: (2d)^2 underflows "
                         "below the smallest normal float, so the finite difference divides by roundoff")
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
        fids = [fid(cov_a + bump, cov_b + bump, mean_b - mean_a)
                for (fid, bump), (mean_a, cov_a), (mean_b, cov_b) in zip(per_probe, minus, plus)]
        if d == steps[-1] and not min(fids) >= 0.5:
            raise ValueError(f"oracle fidelity F={float(min(fids))!r} at theta={theta!r}, step d={d!r} is below 1/2: "
                             "the ladder's closest states are too far apart for a finite difference of the QFI")
        return [8.0 * (1.0 - np.sqrt(f)) / (2.0 * d) ** 2 for f in fids]

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
