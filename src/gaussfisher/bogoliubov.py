"""Bogoliubov channels as coefficient matrices, their small-parameter
series, and the probed-mode covariance orders they induce.

A channel mixing annihilation and creation operators,
``a~_m = sum_n (alpha*_mn a_n - beta*_mn a_n^dag)``, is stored as the complex
matrix pair ``(alpha, beta)``. Exact channels satisfy

    alpha alpha^dag - beta beta^dag = I      (commutators preserved)
    alpha beta^T symmetric                   (pair structure)

or, equivalently, the real matrix ``S`` built from 2x2 blocks is symplectic,
``S Omega S^T = Omega``. :func:`identity_residual` measures that on a window
of modes; truncating the mode ladder at ``n_max`` turns the identities into
measured residuals. :class:`BogoliubovSeries` holds one whole channel to
second order in its parameter. What a probe on a few modes reads of it is
one :class:`ReducedChannel`, the single- or two-mode Gaussian channel those
modes see, which :func:`_reduce` alone builds from the output rows its
arrays are on: every mode of a whole series, or a few stacked over a grid;
:meth:`ReducedChannel.covariance_orders` reads the covariance orders of a
probe state off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .states import quadrature_indices, symplectic_form


def _assemble(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Real ``(..., 2r, 2n)`` matrices from complex ``(..., r, n)`` coefficients.

    With ``r = n`` this is the whole channel; with ``r`` selected rows it is
    the block rows of those output modes. Leading axes are a stack of
    channels.
    """
    *stack, r, n = alpha.shape
    s = np.empty((*stack, 2 * r, 2 * n))
    # Re and Im of alpha -+ beta, written in place: no complex temporaries
    np.subtract(alpha.real, beta.real, out=s[..., 0::2, 0::2])
    np.add(alpha.imag, beta.imag, out=s[..., 0::2, 1::2])
    lower = s[..., 1::2, 0::2]
    np.negative(np.subtract(alpha.imag, beta.imag, out=lower), out=lower)
    np.add(alpha.real, beta.real, out=s[..., 1::2, 1::2])
    return s


def _t(mat: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: the matrix transpose on a stack."""
    return mat.swapaxes(-1, -2)


def identity_residual(alpha: np.ndarray, beta: np.ndarray, rows=None, cols=None) -> float:
    """Max-norm of ``S_r Omega S_c^T - Omega_rc`` for the channel ``(alpha, beta)``.

    ``S_r`` and ``S_c`` are the block rows of the output modes ``rows`` and
    ``cols`` (1-based and distinct; ``None`` means all), so the norm covers
    that window of ``S Omega S^T - Omega`` and no other block row is
    assembled. The defect is antisymmetric, so ``(rows, None)`` also covers
    the block columns of ``rows``. On truncated channels the full norm is
    dominated by the edge of the mode ladder; a window on the probed modes
    measures how well the channel closes on the modes one actually probes.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    n = alpha.shape[1]
    everything = range(1, n + 1)
    rows = everything if rows is None else rows
    cols = everything if cols is None else cols
    omega = symplectic_form(n)
    omega_rc = omega[np.ix_(quadrature_indices(rows, n), quadrature_indices(cols, n))]
    rows, cols = np.asarray(rows, dtype=int) - 1, np.asarray(cols, dtype=int) - 1
    s_r = _assemble(alpha[rows], beta[rows])
    s_c = _assemble(alpha[cols], beta[cols])
    defect = s_r @ omega @ s_c.T - omega_rc
    return float(np.max(np.abs(defect)))


def _keep(store: dict, key, build):
    """``store[key]``, or else ``build()``, kept there as the store's one
    value: the one way a process keeps values between calls. A miss empties
    the store before it builds, so a build that raises keeps nothing and no
    two values are alive at once. Each kept value freezes its own arrays.
    Like the oracle's BLAS setting, it is not meant for concurrent threads."""
    if key not in store:
        store.clear()
        store[key] = build()
    return store[key]


@dataclass(frozen=True)
class BogoliubovSeries:
    """Coefficient matrices of a channel expanded to second order in a small
    parameter ``theta``.

    ``alpha(theta) = diag(G) + alpha1 theta + alpha2 theta^2`` and
    ``beta(theta) = beta1 theta + beta2 theta^2``, where the zeroth order is a
    pure phase ``G_n = exp(i phi_n)`` on each mode.

    ``n_max`` is the length of ``G``, ``(n_max,)``, and each matrix is
    ``(n_max, n_max)``: a series is one channel. What a probe on a few modes
    reads of it is :meth:`reduced`.
    """

    G: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.G, dtype=complex)
        if g.ndim != 1:
            raise ValueError(f"G must have shape (n_max,), not {g.shape}: a series is one channel")
        # written so that a NaN phase fails it too
        if not np.all(np.abs(np.abs(g) - 1.0) <= 1e-12):
            raise ValueError("zeroth-order phases G must have unit modulus")
        shape = (g.size, g.size)
        g.setflags(write=False)
        object.__setattr__(self, "G", g)
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def n_max(self) -> int:
        return self.G.size

    def reduced(self, modes) -> ReducedChannel:
        """What a probe on the 1-based ``modes`` reads of the channel."""
        return _reduce(self.G, self.alpha1, self.alpha2, self.beta1, self.beta2, modes, range(1, self.n_max + 1))

    def evaluate(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Read-only coefficient matrices ``(alpha, beta)`` at a finite
        parameter value.

        The quadratic truncation leaves identity residuals of order
        ``theta^3`` plus the mode-truncation tail; validity degrades beyond
        ``|theta| ~ 0.1``.
        """
        alpha = np.diag(self.G) + self.alpha1 * theta + self.alpha2 * theta**2
        beta = self.beta1 * theta + self.beta2 * theta**2
        alpha.setflags(write=False)
        beta.setflags(write=False)
        return alpha, beta

    def symplectic_orders(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real matrices ``(S0, S1, S2)`` with ``S(theta) = S0 + S1 theta + S2 theta^2``."""
        s0 = _assemble(np.diag(self.G), np.zeros((self.n_max, self.n_max), dtype=complex))
        s1 = _assemble(self.alpha1, self.beta1)
        s2 = _assemble(self.alpha2, self.beta2)
        return s0, s1, s2

    def unitarity_residuals(self, modes=None):
        """Max-norm defects ``(first, second)`` of the order-by-order channel
        identities on the submatrix of the 1-based ``modes`` (``None`` means
        all), two floats: see :func:`_identity_defects`.
        """
        modes = range(1, self.n_max + 1) if modes is None else modes
        cols = quadrature_indices(modes, self.n_max)[::2] // 2
        block = np.ix_(cols, cols)
        a1, b1 = self.alpha1[cols], self.beta1[cols]
        return _identity_defects(self.G[cols], a1[:, cols], b1[:, cols], self.alpha2[block], self.beta2[block],
                                 *_grams(a1, b1))


def _grams(a1, b1):
    """The sums over every mode of first-order rows: ``(a1 a1^dag, b1 b1^dag, a1 b1^T)``."""
    return a1 @ _t(a1).conj(), b1 @ _t(b1).conj(), a1 @ _t(b1)


def _identity_defects(g, a1, b1, a2, b2, aa, bb, ab):
    """Max-norm defects ``(first, second)`` of the order-by-order channel
    identities on a window of probed modes, per channel.

    First order: ``diag(G) alpha1^dag + alpha1 diag(G)^dag = 0`` and
    ``G_m beta1_nm = G_n beta1_mn``. Second order:
    ``diag(G) alpha2^dag + alpha2 diag(G)^dag + alpha1 alpha1^dag
    - beta1 beta1^dag = 0`` plus the symmetric-part condition on
    ``alpha beta^T``. Exact channels satisfy both to machine precision;
    truncated ones report their tail, which on a window of probed modes is
    the defect feeding their physics. It reads the window's phases ``g``,
    the probed blocks ``a1``, ``b1``, ``a2`` and ``b2`` of the orders and
    the window rows' :func:`_grams` ``aa``, ``bb``, ``ab``, all in its order.
    """
    # diag(G) acts by broadcasting: (diag(G) M)_ij = G_i M_ij
    gi = g[..., :, None]
    gj = np.conj(g)[..., None, :]
    r1a = gi * _t(a1).conj() + a1 * gj
    gb1 = gi * _t(b1)
    r1b = gb1 - _t(gb1)
    r2a = gi * _t(a2).conj() + a2 * gj + aa - bb
    m = gi * _t(b2) + ab
    r2b = m - _t(m)

    def norm(mat: np.ndarray):
        return np.abs(mat).max(axis=(-2, -1))

    return np.maximum(norm(r1a), norm(r1b)), np.maximum(norm(r2a), norm(r2b))


@dataclass(frozen=True)
class ReducedChannel:
    """What a probe on ``modes`` reads of a channel, or of each channel of a
    stack: the Gaussian channel ``sigma -> A sigma A^T + B``, ``mu -> A mu``
    of those modes, to second order in theta. It holds the probed ``2m x 2m``
    blocks ``s0``, ``s1``, ``s2`` (``A0``, ``A1``, ``A2``) of the symplectic
    orders, the spectators' noise ``b2`` (``B2 = S1 S1^T - A1 A1^T``) and the
    probed ``beta1`` block, all in ``modes`` order, and the truncation
    ``residual``. Only :func:`_reduce` builds one; its arrays are read-only.
    """

    modes: tuple
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    b2: np.ndarray
    beta1: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def covariance_orders(self, state) -> tuple:
        """``(sigma0, sigma1, sigma2, mean1)``: the theta powers of the
        covariance and the first-order first moments of the probed modes,
        for a ``state`` that lives on them (all other modes vacuum).

        The coefficients are exact polynomials of the reduced orders; no
        numerical differentiation is involved. ``S0`` vanishes outside the
        probed columns and the spectators are vacuum, so the orders are
        those of the channel ``sigma -> A sigma A^T + B``:

            sigma0 = A0 Sigma A0^T
            sigma1 = A1 Sigma A0^T + transpose
            sigma2 = A2 Sigma A0^T + transpose + A1 Sigma A1^T + B2
            mean1  = A1 mu

        A call pays only for ``2m x 2m`` products. A stack gives orders with
        its leading axes: ``(..., 2m, 2m)`` and ``(..., 2m)``.
        """
        if 2 * state.n_modes != self.s0.shape[-1]:
            raise ValueError("input state must live on the probed modes")
        s0, s1 = self.s0, self.s1
        sigma = state.covariance
        sigma_s0 = sigma @ _t(s0)
        sigma0 = s0 @ sigma_s0
        cross2 = self.s2 @ sigma_s0
        cross1 = s1 @ sigma_s0
        sigma1 = cross1 + _t(cross1)
        sigma2 = cross2 + _t(cross2) + s1 @ sigma @ _t(s1) + self.b2
        return sigma0, sigma1, sigma2, s1 @ state.first_moments


def _reduce(g, alpha1, alpha2, beta1, beta2, modes, rows) -> ReducedChannel:
    """The :class:`ReducedChannel` of the 1-based ``modes``: the one reducer.

    The channel, or a stack, is given on the output ``rows`` (a whole one on
    ``range(1, n_max + 1)``) by their phases, first orders and second-order
    block ``rows x rows``, in ``rows`` order; only the probed rows are read,
    as a view when they run consecutively. Their :func:`_grams`, the only sums
    over every mode, give ``S1 S1^T`` and the second-order identity defect on
    the probed window; the residual is the larger of that defect and the tail,
    the probed rows' largest term in the highest spectator's column.
    """
    modes = tuple(modes)
    n = alpha1.shape[-1]
    cols = quadrature_indices(modes, n)[::2] // 2
    pos = np.array([rows.index(k) for k in modes])
    if pos.size and np.array_equal(pos, np.arange(pos[0], pos[0] + pos.size)):
        pos = slice(pos[0], pos[0] + pos.size)
    a1, b1 = alpha1[..., pos, :], beta1[..., pos, :]
    a2, b2 = alpha2[..., pos, :][..., pos], beta2[..., pos, :][..., pos]
    g = g[..., pos]
    a1_p, b1_p = a1[..., cols], b1[..., cols]
    aa, bb, ab = _grams(a1, b1)
    _, second = _identity_defects(g, a1_p, b1_p, a2, b2, aa, bb, ab)
    last = next((k for k in range(n, 0, -1) if k not in modes), None)
    tail = 0.0 if last is None else np.maximum(0.5 * np.max(np.abs(a1[..., last - 1]) ** 2, axis=-1),
                                               0.5 * np.max(np.abs(b1[..., last - 1]) ** 2, axis=-1))
    residual = np.asarray(np.maximum(tail, second))
    s0 = _assemble(g[..., None] * np.eye(cols.size), np.zeros((cols.size, cols.size)))
    s1 = _assemble(a1_p, b1_p)
    noise = _assemble(aa + bb, ab + _t(ab)) - s1 @ _t(s1)
    return ReducedChannel(modes, s0, s1, _assemble(a2, b2), noise, b1_p, residual)


def series_to_csv(series: BogoliubovSeries) -> str:
    """Serialize a series as ``component,m,n,re,im`` lines (1-based m, n):
    the channel file that the CLI's ``--channel`` reads with
    :func:`series_from_csv`."""
    lines = ["component,m,n,re,im"]
    for n, g in enumerate(series.G, start=1):
        lines.append(f"g,{n},{n},{float(g.real)!r},{float(g.imag)!r}")
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        mat = getattr(series, name)
        for m in range(series.n_max):
            for n in range(series.n_max):
                v = mat[m, n]
                lines.append(f"{name},{m + 1},{n + 1},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def series_from_csv(text: str) -> BogoliubovSeries:
    """Parse the output of :func:`series_to_csv`.

    The first non-blank line must be the header. ``n_max`` is the
    largest row index. Every ``g`` row (``m == n``) and every matrix entry
    must appear exactly once, with indices in ``1..n_max`` and
    finite values; anything else raises ``ValueError`` naming the line.
    """
    names = ("alpha1", "alpha2", "beta1", "beta2")
    rows = []
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if lines and lines[0][1].strip() != "component,m,n,re,im":
        ln, line = lines[0]
        raise ValueError(f"channel line {ln}: expected the header component,m,n,re,im, got {line.strip()!r}")
    for ln, line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) != 5:
                raise ValueError("expected component,m,n,re,im")
            comp, m, n, re, im = fields
            rows.append((ln, comp, int(m), int(n), complex(float(re), float(im))))
        except ValueError as exc:
            raise ValueError(f"channel line {ln}: {exc}") from None
    if not rows:
        raise ValueError("channel file has no coefficient rows")
    n_max = max(row[2] for row in rows)
    seen = {}
    for ln, comp, m, n, value in rows:
        if comp != "g" and comp not in names:
            raise ValueError(f"channel line {ln}: unknown component {comp!r}")
        if not (1 <= m <= n_max and 1 <= n <= n_max) or (comp == "g" and m != n):
            raise ValueError(f"channel line {ln}: {comp} index ({m}, {n}) out of range for n_max {n_max}")
        if not np.isfinite(value):
            raise ValueError(f"channel line {ln}: non-finite value")
        if (comp, m, n) in seen:
            raise ValueError(f"channel line {ln}: duplicate {comp} entry ({m}, {n})")
        seen[comp, m, n] = value
    # every entry is distinct and in range, so a short file is refused by its
    # count, before anything of the n_max it claims is allocated
    lacking = n_max + len(names) * n_max**2 - len(seen)
    if lacking:
        ladder = range(1, n_max + 1)
        # a generator, as itertools.product would hold the whole ladder twice
        expected = itertools.chain((("g", k, k) for k in ladder),
                                   ((c, m, n) for c in names for m in ladder for n in ladder))
        comp, m, n = next(key for key in expected if key not in seen)
        raise ValueError(f"channel file lacks {lacking} entries, first {comp} ({m}, {n})")
    g = np.ones(n_max, dtype=complex)
    mats = {name: np.zeros((n_max, n_max), dtype=complex) for name in names}
    for (comp, m, n), value in seen.items():
        if comp == "g":
            g[m - 1] = value
        else:
            mats[comp][m - 1, n - 1] = value
    return BogoliubovSeries(g, mats["alpha1"], mats["alpha2"], mats["beta1"], mats["beta2"])
