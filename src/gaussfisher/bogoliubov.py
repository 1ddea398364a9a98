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
measured residuals. :class:`BogoliubovSeries` holds a channel to second
order in its parameter, and :func:`covariance_series` reads the covariance
orders of the probed modes off its block rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import GaussianState, quadrature_indices, symplectic_form


def _assemble(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Real 2r x 2n matrix from complex r x n coefficient matrices.

    With ``r = n`` this is the whole channel; with ``r`` selected rows it is
    the block rows of those output modes.
    """
    r, n = alpha.shape
    s = np.empty((2 * r, 2 * n))
    d = alpha - beta
    u = alpha + beta
    s[0::2, 0::2] = d.real
    s[0::2, 1::2] = u.imag
    s[1::2, 0::2] = -d.imag
    s[1::2, 1::2] = u.real
    return s


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


@dataclass(frozen=True)
class BogoliubovSeries:
    """Coefficient matrices of a channel expanded to second order in a small
    parameter ``theta``.

    ``alpha(theta) = diag(G) + alpha1 theta + alpha2 theta^2`` and
    ``beta(theta) = beta1 theta + beta2 theta^2``, where the zeroth order is a
    pure phase ``G_n = exp(i phi_n)`` on each mode.
    """

    n_max: int
    G: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    #: perturbative truncation residuals already derived from the read-only
    #: matrices, keyed by the probed modes
    _residual_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.G, dtype=complex).reshape(-1)
        if g.shape != (self.n_max,):
            raise ValueError("G must have length n_max")
        if np.max(np.abs(np.abs(g) - 1.0)) > 1e-12:
            raise ValueError("zeroth-order phases G must have unit modulus")
        mats = {}
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (self.n_max, self.n_max):
                raise ValueError(f"{name} must be n_max x n_max")
            m.setflags(write=False)
            mats[name] = m
        g.setflags(write=False)
        object.__setattr__(self, "G", g)
        for name, m in mats.items():
            object.__setattr__(self, name, m)

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

    def unitarity_residuals(self, modes=None) -> tuple[float, float]:
        """Max-norm defects of the order-by-order channel identities.

        First order: ``diag(G) alpha1^dag + alpha1 diag(G)^dag = 0`` and
        ``G_m beta1_nm = G_n beta1_mn``. Second order:
        ``diag(G) alpha2^dag + alpha2 diag(G)^dag + alpha1 alpha1^dag
        - beta1 beta1^dag = 0`` plus the symmetric-part condition on
        ``alpha beta^T``. Exact channels built from generators satisfy both to
        machine precision; truncated ones report their tail here. With
        ``modes`` given (1-based, distinct), the norms are restricted to the
        submatrix of those modes, which is the defect feeding the probed-mode
        physics; unrestricted norms are dominated by the edge of the mode ladder.
        Only that submatrix is computed: ``O(m^2 n)`` for ``m`` modes.
        """
        # the x quadrature of mode k sits at 2k - 2
        idx = np.arange(self.n_max) if modes is None else quadrature_indices(modes, self.n_max)[::2] // 2
        sub = np.ix_(idx, idx)
        # diag(G) acts by broadcasting: (diag(G) M)_ij = G_i M_ij
        gi = self.G[idx][:, None]
        gj = np.conj(self.G[idx])[None, :]
        a1, b1 = self.alpha1[idx], self.beta1[idx]
        a1_pp, b1_pp = a1[:, idx], b1[:, idx]
        r1a = gi * a1_pp.conj().T + a1_pp * gj
        gb1 = gi * b1_pp.T
        r1b = gb1 - gb1.T
        # the spectator sums only need the probed rows of the first orders
        r2a = (
            gi * self.alpha2[sub].conj().T
            + self.alpha2[sub] * gj
            + a1 @ a1.conj().T
            - b1 @ b1.conj().T
        )
        m = gi * self.beta2[sub].T + a1 @ b1.T
        r2b = m - m.T

        def norm(mat: np.ndarray) -> float:
            return float(np.max(np.abs(mat)))

        return max(norm(r1a), norm(r1b)), max(norm(r2a), norm(r2b))


@dataclass(frozen=True)
class CovarianceSeries:
    """Order-by-order reduced covariance and first moments of probed modes."""

    sigma0: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    mean0: np.ndarray
    mean1: np.ndarray


def covariance_series(
    series: BogoliubovSeries, modes, input_state: GaussianState
) -> CovarianceSeries:
    """Collect theta powers of the reduced covariance of the probed modes.

    ``input_state`` lives on the probed modes only (all other modes vacuum).
    The coefficients are exact polynomials of the series matrices; no
    numerical differentiation is involved. Only the ``2m`` probed rows of
    ``S0``, ``S1`` and ``S2`` are assembled, so the cost is ``O(m^2 n)``
    rather than the ``O(n^3)`` of the full ``S Sigma_in S^T``.
    """
    idx = quadrature_indices(modes, series.n_max)
    if 2 * input_state.n_modes != idx.size:
        raise ValueError("input state must live on the probed modes")

    # only the block rows of the probed modes are ever needed
    rows = idx[::2] // 2
    zeros = np.zeros((rows.size, series.n_max), dtype=complex)
    s0 = _assemble(np.diag(series.G)[rows], zeros)
    s1 = _assemble(series.alpha1[rows], series.beta1[rows])
    s2 = _assemble(series.alpha2[rows], series.beta2[rows])
    excess = input_state.covariance - np.eye(idx.size)
    x_in = input_state.first_moments

    def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # rows of a Sigma_in b^T with Sigma_in = I + P (Sigma_pp - I) P^T
        return a @ b.T + a[:, idx] @ excess @ b[:, idx].T

    sigma0 = sandwich(s0, s0)
    cross1 = sandwich(s1, s0)
    sigma1 = cross1 + cross1.T
    cross2 = sandwich(s2, s0)
    sigma2 = cross2 + cross2.T + sandwich(s1, s1)
    mean0 = s0[:, idx] @ x_in
    mean1 = s1[:, idx] @ x_in
    return CovarianceSeries(sigma0, sigma1, sigma2, mean0, mean1)


def series_to_csv(series: BogoliubovSeries) -> str:
    """Serialize a series as ``component,m,n,re,im`` lines (1-based m, n)."""
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

    ``n_max`` is the largest row index. Every ``g`` row (``m == n``) and every
    matrix entry must appear exactly once, with indices in ``1..n_max`` and
    finite values; anything else raises ``ValueError`` naming the line.
    """
    names = ("alpha1", "alpha2", "beta1", "beta2")
    rows = []
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]
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
    g = np.ones(n_max, dtype=complex)
    mats = {name: np.zeros((n_max, n_max), dtype=complex) for name in names}
    seen = set()
    for ln, comp, m, n, value in rows:
        if comp != "g" and comp not in mats:
            raise ValueError(f"channel line {ln}: unknown component {comp!r}")
        if not (1 <= m <= n_max and 1 <= n <= n_max) or (comp == "g" and m != n):
            raise ValueError(f"channel line {ln}: {comp} index ({m}, {n}) out of range for n_max {n_max}")
        if not np.isfinite(value):
            raise ValueError(f"channel line {ln}: non-finite value")
        if (comp, m, n) in seen:
            raise ValueError(f"channel line {ln}: duplicate {comp} entry ({m}, {n})")
        seen.add((comp, m, n))
        if comp == "g":
            g[m - 1] = value
        else:
            mats[comp][m - 1, n - 1] = value
    expected = [("g", k, k) for k in range(1, n_max + 1)]
    expected += [(c, m, n) for c in names for m in range(1, n_max + 1) for n in range(1, n_max + 1)]
    missing = [key for key in expected if key not in seen]
    if missing:
        comp, m, n = missing[0]
        raise ValueError(f"channel file lacks {len(missing)} entries, first {comp} ({m}, {n})")
    return BogoliubovSeries(n_max, g, mats["alpha1"], mats["alpha2"], mats["beta1"], mats["beta2"])
