"""Bogoliubov coefficient matrices, their small-parameter series, and the
phase-space (symplectic) representation acting on Gaussian states.

A channel mixing annihilation and creation operators,
``a~_m = sum_n (alpha*_mn a_n - beta*_mn a_n^dag)``, is stored as the complex
matrix pair ``(alpha, beta)``. Exact channels satisfy

    alpha alpha^dag - beta beta^dag = I      (commutators preserved)
    alpha beta^T symmetric                   (pair structure)

and map to a real symplectic matrix built from 2x2 blocks; truncating the
mode ladder at ``n_max`` turns the identities into measured residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import GaussianState, symplectic_form


def block_from_coefficients(alpha: complex, beta: complex) -> np.ndarray:
    """2x2 phase-space block of a single ``(alpha_mn, beta_mn)`` pair.

    ``[[Re(a-b), Im(a+b)], [-Im(a-b), Re(a+b)]]``
    """
    return np.array(
        [
            [(alpha - beta).real, (alpha + beta).imag],
            [-(alpha - beta).imag, (alpha + beta).real],
        ]
    )


def coefficients_from_block(block: np.ndarray) -> tuple[complex, complex]:
    """Inverse of :func:`block_from_coefficients`."""
    m11, m12 = block[0]
    m21, m22 = block[1]
    alpha = complex((m11 + m22) / 2.0, (m12 - m21) / 2.0)
    beta = complex((m22 - m11) / 2.0, (m12 + m21) / 2.0)
    return alpha, beta


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


def _disassemble(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex ``(alpha, beta)`` matrices from a real block matrix."""
    m11 = matrix[0::2, 0::2]
    m12 = matrix[0::2, 1::2]
    m21 = matrix[1::2, 0::2]
    m22 = matrix[1::2, 1::2]
    alpha = 0.5 * (m11 + m22) + 0.5j * (m12 - m21)
    beta = 0.5 * (m22 - m11) + 0.5j * (m12 + m21)
    return alpha, beta


@dataclass(frozen=True)
class BogoliubovMatrices:
    """Coefficient matrices of a (possibly truncated) Bogoliubov channel."""

    n_max: int
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=complex)
        beta = np.asarray(self.beta, dtype=complex)
        if alpha.shape != (self.n_max, self.n_max) or beta.shape != alpha.shape:
            raise ValueError("alpha and beta must be n_max x n_max")
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def identity_residual(self) -> float:
        """Max-norm violation of the two Bogoliubov identities.

        Nonzero values on truncated channels measure the discarded mode tail.
        """
        d1 = self.alpha @ self.alpha.conj().T - self.beta @ self.beta.conj().T - np.eye(self.n_max)
        d2 = self.alpha @ self.beta.T - (self.alpha @ self.beta.T).T
        return max(np.max(np.abs(d1)), np.max(np.abs(d2)))


@dataclass(frozen=True)
class SymplecticMatrix:
    """Real phase-space transformation in the interleaved quadrature ordering."""

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValueError("matrix must be 2n x 2n")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def omega_residual(self, modes=None) -> float:
        """Max-norm of ``S Omega S^T - Omega``.

        With ``modes`` given (1-based), the norm is restricted to the block
        rows and columns of those modes. On truncated channels the full-matrix
        norm is dominated by the edge of the mode ladder, while the restricted
        norm measures how well the transformation closes on the modes one
        actually probes.
        """
        omega = symplectic_form(self.n_modes)
        defect = self.matrix @ omega @ self.matrix.T - omega
        if modes is None:
            return float(np.max(np.abs(defect)))
        idx = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes]).astype(int)
        return float(max(np.max(np.abs(defect[idx, :])), np.max(np.abs(defect[:, idx]))))


def symplectic_from_bogoliubov(
    bogo: BogoliubovMatrices, max_residual: float | None = None
) -> SymplecticMatrix:
    """Assemble the symplectic matrix of a Bogoliubov channel.

    If ``max_residual`` is given, the channel is rejected when its identity
    residual exceeds the bound.
    """
    res = bogo.identity_residual()
    if max_residual is not None and res > max_residual:
        raise ValueError(
            f"Bogoliubov identity residual {res:.3e} exceeds bound {max_residual:.3e}"
        )
    return SymplecticMatrix(bogo.n_max, _assemble(bogo.alpha, bogo.beta))


def apply_channel(s: SymplecticMatrix, state: GaussianState) -> GaussianState:
    """Transform a state: means ``S <X>``, covariance ``S Sigma S^T``."""
    if s.n_modes != state.n_modes:
        raise ValueError(f"channel has {s.n_modes} modes, state has {state.n_modes}")
    m = s.matrix
    return GaussianState(state.n_modes, m @ state.first_moments, m @ state.covariance @ m.T)


def symplectify(matrix: np.ndarray, iterations: int = 3) -> np.ndarray:
    """Project a nearly symplectic matrix onto the symplectic group.

    Averages ``S`` with ``Omega S^-T Omega^-1`` (a fixed point exactly on the
    group); each pass removes the leading non-symplectic part, so a few
    iterations reach machine precision for small defects. Used to turn a
    series-truncated channel into an exactly physical one.
    """
    n = matrix.shape[0] // 2
    omega = symplectic_form(n)
    s = np.array(matrix, dtype=float)
    for _ in range(iterations):
        s = 0.5 * (s + omega @ np.linalg.inv(s).T @ np.linalg.inv(omega))
    return s


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

    @property
    def phases(self) -> np.ndarray:
        """Mode phases ``phi_n = arg G_n``."""
        return np.angle(self.G)

    def evaluate(self, theta: float) -> BogoliubovMatrices:
        """Coefficient matrices at a finite parameter value.

        The quadratic truncation leaves identity residuals of order
        ``theta^3`` plus the mode-truncation tail; validity degrades beyond
        ``|theta| ~ 0.1``.
        """
        alpha = np.diag(self.G) + self.alpha1 * theta + self.alpha2 * theta**2
        beta = self.beta1 * theta + self.beta2 * theta**2
        return BogoliubovMatrices(self.n_max, alpha, beta)

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
        ``modes`` given (1-based), the norms are restricted to the submatrix
        of those modes, which is the defect feeding the probed-mode physics;
        unrestricted norms are dominated by the edge of the mode ladder.
        Only that submatrix is computed: ``O(m^2 n)`` for ``m`` modes.
        """
        idx = np.arange(self.n_max) if modes is None else np.array([k - 1 for k in modes])
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

    def covariance_at(self, theta: float) -> np.ndarray:
        return self.sigma0 + self.sigma1 * theta + self.sigma2 * theta**2


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
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("probed modes must be distinct")
    if input_state.n_modes != len(modes):
        raise ValueError("input state must live on the probed modes")
    for k in modes:
        if not 1 <= k <= series.n_max:
            raise ValueError(f"mode index {k} out of range 1..{series.n_max}")

    # only the block rows of the probed modes are ever needed
    rows = np.array(modes) - 1
    zeros = np.zeros((len(modes), series.n_max), dtype=complex)
    s0 = _assemble(np.diag(series.G)[rows], zeros)
    s1 = _assemble(series.alpha1[rows], series.beta1[rows])
    s2 = _assemble(series.alpha2[rows], series.beta2[rows])
    idx = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes]).astype(int)
    excess = input_state.covariance - np.eye(2 * len(modes))
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


def reduced_covariance_single(
    series: BogoliubovSeries, k: int, sigma0: np.ndarray, theta: float
) -> np.ndarray:
    """Reduced covariance of mode ``k`` after the channel, by block sums.

    ``M_kk sigma0 M_kk^T + sum_{n != k} M_kn M_kn^T`` with every block
    evaluated at ``theta``; agrees with transforming the full state and
    tracing out, up to the truncation tail.
    """
    if not 1 <= k <= series.n_max:
        raise ValueError(f"mode index {k} out of range 1..{series.n_max}")
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.shape != (2, 2):
        raise ValueError("sigma0 must be a 2x2 single-mode covariance")
    bogo = series.evaluate(theta)
    i = k - 1
    mkk = block_from_coefficients(bogo.alpha[i, i], bogo.beta[i, i])
    out = mkk @ sigma0 @ mkk.T
    for n in range(series.n_max):
        if n == i:
            continue
        mkn = block_from_coefficients(bogo.alpha[i, n], bogo.beta[i, n])
        out += mkn @ mkn.T
    return out


def transformed_two_mode_blocks(
    series: BogoliubovSeries,
    k: int,
    k_prime: int,
    psi_k: np.ndarray,
    psi_kp: np.ndarray,
    phi_kkp: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Reduced 4x4 covariance of modes ``(k, k')`` after the channel.

    The input two-mode covariance has diagonal blocks ``psi_k``, ``psi_kp``
    and correlation block ``phi_kkp``. Each output block is

        C_ij = M_ik psi_k M_jk^T + M_ik phi M_jk'^T + M_ik' phi^T M_jk^T
             + M_ik' psi_k' M_jk'^T + sum_{n != k, k'} M_in M_jn^T

    which is the (i, j) block of ``S Sigma_0 S^T`` with vacuum on the
    unprobed modes.
    """
    if k == k_prime:
        raise ValueError("probed modes must be distinct")
    bogo = series.evaluate(theta)

    def m(i: int, n: int) -> np.ndarray:
        return block_from_coefficients(bogo.alpha[i - 1, n - 1], bogo.beta[i - 1, n - 1])

    psi_k = np.asarray(psi_k, dtype=float)
    psi_kp = np.asarray(psi_kp, dtype=float)
    phi = np.asarray(phi_kkp, dtype=float)
    out = np.zeros((4, 4))
    probe = (k, k_prime)
    for bi, i in enumerate(probe):
        for bj, j in enumerate(probe):
            c = (
                m(i, k) @ psi_k @ m(j, k).T
                + m(i, k) @ phi @ m(j, k_prime).T
                + m(i, k_prime) @ phi.T @ m(j, k).T
                + m(i, k_prime) @ psi_kp @ m(j, k_prime).T
            )
            for n in range(1, series.n_max + 1):
                if n in probe:
                    continue
                c += m(i, n) @ m(j, n).T
            out[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2] = c
    return out


def synthetic_unitary_series(
    n_max: int,
    rng: np.random.Generator,
    strength: float = 0.3,
    zero_diagonal: bool = False,
    random_phases: bool = True,
) -> BogoliubovSeries:
    """Random channel series satisfying the order-by-order identities exactly.

    Built from ``S(theta) = exp(theta K1 + theta^2 K2) S0`` with ``K1, K2``
    in the symplectic algebra and ``S0`` a phase rotation on each mode, then
    read off order by order. With ``zero_diagonal`` the diagonal blocks of
    ``K1`` are removed, mimicking channels whose first-order diagonal
    coefficients vanish.
    """
    omega = symplectic_form(n_max)

    def algebra_element(zero_diag: bool) -> np.ndarray:
        q = rng.normal(scale=strength, size=(2 * n_max, 2 * n_max))
        q = 0.5 * (q + q.T)
        if zero_diag:
            # Omega is block diagonal, so K = Omega Q has zero diagonal
            # blocks exactly when Q does
            for i in range(n_max):
                q[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.0
        return omega @ q

    k1 = algebra_element(zero_diagonal)
    k2 = algebra_element(False)
    phases = rng.uniform(0.0, 2 * np.pi, size=n_max) if random_phases else np.zeros(n_max)
    g = np.exp(1j * phases)
    s0 = _assemble(np.diag(g), np.zeros((n_max, n_max), dtype=complex))
    s1 = k1 @ s0
    s2 = (k2 + 0.5 * k1 @ k1) @ s0
    a1, b1 = _disassemble(s1)
    a2, b2 = _disassemble(s2)
    return BogoliubovSeries(n_max, g, a1, a2, b1, b2)


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


def matrices_to_csv(bogo: BogoliubovMatrices) -> str:
    """Serialize finite coefficient matrices as ``component,m,n,re,im`` lines."""
    lines = ["component,m,n,re,im"]
    for name, mat in (("alpha", bogo.alpha), ("beta", bogo.beta)):
        for m in range(bogo.n_max):
            for n in range(bogo.n_max):
                v = mat[m, n]
                lines.append(f"{name},{m + 1},{n + 1},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def matrices_from_csv(text: str) -> BogoliubovMatrices:
    """Parse the output of :func:`matrices_to_csv`."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:] if line.strip()]
    n_max = max(int(r[1]) for r in rows)
    mats = {"alpha": np.zeros((n_max, n_max), dtype=complex), "beta": np.zeros((n_max, n_max), dtype=complex)}
    for comp, m, n, re, im in rows:
        mats[comp][int(m) - 1, int(n) - 1] = complex(float(re), float(im))
    return BogoliubovMatrices(n_max, mats["alpha"], mats["beta"])
