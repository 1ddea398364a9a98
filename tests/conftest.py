from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from gaussfisher import cavity, sweeps
from gaussfisher.cavity import compose_one_segment, mode_phases, perturbative_overlaps, rindler_overlaps
from gaussfisher.bogoliubov import BogoliubovSeries, _assemble
from gaussfisher.fidelity import FidelityError, fidelity_one_mode, fidelity_two_mode
from gaussfisher.qfi import qfi_perturbative
from gaussfisher.states import GaussianState, quadrature_indices, symplectic_form
from gaussfisher.sweeps import SWEEP_COLUMNS


@pytest.fixture(autouse=True)
def fresh_series_memo():
    """Every test starts with no fitted overlap series and no composed stack
    kept in the process, so a test that counts or refuses the fit's builds
    or the compositions sees the same builds whichever tests ran before it."""
    cavity._fitted.clear()
    sweeps._composed.clear()


# State and fidelity helpers that only the tests use: the package itself
# needs none of them.

EIGENVALUE_PAIRING_RTOL = 1e-8


def vacuum_state(n_modes: int) -> GaussianState:
    """Vacuum of ``n_modes`` modes: zero means, identity covariance."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def embed_state(n_modes: int, modes, state: GaussianState) -> GaussianState:
    """Embed a small state into ``n_modes`` modes, vacuum everywhere else.

    ``modes`` (1-based, distinct) says where the given state's modes go.
    """
    idx = quadrature_indices(modes, n_modes)
    if 2 * state.n_modes != idx.size:
        raise ValueError("state size must match the number of target modes")
    mean = np.zeros(2 * n_modes)
    cov = np.eye(2 * n_modes)
    mean[idx] = state.first_moments
    cov[np.ix_(idx, idx)] = state.covariance
    return GaussianState(mean, cov)


def symplectic_eigenvalues(state_or_cov, tol: float = 1e-9) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted in descending order.

    The values are the moduli of the eigenvalues of ``i Omega Sigma``, which
    come in +/- pairs; the pairs are averaged into ``n`` values. Values below
    ``1 - tol`` indicate an unphysical covariance and raise instead of being
    clipped.
    """
    cov = state_or_cov.covariance if isinstance(state_or_cov, GaussianState) else np.asarray(state_or_cov)
    n = cov.shape[0] // 2
    omega = symplectic_form(n)
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * omega @ cov)))
    pairs = moduli.reshape(n, 2)
    spread = np.abs(pairs[:, 1] - pairs[:, 0])
    scale = np.maximum(np.abs(pairs[:, 1]), 1.0)
    if np.any(spread > EIGENVALUE_PAIRING_RTOL * scale):
        raise ValueError("symplectic eigenvalues do not pair up; covariance may be invalid")
    nu = np.sort(pairs.mean(axis=1))[::-1]
    if np.any(nu < 1.0 - tol):
        raise ValueError(f"unphysical covariance: min symplectic eigenvalue {nu.min():.12f}")
    return nu


def random_symplectic(n_modes: int, rng: np.random.Generator, strength: float = 0.4) -> np.ndarray:
    """Random symplectic matrix ``exp(Omega Q)`` with ``Q`` symmetric."""
    q = rng.normal(scale=strength, size=(2 * n_modes, 2 * n_modes))
    q = 0.5 * (q + q.T)
    return expm(symplectic_form(n_modes) @ q)


def random_pure_state(n_modes: int, rng: np.random.Generator, strength: float = 0.4) -> GaussianState:
    """Random pure Gaussian state ``S I S^T`` with random displacement."""
    s = random_symplectic(n_modes, rng, strength)
    mean = rng.normal(scale=1.0, size=2 * n_modes)
    return GaussianState(mean, s @ s.T)


def random_mixed_state(
    n_modes: int,
    rng: np.random.Generator,
    strength: float = 0.4,
    max_excess: float = 0.5,
) -> GaussianState:
    """Random mixed Gaussian state ``S diag(nu) S^T`` with ``nu >= 1``."""
    s = random_symplectic(n_modes, rng, strength)
    nu = 1.0 + rng.uniform(0.0, max_excess, size=n_modes)
    d = np.repeat(nu, 2)
    mean = rng.normal(scale=1.0, size=2 * n_modes)
    return GaussianState(mean, s @ np.diag(d) @ s.T)


def fidelity(state: GaussianState, other: GaussianState) -> float:
    """Fidelity between two states on one or two modes."""
    if state.n_modes != other.n_modes:
        raise FidelityError("states must have the same number of modes")
    dx = other.first_moments - state.first_moments
    if state.n_modes == 1:
        return fidelity_one_mode(state.covariance, other.covariance, dx)
    if state.n_modes == 2:
        return fidelity_two_mode(state.covariance, other.covariance, dx)
    raise FidelityError("fidelity is implemented for one- and two-mode states only")


def _disassemble(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex ``(alpha, beta)`` matrices from a real block matrix."""
    m11 = matrix[0::2, 0::2]
    m12 = matrix[0::2, 1::2]
    m21 = matrix[1::2, 0::2]
    m22 = matrix[1::2, 1::2]
    alpha = 0.5 * (m11 + m22) + 0.5j * (m12 - m21)
    beta = 0.5 * (m22 - m11) + 0.5j * (m12 + m21)
    return alpha, beta


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
    return BogoliubovSeries(g, a1, a2, b1, b2)


def random_exact_channel(n_max: int, rng: np.random.Generator, strength: float = 0.5):
    """Complex ``(alpha, beta)`` of an exact channel ``S = exp(Omega Q)``
    with ``Q`` random symmetric: symplectic to machine precision."""
    q = rng.normal(scale=strength, size=(2 * n_max, 2 * n_max))
    return _disassemble(expm(symplectic_form(n_max) @ (0.5 * (q + q.T))))


def full_identity_defect(alpha, beta) -> np.ndarray:
    """Reference ``S Omega S^T - Omega`` from the whole ``2n x 2n`` matrix."""
    s = _assemble(np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex))
    omega = symplectic_form(s.shape[0] // 2)
    return s @ omega @ s.T - omega


def exponential_generators(series):
    """``(S0, K1, K2)`` of the exponential family ``S(theta) = exp(theta K1 +
    theta^2 K2) S0`` that :func:`gaussfisher.qfi.probe_family` builds, with
    the projection onto the symplectic algebra written as matrix products."""
    s0, s1, s2 = series.symplectic_orders()
    omega = symplectic_form(series.n_max)
    k1 = s1 @ s0.T
    k2 = s2 @ s0.T - 0.5 * k1 @ k1
    k1 = 0.5 * (k1 + omega @ k1.T @ omega)
    k2 = 0.5 * (k2 + omega @ k2.T @ omega)
    return s0, k1, k2


def exact_qfi(series, modes, state, theta):
    """Test-only exact QFI of the family :func:`gaussfisher.qfi.probe_family`
    builds, from the Frechet derivative of its exponential.

    On the probed rows of ``S = exp(theta K1 + theta^2 K2) S0`` and of
    ``dS/dtheta``, ``H = 1/2 vec(dσ)^T (σ⊗σ − Ω⊗Ω)^-1 vec(dσ) + 2 dμ^T σ^-1 dμ``
    (Monras, arXiv:1303.3682; Šafránek, Lee & Fuentes, arXiv:1502.07924). The
    channel entangles the probed modes with the rest, so their state is
    mixed and the matrix invertible.
    """
    modes = tuple(modes)
    s0, k1, k2 = exponential_generators(series)
    expo, frechet = expm_frechet(theta * k1 + theta**2 * k2, k1 + 2.0 * theta * k2)
    full = embed_state(series.n_max, modes, state)
    idx = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes]).astype(int)
    s, ds = (expo @ s0)[idx], (frechet @ s0)[idx]
    sigma = s @ full.covariance @ s.T
    cross = ds @ full.covariance @ s.T
    dsigma = cross + cross.T
    dmu = ds @ full.first_moments
    # the congruence by the Cholesky factor L of sigma turns the kernel into
    # I - J⊗J with J = L^-1 Ω L^-T: the squeezing drops out of its condition
    # number and only the near-purity 1 - 1/(ν_a ν_b) of the probed modes
    # is left
    chol = np.linalg.cholesky(sigma)

    def whiten(mat):
        return np.linalg.solve(chol, np.linalg.solve(chol, mat).T)

    j = whiten(symplectic_form(len(modes)))
    vec = whiten(dsigma).reshape(-1)
    cov_part = 0.5 * vec @ np.linalg.solve(np.eye(vec.size) - np.kron(j, j), vec)
    return float(cov_part + 2.0 * dmu @ np.linalg.solve(sigma, dmu))


def full_covariance_orders(series, modes, input_state):
    """Reference covariance orders ``(sigma0, sigma1, sigma2, mean1)`` from
    the full ``2n x 2n`` products.

    Embeds the probe in the vacuum of all other modes, forms
    ``S_i Sigma_in S_j^T`` with the whole symplectic orders and reduces to the
    probed block rows and columns; ``O(n^3)`` per call.
    """
    s0, s1, s2 = series.symplectic_orders()
    full = embed_state(series.n_max, tuple(modes), input_state)
    sigma_in, x_in = full.covariance, full.first_moments
    idx = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes]).astype(int)

    def red(m):
        return m[np.ix_(idx, idx)]

    return (
        red(s0 @ sigma_in @ s0.T),
        red(s1 @ sigma_in @ s0.T + s0 @ sigma_in @ s1.T),
        red(s2 @ sigma_in @ s0.T + s0 @ sigma_in @ s2.T + s1 @ sigma_in @ s1.T),
        (s1 @ x_in)[idx],
    )


def full_unitarity_residuals(series, modes=None):
    """Reference order-by-order identity defects from full ``n x n`` products,
    restricted to the probed modes afterwards."""
    g = np.diag(series.G)
    r1a = g @ series.alpha1.conj().T + series.alpha1 @ g.conj().T
    r1b = g @ series.beta1.T - (g @ series.beta1.T).T
    r2a = (
        g @ series.alpha2.conj().T
        + series.alpha2 @ g.conj().T
        + series.alpha1 @ series.alpha1.conj().T
        - series.beta1 @ series.beta1.conj().T
    )
    m = g @ series.beta2.T + series.alpha1 @ series.beta1.T
    r2b = m - m.T

    def norm(mat):
        if modes is not None:
            idx = np.array([k - 1 for k in modes])
            mat = mat[np.ix_(idx, idx)]
        return float(np.max(np.abs(mat)))

    return max(norm(r1a), norm(r1b)), max(norm(r2a), norm(r2b))


def compose_one_segment_reference(overlaps, u: float) -> BogoliubovSeries:
    """Reference composition: the whole channel at one duration ``u``, by the
    hand expansion the package used before it composed a grid in one pass.

    Same formulas as :func:`gaussfisher.cavity.compose_one_segment`, with the
    phase of each spectator sum on its right factor and one ``n x n``
    product per sum and duration.
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
    return BogoliubovSeries(g, alpha1, alpha2, beta1, beta2)


def compose_rows_reference(overlaps, u, rows=None) -> BogoliubovSeries:
    """Reference composition from whole ``n x n`` overlap matrices:
    :func:`gaussfisher.cavity.compose_one_segment` as it was before it read
    rows-only coefficients, every block sliced off the full matrices. On
    ``rows`` it gives the arrays ``(G, alpha1, alpha2, beta1, beta2)`` of
    those rows, stacked over a grid ``u``, as the composition of rows-only
    coefficients does; without, the whole series at one duration."""
    u = np.asarray(u, dtype=float)
    n = overlaps.n_max
    r = slice(None) if rows is None else quadrature_indices(rows, n)[::2] // 2
    g = mode_phases(n, u)
    gc = np.conj(g)
    g_rows, g_cols, gc_cols = g[..., r, None], g[..., None, r], gc[..., None, r]
    oa1, ob1 = overlaps.alpha1, overlaps.beta1
    oa2, ob2 = overlaps.alpha2[r][:, r], overlaps.beta2[r][:, r]

    def spectator_sum(left, phases, right):
        weighted = left.T[r] * phases[..., None, :]
        return (weighted.reshape(-1, n) @ right[:, r]).reshape(*weighted.shape[:-1], -1)

    alpha2 = g_rows * oa2
    alpha2 += g_cols * oa2.T
    alpha2 += spectator_sum(oa1, g, oa1)
    alpha2 -= spectator_sum(ob1, gc, ob1)
    beta2 = g_rows * ob2
    beta2 -= gc_cols * ob2.T
    beta2 += spectator_sum(oa1, g, ob1)
    beta2 -= spectator_sum(ob1, gc, oa1)
    alpha1 = g_rows - g[..., None, :]
    alpha1 *= oa1[r]
    beta1 = g_rows - gc[..., None, :]
    beta1 *= ob1[r]
    if rows is None:
        return BogoliubovSeries(g, alpha1, alpha2, beta1, beta2)
    return g[..., r], alpha1, alpha2, beta1, beta2


def c2_two_solves_reference(sigma0, sigma1, sigma2):
    """:func:`gaussfisher.qfi.c2_from_orders` as it was before it solved for
    both orders at once: one solve of ``sigma0`` per order."""
    x = np.linalg.solve(sigma0, sigma1)
    y = np.linalg.solve(sigma0, sigma2)
    tx = x.trace(axis1=-2, axis2=-1)
    return (tx**2 - (x @ x).trace(axis1=-2, axis2=-1) + 4.0 * y.trace(axis1=-2, axis2=-1)) / 16.0


def perturbative_overlaps_reference(n_max: int) -> cavity.OverlapSeries:
    """Reference overlap series: the ladder walked in ascending ``h``, each
    point's quadrature escalated from the smallest order, as the package did
    before it started each point at the order that decided the previous one.

    Same node evaluation, convergence test, fit and refusals as
    :func:`gaussfisher.cavity.perturbative_overlaps`.
    """
    h = np.asarray(cavity.H_LADDER)
    rules = cavity._gauss_legendre()
    alphas, betas = [], []
    for hv in h:
        prev = None
        for order in cavity.QUADRATURE_ORDERS:
            alpha, beta = cavity._overlaps_at_order(hv, n_max, *rules[order])
            if prev is not None:
                change = max(np.max(np.abs(alpha - prev[0])), np.max(np.abs(beta - prev[1])))
                if change < cavity.QUADRATURE_TOL:
                    break
            prev = (alpha, beta)
        else:
            raise cavity.QuadratureError(
                f"quadrature did not converge to {cavity.QUADRATURE_TOL:g} "
                f"at order {cavity.QUADRATURE_ORDERS[-1]}"
            )
        alphas.append((alpha - np.eye(n_max)).reshape(-1))
        betas.append(beta.reshape(-1))
    design = np.vander(h, 5, increasing=True)[:, 1:]
    coef_a, res_a, *_ = np.linalg.lstsq(design, np.stack(alphas), rcond=None)
    coef_b, res_b, *_ = np.linalg.lstsq(design, np.stack(betas), rcond=None)
    worst = float(np.sqrt(max(np.max(res_a), np.max(res_b)) / (h.size - 4)))
    bound = cavity._max_fit_residual(n_max)
    if worst > bound:
        raise ValueError(f"overlap series fit residual {worst:.3e} above {bound:.3e}")
    orders = (c.reshape(n_max, n_max) for c in (coef_a[0], coef_a[1], coef_b[0], coef_b[1]))
    return cavity.OverlapSeries(*orders, worst)


def reference_sweep(spec, overlaps) -> list:
    """Perturbative sweep rows evaluated one duration at a time.

    Each grid point gets its own whole channel from
    :func:`compose_one_segment_reference`, and the kernel runs on it once per
    family. The truncation residual is rebuilt from the full-product
    references: the last spectator column's tail (:func:`f_sums`) against the
    second-order identity defect. Rows are
    ``(u, family, qfi, e2, c2, residual, negativity)`` in the sweep's order.
    """
    k, k_prime = spec.modes
    rows = []
    for u in spec.grid:
        series = compose_one_segment_reference(overlaps, float(u))
        negativity = abs(series.beta1[k - 1, k_prime - 1])
        for family, _, _, state, modes in spec.probes():
            (result,) = qfi_perturbative([(series.reduced(modes), state)])
            residual = max(f_sums(series, modes, modes).tail, full_unitarity_residuals(series, modes)[1])
            rows.append((float(u), family, result.value, result.e2, result.c2, residual, negativity))
    return rows


def csv_cell(value) -> str:
    """One sweep CSV cell: empty for ``None``, a string as it is, and any
    number as ``repr(float(value))``, so an ``np.float64`` prints as a float."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def reference_rows_to_csv(rows) -> str:
    """Sweep rows as CSV, formatted one cell at a time: the reference for
    ``sweeps.rows_to_csv``. Each row is a sequence of cells in
    ``SWEEP_COLUMNS`` order."""
    lines = [",".join(SWEEP_COLUMNS)] + [",".join(csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class RecordingChannel:
    """A channel provider by duck typing alone: it forwards every call to
    ``inner`` and records each call that reads the channel in ``calls`` as
    ``(method, args)``, so a test can tell what an engine asks of its
    channel; ``n_max`` and the mode check are forwarded unrecorded."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def n_max(self) -> int:
        return self.inner.n_max

    def check_modes(self, modes):
        return self.inner.check_modes(modes)

    def orders(self):
        self.calls.append(("orders", ()))
        return self.inner.orders()

    def reduced(self, grid, mode_sets):
        self.calls.append(("reduced", (grid, mode_sets)))
        return self.inner.reduced(grid, mode_sets)

    def oracle_points(self, grid, probes):
        self.calls.append(("oracle_points", (grid, probes)))
        return self.inner.oracle_points(grid, probes)

    def checks(self, modes):
        self.calls.append(("checks", (modes,)))
        return self.inner.checks(modes)


def sigma_orders_from_blocks(series, k, k_prime, psi_k, psi_kp, phi):
    """Reduced covariance orders assembled block by block.

    Collects the theta powers of the transformed two-mode covariance from
    the 2x2 coefficient blocks directly, without ever forming the full
    transformation matrix; an independent route against the full-matrix
    order collection.
    """
    n = series.n_max
    probe = (k, k_prime)
    values = {
        (k, k): np.asarray(psi_k, float),
        (k, k_prime): np.asarray(phi, float),
        (k_prime, k): np.asarray(phi, float).T,
        (k_prime, k_prime): np.asarray(psi_kp, float),
    }

    def block(alpha, beta):
        return _assemble(np.array([[alpha]], dtype=complex), np.array([[beta]], dtype=complex))

    def m0(i):
        return block(series.G[i - 1], 0.0)

    def m1(i, j):
        return block(series.alpha1[i - 1, j - 1], series.beta1[i - 1, j - 1])

    def m2(i, j):
        return block(series.alpha2[i - 1, j - 1], series.beta2[i - 1, j - 1])

    dim = 2 * len(probe)
    s0 = np.zeros((dim, dim))
    s1 = np.zeros((dim, dim))
    s2 = np.zeros((dim, dim))
    for bi, i in enumerate(probe):
        for bj, j in enumerate(probe):
            sl = (slice(2 * bi, 2 * bi + 2), slice(2 * bj, 2 * bj + 2))
            s0[sl] = m0(i) @ values[(i, j)] @ m0(j).T
            c1 = np.zeros((2, 2))
            for m in probe:
                c1 += m1(i, m) @ values[(m, j)] @ m0(j).T
                c1 += m0(i) @ values[(i, m)] @ m1(j, m).T
            s1[sl] = c1
            c2 = np.zeros((2, 2))
            for m in probe:
                c2 += m2(i, m) @ values[(m, j)] @ m0(j).T
                c2 += m0(i) @ values[(i, m)] @ m2(j, m).T
            for m in probe:
                for mp in probe:
                    c2 += m1(i, m) @ values[(m, mp)] @ m1(j, mp).T
            for spectator in range(1, n + 1):
                if spectator in probe:
                    continue
                c2 += m1(i, spectator) @ m1(j, spectator).T
            s2[sl] = c2
    return s0, s1, s2


# ---------------------------------------------------------------------------
# Closed-form references for the perturbative kernel. Each family's ``E2`` and
# the single-mode ``C2`` written out in series coefficients; the generic
# kernel ``qfi_perturbative`` must reproduce them.
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class FSums:
    """Quadratic sums of first-order coefficients over spectator modes.

    ``f_alpha[i] = 1/2 sum_n |alpha1_{n, i}|^2`` and likewise for ``beta``,
    with ``n`` running over 1..n_max outside the exclusion set and ``i`` over
    the probe modes (column index). ``g_alpha_beta[i, j] = sum_n alpha1_{n, i}
    conj(beta1_{n, j})``. ``tail`` is the largest ``1/2 |alpha1_{i, s}|^2`` or
    ``1/2 |beta1_{i, s}|^2`` of the probe modes' rows ``i`` in the column of
    the last spectator ``s``: the last term the kernel's spectator sums keep,
    an estimate of what the truncation discards.
    """

    probe_modes: tuple
    exclusion: tuple
    f_alpha: np.ndarray
    f_beta: np.ndarray
    g_alpha_beta: np.ndarray
    tail: float


def f_sums(series: BogoliubovSeries, exclusion, probe_modes) -> FSums:
    """Spectator-mode sums: the truncation tail of the perturbative route and
    the inputs of the coefficient-form QFI expressions."""
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
                0.5 * np.max(np.abs(series.alpha1[cols, rows[-1]]) ** 2),
                0.5 * np.max(np.abs(series.beta1[cols, rows[-1]]) ** 2),
            )
        )
    return FSums(probe_modes, exclusion, f_alpha, f_beta, g, tail)


# ---------------------------------------------------------------------------
# Coefficient expressions as quoted in the literature, kept verbatim as
# cross-check paths. The validated routes are the trace form and the
# first-moment quadratic form; the measured relationships are documented in
# the tests rather than patched silently.
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


def alpha1_closed_form(m: int, n: int) -> float:
    """First-order inertial-to-accelerated mode-mixing coefficient.

    Hand-derived by expanding the overlap integrals to first order in h:
    sqrt(mn) (1 - (-1)^(m+n)) / (pi^2 (n - m)^3) off the diagonal.
    Serves as an independent oracle for the quadrature + fit pipeline.
    """
    if m == n:
        return 0.0
    return np.sqrt(m * n) * (1 - (-1) ** (m + n)) / (np.pi**2 * (n - m) ** 3)


def beta1_closed_form(m: int, n: int) -> float:
    """First-order pair-creation coefficient, same derivation:
    sqrt(mn) (1 - (-1)^(m+n)) / (pi^2 (n + m)^3)."""
    return np.sqrt(m * n) * (1 - (-1) ** (m + n)) / (np.pi**2 * (n + m) ** 3)


@pytest.fixture(scope="session")
def overlap_series_10():
    return perturbative_overlaps(10)


@pytest.fixture(scope="session")
def overlap_series_60():
    # deep mode ladder: keeps truncation noise at trivial-channel points
    # (integer u) below the comparison tolerances of the sweep criteria
    return perturbative_overlaps(60)


@pytest.fixture(scope="session")
def cavity_series_u03(overlap_series_10):
    return compose_one_segment(overlap_series_10, 0.3)


@pytest.fixture(scope="session")
def exact_overlaps_h005():
    return {n: rindler_overlaps(0.05, n) for n in (5, 10, 20)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def unitary_series():
    return synthetic_unitary_series(6, np.random.default_rng(11), strength=0.3)


@pytest.fixture(scope="session")
def unitary_series_diagfree():
    return synthetic_unitary_series(6, np.random.default_rng(12), strength=0.3, zero_diagonal=True)
