import numpy as np
import pytest

from conftest import alpha1_closed_form, beta1_closed_form
from gaussfisher.bogoliubov import BogoliubovSeries
from gaussfisher.cavity import (
    QUADRATURE_ORDERS,
    CavityScenario,
    QuadratureError,
    cavity_series,
    compose_one_segment,
    load_or_compute_overlap_series,
    load_or_compute_overlaps,
    mode_phases,
    perturbative_overlaps,
    proper_frequency,
    rindler_overlaps,
    _gauss_legendre,
    _overlaps_at_order,
)


def test_scenario_validation():
    CavityScenario()  # defaults are valid
    with pytest.raises(ValueError):
        CavityScenario(h=2.5)  # left wall behind the horizon
    with pytest.raises(ValueError):
        CavityScenario(h=0.0)
    with pytest.raises(ValueError):
        CavityScenario(u=-0.1)
    with pytest.raises(ValueError):
        CavityScenario(k=1, k_prime=1)
    with pytest.raises(ValueError):
        CavityScenario(k=11, n_max=10)
    with pytest.raises(ValueError):
        CavityScenario(length=0.0)


def test_proper_frequency():
    # inertial limit: omega_n = n pi / L
    assert np.isclose(proper_frequency(1, 1e-8, 1.0), np.pi, rtol=1e-10)
    # linear in the mode index
    assert np.isclose(
        proper_frequency(2, 0.7, 1.3), 2.0 * proper_frequency(1, 0.7, 1.3), rtol=1e-14
    )
    # evaluated value at h = 1, L = 1: pi / (2 artanh(1/2))
    assert np.isclose(proper_frequency(1, 1.0, 1.0), 2.8596008673801268, rtol=1e-12)
    with pytest.raises(ValueError):
        proper_frequency(1, 2.0, 1.0)


def test_overlaps_identity_limit():
    ov = rindler_overlaps(1.0, 1e-4, 10)
    assert np.max(np.abs(ov.alpha - np.eye(10))) <= 1e-3
    assert np.max(np.abs(ov.beta)) <= 1e-3


def test_overlap_quadrature_convergence():
    # orthonormality residual decreases with quadrature order
    h, n = 0.3, 8
    converged = rindler_overlaps(1.0, h, n)
    errs = []
    # orders low enough that the integrand is genuinely under-resolved;
    # compare against the converged matrices instead of the truncated
    # identity, which carries an order-independent mode tail
    for order in (6, 10, 16):
        alpha, beta = _overlaps_at_order(1.0, h, n, order)
        errs.append(max(np.max(np.abs(alpha - converged.alpha)), np.max(np.abs(beta - converged.beta))))
    assert errs[0] > 1e-10  # start unconverged
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_horizon_guard():
    with pytest.raises(ValueError):
        rindler_overlaps(1.0, 2.0, 5)


def test_fitted_series_matches_closed_forms(overlap_series_10):
    n = 10
    ref_a1 = np.array([[alpha1_closed_form(m, k) for k in range(1, n + 1)] for m in range(1, n + 1)])
    ref_b1 = np.array([[beta1_closed_form(m, k) for k in range(1, n + 1)] for m in range(1, n + 1)])
    assert np.max(np.abs(overlap_series_10.alpha1 - ref_a1)) <= 2e-6
    assert np.max(np.abs(overlap_series_10.beta1 - ref_b1)) <= 1e-8
    # structural identities of the first order: antisymmetric mixing,
    # symmetric pair creation
    assert np.max(np.abs(overlap_series_10.alpha1 + overlap_series_10.alpha1.T)) <= 1e-7
    assert np.max(np.abs(overlap_series_10.beta1 - overlap_series_10.beta1.T)) <= 1e-9


def test_parity_pattern(overlap_series_10):
    # entries with even m + n vanish at first order; the fit must return
    # (nearly) zero wherever the exact ladder data is itself tiny
    n = 10
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            if (m + k) % 2 == 0:
                assert abs(overlap_series_10.beta1[m - 1, k - 1]) <= 1e-8
                if m != k:
                    assert abs(overlap_series_10.alpha1[m - 1, k - 1]) <= 1e-6


def test_series_scale_invariance():
    a = perturbative_overlaps(1.0, 6)
    b = perturbative_overlaps(2.0, 6)
    assert np.max(np.abs(a.alpha1 - b.alpha1)) <= 1e-12
    assert np.max(np.abs(a.beta2 - b.beta2)) <= 1e-12


def test_series_reproduces_exact_overlaps_cubically(overlap_series_10):
    # residual against fresh quadrature points (not in the fit ladder)
    hs = (0.015, 0.03, 0.06)
    res = []
    for h in hs:
        exact = rindler_overlaps(1.0, h, 10)
        model_a = np.eye(10) + overlap_series_10.alpha1 * h + overlap_series_10.alpha2 * h**2
        model_b = overlap_series_10.beta1 * h + overlap_series_10.beta2 * h**2
        res.append(max(np.max(np.abs(exact.alpha - model_a)), np.max(np.abs(exact.beta - model_b))))
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert slope >= 2.7


def test_compose_trivial_at_integer_u(overlap_series_10):
    series = compose_one_segment(overlap_series_10, 1.0)
    assert np.max(np.abs(series.alpha1)) <= 1e-12
    assert np.max(np.abs(series.beta1)) <= 1e-12
    # second order cancels identically on the modes whose sums are complete
    assert np.max(np.abs(series.alpha2[:3, :3])) <= 1e-5
    assert np.max(np.abs(series.beta2[:3, :3])) <= 1e-5


def test_compose_substitution_example(overlap_series_10):
    # u = 1/2: G_1 = -1, G_2 = +1, so the (1, 2) entries pick up a factor -2
    series = compose_one_segment(overlap_series_10, 0.5)
    g = mode_phases(10, 0.5)
    assert np.isclose(g[0], -1.0) and np.isclose(g[1], 1.0)
    assert np.isclose(series.alpha1[0, 1], -2.0 * overlap_series_10.alpha1[0, 1])
    assert np.isclose(series.beta1[0, 1], -2.0 * overlap_series_10.beta1[0, 1])


def test_composed_diagonal_first_order(cavity_series_u03):
    assert np.max(np.abs(np.diag(cavity_series_u03.alpha1))) <= 1e-8
    assert np.max(np.abs(np.diag(cavity_series_u03.beta1))) <= 1e-8


def test_composed_identities_on_probed_modes(cavity_series_u03):
    first, second = cavity_series_u03.unitarity_residuals(modes=(1, 2))
    assert first <= 1e-8
    assert second <= 1e-5  # bounded by the spectator tail beyond n_max


def test_composed_residual_scales_cubically(cavity_series_u03):
    def window_residual(theta):
        b = cavity_series_u03.evaluate(theta)
        sub = np.ix_([0, 1], [0, 1])
        n = cavity_series_u03.n_max
        d1 = b.alpha @ b.alpha.conj().T - b.beta @ b.beta.conj().T - np.eye(n)
        d2 = b.alpha @ b.beta.T - (b.alpha @ b.beta.T).T
        return max(np.max(np.abs(d1[sub])), np.max(np.abs(d2[sub])))

    hs = (0.02, 0.04, 0.08)
    res = [window_residual(h) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert slope >= 2.7


def test_composition_sign_is_fixed_by_unitarity(overlap_series_10):
    # flipping the relative sign of the transposed second-order mixing term
    # breaks the second-order identity from cubic down to quadratic scaling
    ov = overlap_series_10
    u = 0.3
    g = mode_phases(10, u)
    good = compose_one_segment(ov, u)
    alpha2_flipped = (
        g[:, None] * ov.alpha2
        - g[None, :] * ov.alpha2.T
        + ov.alpha1.T @ (g[:, None] * ov.alpha1)
        - ov.beta1.T @ (np.conj(g)[:, None] * ov.beta1)
    )
    bad = BogoliubovSeries(10, g, good.alpha1, alpha2_flipped, good.beta1, good.beta2)
    _, second_good = good.unitarity_residuals(modes=(1, 2))
    _, second_bad = bad.unitarity_residuals(modes=(1, 2))
    assert second_bad > 100.0 * second_good


def test_periodicity_in_u(overlap_series_10):
    a = compose_one_segment(overlap_series_10, 0.37)
    b = compose_one_segment(overlap_series_10, 1.37)
    for name in ("G", "alpha1", "alpha2", "beta1", "beta2"):
        assert np.max(np.abs(getattr(a, name) - getattr(b, name))) <= 1e-9


def test_spectator_sum_tail_converged(cavity_series_u03):
    # the pair-creation spectator sums have converged at the default ladder
    # depth: the last retained term is far below the sum itself
    from gaussfisher.qfi import f_sums

    sums = f_sums(cavity_series_u03, (1,), (1,))
    last_row = 0.5 * abs(cavity_series_u03.beta1[-1, 0]) ** 2
    assert last_row <= 1e-6


def test_oracle_matches_two_mode_squeezed_wrapper(cavity_series_u03):
    from gaussfisher.qfi import probe_family, qfi_oracle, qfi_two_mode_squeezed

    h = 0.05
    pert = qfi_two_mode_squeezed(cavity_series_u03, 1, 2, 1.0)
    fam = probe_family(cavity_series_u03, "two_mode_squeezed", (1, 2), 1.0, 0.0)
    orc = qfi_oracle(fam, h, steps=(h / 5, h / 15, h / 45))
    assert abs(pert.value - orc.value) / orc.value <= 10.0 * h


def test_overlap_cache_roundtrip(tmp_path):
    cache = str(tmp_path / "cache")
    first = load_or_compute_overlaps(1.0, 0.05, 6, cache)
    second = load_or_compute_overlaps(1.0, 0.05, 6, cache)
    assert np.array_equal(np.asarray(first.alpha, float), np.asarray(second.alpha, float))
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].suffix == ".csv"
    series_direct = perturbative_overlaps(1.0, 6)
    series_cached = load_or_compute_overlap_series(1.0, 6, cache)
    assert np.allclose(series_direct.alpha1, series_cached.alpha1, atol=1e-14)


def test_cached_series_enforces_fit_bound(tmp_path):
    cache = tmp_path / "cache"
    load_or_compute_overlap_series(1.0, 6, str(cache))
    # damage one entry of one cached ladder file
    path = sorted(cache.iterdir())[2]
    lines = path.read_text(encoding="utf-8").splitlines()
    comp, m, n, value = lines[2].split(",")
    lines[2] = ",".join((comp, m, n, repr(float(value) + 1e-4)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="fit residual"):
        load_or_compute_overlap_series(1.0, 6, str(cache))


def test_quadrature_nodes_memoized(monkeypatch):
    first = rindler_overlaps(1.0, 0.05, 5)  # warms every order it tries
    nodes, weights = _gauss_legendre(QUADRATURE_ORDERS[0])
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert np.isclose(np.sum(weights), 2.0)
    assert _gauss_legendre.cache_info().maxsize == len(QUADRATURE_ORDERS)

    def refuse(order):
        raise AssertionError("Gauss-Legendre nodes recomputed")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    again = rindler_overlaps(1.0, 0.05, 5)
    assert np.array_equal(first.alpha, again.alpha)


def test_quadrature_failure_is_typed():
    with pytest.raises(QuadratureError):
        rindler_overlaps(1.0, 0.04, 150)
    assert issubclass(QuadratureError, RuntimeError)


def test_cavity_series_from_scenario(tmp_path):
    scenario = CavityScenario(n_max=6, u=0.25)
    series = cavity_series(scenario, cache_dir=str(tmp_path / "c"))
    assert series.n_max == 6
    assert np.allclose(series.G, mode_phases(6, 0.25))
