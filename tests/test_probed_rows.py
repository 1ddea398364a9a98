"""The probed-row perturbative kernel against full-matrix references.

``covariance_series`` and ``unitarity_residuals`` work on the block rows of
the probed modes only; the references in ``conftest`` form the full
``2n x 2n`` (or ``n x n``) products and reduce afterwards.
"""

import numpy as np
import pytest

from conftest import full_covariance_series, full_unitarity_residuals
from gaussfisher.bogoliubov import BogoliubovSeries, covariance_series, synthetic_unitary_series
from gaussfisher.qfi import probe_state, qfi_perturbative
from gaussfisher.sweeps import FAMILIES, SweepSpec, run_sweep

MODE_SETS = ((1,), (1, 3), (4, 1), (2, 5))
TOL = 1e-13


def families_for(modes):
    if len(modes) == 1:
        return ("single_squeezed_displaced",)
    return ("two_product_squeezed_displaced", "two_mode_squeezed")


def assert_orders_agree(series, modes, state):
    fast = covariance_series(series, modes, state)
    ref = full_covariance_series(series, modes, state)
    for name in ("sigma0", "sigma1", "sigma2", "mean0", "mean1"):
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= TOL * max(1.0, np.max(np.abs(b))), name


@pytest.fixture(scope="module")
def synthetic():
    # random phases and nonzero diagonal first orders
    series = synthetic_unitary_series(6, np.random.default_rng(31), strength=0.3)
    assert np.max(np.abs(np.diag(series.alpha1))) > 1e-3
    assert np.max(np.abs(np.diag(series.beta1))) > 1e-3
    return series


@pytest.mark.parametrize("modes", MODE_SETS)
def test_covariance_orders_match_full_products_synthetic(synthetic, modes):
    for family in families_for(modes):
        r, delta = 0.7, (0.0 if family == "two_mode_squeezed" else 0.9)
        assert_orders_agree(synthetic, modes, probe_state(family, r, delta))


@pytest.mark.parametrize("modes", MODE_SETS)
def test_covariance_orders_match_full_products_cavity(cavity_series_u03, modes):
    for family in families_for(modes):
        r, delta = 0.5, (0.0 if family == "two_mode_squeezed" else 1.1)
        assert_orders_agree(cavity_series_u03, modes, probe_state(family, r, delta))


@pytest.mark.parametrize("modes", MODE_SETS)
def test_identity_residuals_match_full_products(synthetic, cavity_series_u03, modes):
    for series in (synthetic, cavity_series_u03):
        fast = series.unitarity_residuals(modes=modes)
        ref = full_unitarity_residuals(series, modes)
        assert np.allclose(fast, ref, rtol=0.0, atol=TOL)


def test_identity_residuals_unrestricted(synthetic, cavity_series_u03):
    for series in (synthetic, cavity_series_u03):
        fast = series.unitarity_residuals()
        ref = full_unitarity_residuals(series)
        assert np.allclose(fast, ref, rtol=0.0, atol=TOL)
    # a broken second order shows up in both, and identically
    bad = BogoliubovSeries(
        synthetic.n_max, synthetic.G, synthetic.alpha1, 1.5 * synthetic.alpha2,
        synthetic.beta1, synthetic.beta2,
    )
    assert bad.unitarity_residuals()[1] > 1e-3
    assert np.allclose(bad.unitarity_residuals(), full_unitarity_residuals(bad), rtol=0.0, atol=TOL)


def test_perturbative_route_builds_no_full_matrix(monkeypatch, synthetic, cavity_series_u03):
    def refuse(self):
        raise AssertionError("the perturbative route formed a 2n x 2n matrix")

    monkeypatch.setattr(BogoliubovSeries, "symplectic_orders", refuse)
    for series in (synthetic, cavity_series_u03):
        for family in FAMILIES:
            delta = 0.0 if family == "two_mode_squeezed" else 0.8
            state = probe_state(family, 0.6, delta)
            result = qfi_perturbative(series, (1, 2)[: state.n_modes], state)
            assert np.isfinite(result.value) and result.value >= 0.0


def test_residual_shared_between_families_on_same_modes(monkeypatch):
    calls = []
    original = BogoliubovSeries.unitarity_residuals

    def counted(self, modes=None):
        calls.append(modes)
        return original(self, modes=modes)

    monkeypatch.setattr(BogoliubovSeries, "unitarity_residuals", counted)
    spec = SweepSpec(grid=(0.2, 0.4))
    rows = run_sweep(spec)
    assert len(rows) == 2 * len(FAMILIES)
    # one evaluation per grid point and mode set: (1,) and (1, 2)
    assert sorted(calls) == [(1,), (1,), (1, 2), (1, 2)]
    two_mode = [r for r in rows if r.family != "single_squeezed_displaced"]
    assert two_mode[0].residual_perturbative == two_mode[1].residual_perturbative
