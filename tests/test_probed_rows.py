"""The probed-row perturbative kernel against full-matrix references.

``ReducedChannel.covariance_orders`` and ``unitarity_residuals`` work
on the block rows of the probed modes only; the references in ``conftest``
form the full ``2n x 2n`` (or ``n x n``) products and reduce afterwards.
"""

import numpy as np
import pytest

from conftest import full_covariance_orders, full_unitarity_residuals, synthetic_unitary_series
from gaussfisher import sweeps
from gaussfisher.bogoliubov import BogoliubovSeries, _assemble, _reduce
from gaussfisher.cavity import compose_one_segment, taylor_overlaps
from gaussfisher.qfi import probe_state, qfi_perturbative
from gaussfisher.sweeps import FAMILIES, CavityChannel, SweepSpec, run_sweep

MODE_SETS = ((1,), (1, 3), (4, 1), (2, 5))
TOL = 1e-13
GRID = (0.0, 0.3, 0.71)


def families_for(modes):
    if len(modes) == 1:
        return ("single_squeezed_displaced",)
    return ("two_product_squeezed_displaced", "two_mode_squeezed")


def assert_orders_agree(series, modes, state):
    fast = series.reduced(modes).covariance_orders(state)
    ref = full_covariance_orders(series, modes, state)
    for name, a, b in zip(("sigma0", "sigma1", "sigma2", "mean1"), fast, ref, strict=True):
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
def test_row_restricted_stack_orders_match_full_products(modes):
    # the stack stores the probed block rows and their rows x rows second
    # orders, with rows the probe does not read, in an order that is neither
    # sorted nor the probe's own
    grid = (0.0, 0.137, 0.3, 0.5, 1.37)
    rows = (10,) + tuple(reversed(modes)) + (6,)
    stack = compose_one_segment(taylor_overlaps(10, rows), grid)
    for family in families_for(modes):
        state = probe_state(family, 0.5, 0.0 if family == "two_mode_squeezed" else 1.1)
        fast = _reduce(*stack, modes, rows).covariance_orders(state)
        for i, u in enumerate(grid):
            ref = full_covariance_orders(compose_one_segment(taylor_overlaps(10), u), modes, state)
            for name, a, b in zip(("sigma0", "sigma1", "sigma2", "mean1"), fast, ref, strict=True):
                a = a[i]
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= TOL * max(1.0, np.max(np.abs(b))), (name, u)


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
    bad = BogoliubovSeries(synthetic.G, synthetic.alpha1, 1.5 * synthetic.alpha2, synthetic.beta1, synthetic.beta2)
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
            (result,) = qfi_perturbative([(series.reduced((1, 2)[: state.n_modes]), state)])
            assert np.isfinite(result.value) and result.value >= 0.0


def test_residual_shared_between_families_on_same_modes(monkeypatch):
    calls = []
    original = sweeps._reduce

    def counted(*arrays_modes_rows):
        calls.append(arrays_modes_rows[-2])
        return original(*arrays_modes_rows)

    monkeypatch.setattr(sweeps, "_reduce", counted)
    spec = SweepSpec(grid=(0.2, 0.4))
    rows = run_sweep(spec, CavityChannel())
    assert len(rows) == 2 * len(FAMILIES)
    # one reduction, and in it one residual, per mode set for the whole grid:
    # (1,) for the single-mode probe, and (1, 2) once for both two-mode ones
    assert sorted(calls) == [(1,), (1, 2)]
    two_mode = [r for r in rows if r.family != "single_squeezed_displaced"]
    assert two_mode[0].residual_perturbative == two_mode[1].residual_perturbative


@pytest.mark.parametrize("modes", [(1, 2), (4, 1)])
def test_states_sharing_modes_give_the_bits_of_one_call_each(modes, synthetic):
    stack = CavityChannel(n_max=12).reduced((0.0, 0.3, 0.71), [modes])
    states = [probe_state("two_product_squeezed_displaced", 0.6, 0.8), probe_state("two_mode_squeezed", 1.1, 0.0),
              probe_state("two_product_squeezed_displaced", -0.3, 2.0)]
    for reduced in (stack[modes], synthetic.reduced(modes)):
        shared = qfi_perturbative([(reduced, state) for state in states])
        for state, got in zip(states, shared):
            (want,) = qfi_perturbative([(reduced, state)])
            for name in ("value", "e2", "c2", "residual"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_results_follow_probe_order_across_mode_sets():
    stack = CavityChannel(n_max=12).reduced((0.0, 0.3, 0.71), [(1, 2), (1,)])
    probes = [(stack[1, 2], probe_state("two_product_squeezed_displaced", 0.6, 0.8)),
              (stack[1,], probe_state("single_squeezed_displaced", -0.4, 1.5)),
              (stack[1, 2], probe_state("two_mode_squeezed", 1.1, 0.0))]
    together = qfi_perturbative(probes)
    alone = [qfi_perturbative([probe])[0] for probe in probes]
    assert len(together) == len(probes)
    for got, want in zip(together, alone):
        for name in ("value", "e2", "c2", "residual"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("modes", MODE_SETS)
def test_the_reducer_reads_the_rows_alone(synthetic, modes):
    # the reduced channel from the probed rows, stored among others in an
    # order of their own, has the bits of the one from the whole series
    rows = (6,) + tuple(reversed(modes)) + (3,) * (3 not in modes)
    pick = np.array(rows) - 1
    arrays = (synthetic.G[pick], synthetic.alpha1[pick], synthetic.alpha2[np.ix_(pick, pick)],
              synthetic.beta1[pick], synthetic.beta2[np.ix_(pick, pick)])
    got, want = _reduce(*arrays, modes, rows), synthetic.reduced(modes)
    for name, value in vars(want).items():
        assert np.array_equal(getattr(got, name), value), name
    assert_b2_is_the_spectators(want, synthetic.alpha1[pick], synthetic.beta1[pick], rows)
    stack = CavityChannel(n_max=12).reduced(GRID, [modes])[modes]
    _, alpha1, _, beta1, _ = compose_one_segment(taylor_overlaps(12, tuple(sorted(modes))), GRID)
    assert_b2_is_the_spectators(stack, alpha1, beta1, tuple(sorted(modes)))


def assert_b2_is_the_spectators(reduced, alpha1, beta1, rows):
    """``B2`` is ``S1[:, spec] S1[:, spec]^T``, the sum over the columns of
    the modes not probed, from the first orders on the output ``rows``: a
    symmetric, positive semidefinite noise to roundoff."""
    pick = [rows.index(k) for k in reduced.modes]
    spec = [k for k in range(alpha1.shape[-1]) if k + 1 not in reduced.modes]
    s1 = _assemble(alpha1[..., pick, :][..., spec], beta1[..., pick, :][..., spec])
    want = s1 @ np.swapaxes(s1, -1, -2)
    b2 = reduced.b2
    assert np.max(np.abs(b2 - want)) <= TOL * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(b2 - np.swapaxes(b2, -1, -2))) <= TOL
    eig = np.linalg.eigvalsh(b2)
    assert np.all(eig[..., 0] >= -1e-14 * np.abs(eig).max(axis=-1))
