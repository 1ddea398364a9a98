"""Property tests of the generic perturbative kernel ``qfi_perturbative``.

The kernel takes a series, the probed modes and a probe state. For the three
named families it must reproduce the closed forms in ``conftest``, on exact
(unitary) channels and on arbitrary non-unitary coefficient matrices alike:
both sides are the same polynomial in the series coefficients.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _c2_single_mode_explicit,
    e2_single_mode,
    e2_two_mode,
    random_pure_state,
    random_symplectic,
    sigma_orders_from_blocks,
    synthetic_unitary_series,
)
from gaussfisher.bogoliubov import BogoliubovSeries
from gaussfisher.qfi import c2_from_orders, probe_state, qfi_perturbative
from gaussfisher.states import GaussianState

REL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(2, 7)
squeezing = st.floats(-2.0, 2.0)
displacement = st.floats(-2.0, 2.0)


def non_unitary_series(n, rng):
    """Unit phases and arbitrary complex first and second orders."""
    scale = rng.uniform(0.05, 1.0)

    def block():
        return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    return BogoliubovSeries(np.exp(1j * rng.uniform(0.0, 2 * np.pi, n)), block(), block(), block(), block())


def make_series(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        # random phases and nonzero diagonal first orders
        return synthetic_unitary_series(n, rng, strength=0.3)
    return non_unitary_series(n, rng)


def closed_form(series, family, modes, r, delta):
    """``4 (E2 + C2)`` from the conftest references for a named family."""
    if family == "single_squeezed_displaced":
        (k,) = modes
        return 4.0 * (e2_single_mode(series, k, r, delta) + _c2_single_mode_explicit(series, k, r))
    k, kp = modes
    if family == "two_product_squeezed_displaced":
        psi = np.diag([np.exp(r), np.exp(-r)])
        orders = sigma_orders_from_blocks(series, k, kp, psi, psi, np.zeros((2, 2)))
        return 4.0 * (e2_two_mode(series, k, kp, r, delta) + c2_from_orders(*orders))
    ch, sh = np.cosh(r) * np.eye(2), np.diag([np.sinh(r), -np.sinh(r)])
    return 4.0 * c2_from_orders(*sigma_orders_from_blocks(series, k, kp, ch, ch, sh))


def close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(b))


@SETTINGS
@given(
    kind=st.sampled_from(("unitary", "non-unitary")),
    family=st.sampled_from(("single_squeezed_displaced", "two_product_squeezed_displaced", "two_mode_squeezed")),
    n=sizes,
    seed=seeds,
    r=squeezing,
    delta=displacement,
    data=st.data(),
)
def test_kernel_matches_closed_forms(kind, family, n, seed, r, delta, data):
    series = make_series(kind, n, seed)
    if family == "two_mode_squeezed":
        delta = 0.0
    state = probe_state(family, r, delta)
    modes = tuple(data.draw(st.permutations(range(1, n + 1)))[: state.n_modes])
    (result,) = qfi_perturbative(series.reduced, [(modes, state)])
    assert close(result.value, closed_form(series, family, modes, r, delta))
    if kind == "unitary":
        assert result.value >= -1e-12


def swapped(state):
    """The same two-mode state with its mode blocks exchanged."""
    perm = np.array([2, 3, 0, 1])
    return GaussianState(state.first_moments[perm], state.covariance[np.ix_(perm, perm)])


@SETTINGS
@given(kind=st.sampled_from(("unitary", "non-unitary")), n=sizes, seed=seeds, data=st.data())
def test_kernel_invariant_under_mode_relabelling(kind, n, seed, data):
    series = make_series(kind, n, seed)
    state = random_pure_state(2, np.random.default_rng(seed + 1))
    k, kp = data.draw(st.permutations(range(1, n + 1)))[:2]
    (a,) = qfi_perturbative(series.reduced, [((k, kp), state)])
    (b,) = qfi_perturbative(series.reduced, [((kp, k), swapped(state))])
    assert close(b.value, a.value)
    assert close(b.e2, a.e2) and close(b.c2, a.c2)


@SETTINGS
@given(
    kind=st.sampled_from(("unitary", "non-unitary")),
    n=sizes,
    seed=seeds,
    c=st.floats(-3.0, 3.0),
    data=st.data(),
)
def test_kernel_scales_quadratically_under_reparametrization(kind, n, seed, c, data):
    # theta -> c theta multiplies the first orders by c and the second by c^2
    series = make_series(kind, n, seed)
    scaled = BogoliubovSeries(series.G, c * series.alpha1, c**2 * series.alpha2, c * series.beta1, c**2 * series.beta2)
    m = data.draw(st.integers(1, 2))
    state = random_pure_state(m, np.random.default_rng(seed + 2))
    modes = tuple(data.draw(st.permutations(range(1, n + 1)))[:m])
    base = qfi_perturbative(series.reduced, [(modes, state)])[0].value
    assert close(qfi_perturbative(scaled.reduced, [(modes, state)])[0].value, c**2 * base)


@SETTINGS
@given(
    n=sizes,
    seed=seeds,
    nu=st.lists(st.floats(1.001, 3.0), min_size=1, max_size=2),
    data=st.data(),
)
def test_kernel_refuses_mixed_probe(n, seed, nu, data):
    rng = np.random.default_rng(seed)
    series = synthetic_unitary_series(n, rng, strength=0.3)
    m = len(nu)
    s = random_symplectic(m, rng)
    state = GaussianState(rng.normal(size=2 * m), s @ np.diag(np.repeat(nu, 2)) @ s.T)
    modes = tuple(data.draw(st.permutations(range(1, n + 1)))[:m])
    with pytest.raises(ValueError, match="pure probe"):
        qfi_perturbative(series.reduced, [(modes, state)])
