"""Property tests of the generic perturbative kernel ``qfi_perturbative``.

The kernel takes a series, the probed modes and a probe state. For the three
named families it must reproduce the closed forms in ``conftest``, on exact
(unitary) channels and on arbitrary non-unitary coefficient matrices alike:
both sides are the same polynomial in the series coefficients. A pure
probe's ``sigma0`` is symplectic, so the kernel inverts it as
``Omega sigma0 Omega^T``; that identity, and the kernel's accuracy against a
60-digit evaluation of the trace form, are held here too.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _c2_single_mode_explicit,
    c2_from_orders,
    e2_single_mode,
    e2_two_mode,
    random_pure_state,
    random_symplectic,
    sigma_orders_from_blocks,
    synthetic_unitary_series,
)
from gaussfisher.bogoliubov import BogoliubovSeries
from gaussfisher.qfi import FAMILIES, MAX_DISPLACEMENT, MAX_SQUEEZING, probe_state, qfi_perturbative
from gaussfisher.states import GaussianState, symplectic_form
from gaussfisher.sweeps import CavityChannel

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
    (result,) = qfi_perturbative([(series.reduced(modes), state)])
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
    (a,) = qfi_perturbative([(series.reduced((k, kp)), state)])
    (b,) = qfi_perturbative([(series.reduced((kp, k)), swapped(state))])
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
    base = qfi_perturbative([(series.reduced(modes), state)])[0].value
    assert close(qfi_perturbative([(scaled.reduced(modes), state)])[0].value, c**2 * base)


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
        qfi_perturbative([(series.reduced(modes), state)])


#: ``|(Omega sigma0 Omega^T) sigma0 - I|`` per unit of ``e^(2|r|)``, the spread
#: of the probe covariance: the products' roundoff scales with it. 3000 draws
#: over both kinds of series, every family and ``|r| <= MAX_SQUEEZING`` reach
#: 2.4 float epsilons; the bound allows 8 (3.9e-11 at ``|r|`` 5)
IDENTITY_EPS = 8.0 * np.finfo(float).eps


@SETTINGS
@given(
    kind=st.sampled_from(("unitary", "non-unitary")),
    family=st.sampled_from(tuple(FAMILIES)),
    n=sizes,
    seed=seeds,
    r=st.floats(-MAX_SQUEEZING, MAX_SQUEEZING),
    delta=st.floats(-MAX_DISPLACEMENT, MAX_DISPLACEMENT),
    data=st.data(),
)
def test_a_pure_probes_sigma0_is_inverted_by_its_symplectic_conjugate(kind, family, n, seed, r, delta, data):
    # sigma0 = A0 Sigma A0^T with A0 a rotation and Sigma symplectic, so
    # Omega sigma0 Omega^T is its inverse, whatever the displacement
    series = make_series(kind, n, seed)
    state = probe_state(family, r, delta if FAMILIES[family][1] else 0.0)
    modes = tuple(data.draw(st.permutations(range(1, n + 1)))[: state.n_modes])
    sigma0 = series.reduced(modes).covariance_orders(state)[0]
    omega = symplectic_form(state.n_modes)
    defect = np.max(np.abs(omega @ sigma0 @ omega.T @ sigma0 - np.eye(2 * state.n_modes)))
    assert defect <= IDENTITY_EPS * np.exp(2.0 * abs(r))


def trace_form_mp(reduced, i, state):
    """``(value, c2)`` of grid point ``i`` of a reduced stack, to 60 digits:
    the covariance orders formed from the same float blocks and state, and
    ``sigma0`` inverted by a general solve."""
    with mpmath.workdps(60):
        a0, a1, a2, b2 = (mpmath.matrix(block[i].tolist()) for block in (reduced.s0, reduced.s1, reduced.s2, reduced.b2))
        sigma, mean = mpmath.matrix(state.covariance.tolist()), mpmath.matrix(state.first_moments.tolist())
        cross1, cross2 = a1 * sigma * a0.T, a2 * sigma * a0.T
        inv = (a0 * sigma * a0.T) ** -1
        x = inv * (cross1 + cross1.T)
        y = inv * (cross2 + cross2.T + a1 * sigma * a1.T + b2)
        mean1 = a1 * mean

        def trace(mat):
            return mpmath.fsum(mat[k, k] for k in range(mat.rows))

        c2 = (trace(x) ** 2 - trace(x * x) + 4 * trace(y)) / 16
        e2 = (mean1.T * inv * mean1)[0] / 2
        return 4 * (e2 + c2), c2


#: the kernel's relative error in ``value`` and ``c2`` against
#: :func:`trace_form_mp` on the cavity cells below: at most 1.74e-12 measured
#: (two-mode squeezed, ``|r|`` 5, ``u`` 0.4), so 5e-12 leaves a factor ~3
ACCURACY_REL = 5e-12


def test_kernel_accuracy_against_a_60_digit_trace_form():
    """All three families at ``r`` 3, 5 and -5 on the cavity's 21-point grid
    at ``n_max`` 20. Every cell holds the bound, and the kernel's median error
    is no larger than that of general solves of the same float orders."""
    grid = tuple(np.round(np.linspace(0.0, 1.0, 21), 10))
    channel = CavityChannel(n_max=20)
    kernel, solves = [], []
    for r in (3.0, 5.0, -5.0):
        for family, (n_modes, displaced) in FAMILIES.items():
            state = probe_state(family, r, 1.0 if displaced else 0.0)
            modes = (1, 2)[:n_modes]
            reduced = channel.reduced(grid, [modes])[modes]
            (result,) = qfi_perturbative([(reduced, state)])
            by_solves = c2_from_orders(*reduced.covariance_orders(state)[:3])
            for i in range(len(grid)):
                value, c2 = trace_form_mp(reduced, i, state)
                errors = (abs((result.value[i] - value) / value), abs((result.c2[i] - c2) / c2))
                assert max(errors) <= ACCURACY_REL, (family, r, grid[i], errors)
                kernel.append(float(errors[1]))
                solves.append(float(abs((by_solves[i] - c2) / c2)))
    assert np.median(kernel) <= np.median(solves)
