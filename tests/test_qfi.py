import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _c2_single_mode_explicit,
    c2_from_orders,
    c2_single_mode_literature,
    c2_two_mode_product_literature,
    e2_single_mode,
    e2_single_mode_literature,
    e2_two_mode,
    f_sums,
    random_mixed_state,
    random_pure_state,
    sigma_orders_from_blocks,
    synthetic_unitary_series,
)
from gaussfisher.bogoliubov import BogoliubovSeries, series_from_csv
from gaussfisher.qfi import (
    FAMILIES,
    QfiResult,
    energy_matched_params,
    negativity_first_order,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)
from gaussfisher.states import GaussianState
from gaussfisher.sweeps import CavityChannel, ImportedChannel, SweepSpec, run_sweep

SINGLE, PRODUCT, TMS = "single_squeezed_displaced", "two_product_squeezed_displaced", "two_mode_squeezed"


def single(series, k, r, delta):
    return qfi_perturbative([(series.reduced((k,)), probe_state(SINGLE, r, delta))])[0]


def product(series, k, k_prime, r, delta):
    return qfi_perturbative([(series.reduced((k, k_prime)), probe_state(PRODUCT, r, delta))])[0]


def tms(series, k, k_prime, r):
    return qfi_perturbative([(series.reduced((k, k_prime)), probe_state(TMS, r, 0.0))])[0]


def null_series(n):
    zeros = np.zeros((n, n), dtype=complex)
    return BogoliubovSeries(np.ones(n, dtype=complex), zeros, zeros, zeros, zeros)


def rotation_series():
    """Exact phase-rotation channel on one mode: alpha(theta) = e^{i theta}."""
    return BogoliubovSeries(
        np.ones(1, dtype=complex),
        np.array([[1j]]),
        np.array([[-0.5 + 0j]]),
        np.zeros((1, 1), dtype=complex),
        np.zeros((1, 1), dtype=complex),
    )


def test_qfi_result_validation():
    with pytest.raises(ValueError):
        QfiResult(-1.0, 0.0, 0.0, "perturbative", 0.0)
    with pytest.raises(ValueError):
        QfiResult(1.0, 0.1, 0.1, "perturbative", 0.0)  # value != 4 (e2 + c2)
    with pytest.raises(ValueError):
        QfiResult(1.0, 0.25, 0.0, "guess", 0.0)
    ok = QfiResult(1.0, 0.25, 0.0, "perturbative", 0.0)
    assert ok.value == 4.0 * (ok.e2 + ok.c2)


def test_qfi_result_refuses_a_value_that_is_not_finite():
    # NaN compares false against the negative floor, so it needs its own refusal
    for value in (math.nan, math.inf, np.array([0.3, math.nan])):
        with pytest.raises(ValueError, match="^QFI value (nan|inf) is not finite$"):
            QfiResult(value, math.nan, math.nan, "oracle", 1e-6)
    # the oracle's NaN split and a one-step ladder's infinite residual stay allowed
    assert QfiResult(0.3, math.nan, math.nan, "oracle", math.inf).residual == math.inf


def test_f_sums_examples():
    series = null_series(4)
    sums = f_sums(series, (1, 2), (1, 2))
    assert np.max(sums.f_alpha) == 0.0 and np.max(sums.f_beta) == 0.0
    assert np.max(np.abs(sums.g_alpha_beta)) == 0.0

    alpha1 = np.zeros((4, 4), dtype=complex)
    alpha1[2, 0] = 2.0  # row 3, column 1
    zeros = np.zeros((4, 4), dtype=complex)
    series = BogoliubovSeries(np.ones(4, dtype=complex), alpha1, zeros, zeros, zeros)
    sums = f_sums(series, (1, 2), (1,))
    assert np.isclose(sums.f_alpha[0], 2.0)
    assert sums.f_beta[0] == 0.0


def test_f_sums_conventions(unitary_series):
    # column sums over rows outside the exclusion set
    sums = f_sums(unitary_series, (2, 4), (2, 4))
    rows = [n for n in range(unitary_series.n_max) if n not in (1, 3)]
    manual = 0.5 * sum(abs(unitary_series.alpha1[n, 1]) ** 2 for n in rows)
    assert np.isclose(sums.f_alpha[0], manual)
    manual_g = sum(
        unitary_series.alpha1[n, 1] * np.conj(unitary_series.beta1[n, 3]) for n in rows
    )
    assert np.isclose(sums.g_alpha_beta[0, 1], manual_g)


@pytest.mark.parametrize("modes", ((1,), (2, 4), (6, 1), (1, 2, 3, 4, 5, 6)))
def test_perturbative_residual_tail_matches_f_sums(unitary_series, modes):
    # the kernel's inline spectator tail is the tail of the test-only sums,
    # also when the last mode is probed and when no spectator is left
    _, second = unitary_series.unitarity_residuals(modes=modes)
    tail = f_sums(unitary_series, modes, modes).tail
    assert unitary_series.reduced(modes).residual == max(tail, second)
    assert (tail == 0.0) == (len(modes) == unitary_series.n_max)


def test_c2_from_orders_examples():
    assert c2_from_orders(np.eye(4), np.zeros((4, 4)), np.zeros((4, 4))) == 0.0
    a = 0.37
    assert np.isclose(c2_from_orders(np.eye(4), np.zeros((4, 4)), a * np.eye(4)), a)


def test_e2_zero_cases(unitary_series, cavity_series_u03):
    assert single(unitary_series, 1, 0.7, 0.0).e2 == 0.0
    assert product(unitary_series, 1, 3, 0.7, 0.0).e2 == 0.0
    # channels with vanishing diagonal first order cannot see a displacement
    # of a single probe mode at leading order (bound: squared fit leakage)
    for r in (0.0, 0.8):
        for delta in (0.5, 2.0):
            assert abs(single(cavity_series_u03, 1, r, delta).e2) <= 1e-16


def test_rotation_channel_displacement_qfi():
    # phase estimation with a coherent probe: H = 4 delta^2, a classic value
    # that pins down the normalization of the displacement contribution
    series = rotation_series()
    delta = 1.3
    pert = single(series, 1, 0.0, delta)
    assert np.isclose(pert.value, 4.0 * delta**2, rtol=0, atol=1e-12)
    assert np.isclose(pert.e2, delta**2, rtol=0, atol=1e-13)
    assert np.isclose(pert.c2, 0.0, atol=1e-13)

    family = probe_family(series, [((1,), probe_state(SINGLE, 0.0, delta))])
    (oracle,) = qfi_oracle(family, 0.2, steps=(1e-2, 1e-3, 1e-4))
    assert oracle.residual <= 1e-6
    assert np.isclose(oracle.value, 4.0 * delta**2, rtol=1e-7)

    # the quoted literature form carries an extra factor of two here
    assert np.isclose(
        e2_single_mode_literature(series, 1, 0.0, delta), 2.0 * delta**2, atol=1e-13
    )


def test_kernel_refuses_a_non_finite_term_by_name():
    # a first moment of 1e200 overflows e2 (probe_state refuses it; a state
    # built directly does not): refused by name, not through H = 4 (e2 + c2)
    state = GaussianState(np.array([1e200, 0.0]), np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^perturbative e2=inf is not finite$"):
            qfi_perturbative([(rotation_series().reduced((1,)), state)])


def test_e2_matches_first_moment_quadratic_form(unitary_series):
    # the closed form is the quadratic form <X>^(1)T (2 sigma0)^-1 <X>^(1),
    # which the kernel evaluates
    r, delta = 0.6, 0.9
    sigma0, _, _, mean1 = unitary_series.reduced((2,)).covariance_orders(probe_state(SINGLE, r, delta))
    quadratic = float(mean1 @ np.linalg.solve(2.0 * sigma0, mean1))
    assert np.isclose(e2_single_mode(unitary_series, 2, r, delta), quadratic, rtol=1e-12)
    assert np.isclose(single(unitary_series, 2, r, delta).e2, quadratic, rtol=1e-12)

    sigma0, _, _, mean1 = unitary_series.reduced((1, 3)).covariance_orders(probe_state(PRODUCT, r, delta))
    quadratic = float(mean1 @ np.linalg.solve(2.0 * sigma0, mean1))
    assert np.isclose(e2_two_mode(unitary_series, 1, 3, r, delta), quadratic, rtol=1e-12)
    assert np.isclose(product(unitary_series, 1, 3, r, delta).e2, quadratic, rtol=1e-12)


def test_c2_single_mode_cases(unitary_series):
    assert single(null_series(3), 2, 0.8, 0.0).c2 == 0.0
    # at r = 0 the master path reduces to spectator sums plus diagonal terms;
    # the first-order diagonal is purely imaginary relative to G for unitary
    # channels, so its real part drops out
    k = 2
    sums = f_sums(unitary_series, (k,), (k,))
    b_kk = unitary_series.beta1[k - 1, k - 1]
    g = unitary_series.G[k - 1]
    a_kk = unitary_series.alpha1[k - 1, k - 1]
    expected = (
        2.0 * float(sums.f_beta[0])
        + 0.5 * abs(b_kk) ** 2
        + 0.5 * float((np.conj(g) * a_kk).real) ** 2
    )
    assert np.isclose(single(unitary_series, k, 0.0, 0.0).c2, expected, rtol=1e-10)


def test_c2_single_mode_dual_path_agreement(rng):
    # the trace form and the explicit coefficient form are evaluated through
    # genuinely different code paths and must coincide (a transcription-bug
    # detector for the kernel)
    for _ in range(50):
        series = synthetic_unitary_series(4, rng, strength=0.3)
        k = int(rng.integers(1, 5))
        r = float(rng.uniform(-1.0, 1.5))
        master = single(series, k, r, 0.0).c2
        explicit = _c2_single_mode_explicit(series, k, r)
        assert abs(master - explicit) <= 1e-9 * max(1.0, abs(master))


def test_c2_single_mode_explicit_spectator_sum_matches_loop(rng):
    # the spectator sum of the coefficient form is vectorized; the per-mode
    # loop it replaced is the reference
    for _ in range(20):
        series = synthetic_unitary_series(5, rng, strength=0.3)
        k = int(rng.integers(1, 6))
        r = float(rng.uniform(-1.0, 1.5))
        i, g = k - 1, series.G[k - 1]
        loop = 0.0
        for n in range(series.n_max):
            if n == i:
                continue
            a1, b1 = series.alpha1[i, n], series.beta1[i, n]
            loop += 2.0 * np.cosh(r) * (abs(a1) ** 2 + abs(b1) ** 2)
            loop += 4.0 * np.sinh(r) * (np.conj(g) ** 2 * a1 * b1).real
        # zeroing the spectator entries of row k removes exactly that sum
        a1z, b1z = series.alpha1.copy(), series.beta1.copy()
        a1z[i, np.arange(series.n_max) != i] = 0.0
        b1z[i, np.arange(series.n_max) != i] = 0.0
        stripped = BogoliubovSeries(series.G, a1z, series.alpha2, b1z, series.beta2)
        diff = _c2_single_mode_explicit(series, k, r) - _c2_single_mode_explicit(stripped, k, r)
        assert abs(diff - loop / 4.0) <= 1e-12 * max(1.0, abs(loop))


def test_c2_literature_forms_documented(unitary_series, unitary_series_diagfree):
    # the quoted coefficient forms deviate from the validated trace form at
    # finite squeezing; at r = 0 the product form coincides exactly
    master = product(unitary_series_diagfree, 1, 3, 0.0, 0.0).c2
    quoted = c2_two_mode_product_literature(unitary_series_diagfree, 1, 3, 0.0)
    assert np.isclose(master, quoted, rtol=0, atol=1e-12)
    master_r = product(unitary_series_diagfree, 1, 3, 0.7, 0.0).c2
    quoted_r = c2_two_mode_product_literature(unitary_series_diagfree, 1, 3, 0.7)
    assert abs(master_r - quoted_r) > 1e-3  # the transcribed form drifts at r > 0
    assert abs(single(unitary_series, 2, 0.7, 0.0).c2 - c2_single_mode_literature(unitary_series, 2, 0.7)) > 1e-4


def test_two_mode_paths_agree_block_assembly(rng):
    # the coefficient-block route and the full-matrix route must coincide
    for trial in range(50):
        series = synthetic_unitary_series(5, rng, strength=0.25)
        r = float(rng.uniform(0.0, 1.2))
        psi = np.diag([np.exp(r), np.exp(-r)])
        s0, s1, s2 = sigma_orders_from_blocks(series, 1, 3, psi, psi, np.zeros((2, 2)))
        block_value = c2_from_orders(s0, s1, s2)
        master = product(series, 1, 3, r, 0.0).c2
        assert abs(block_value - master) <= 1e-9 * max(1.0, abs(master))


def test_two_mode_squeezed_wrapper(unitary_series):
    assert tms(null_series(3), 1, 2, 0.9).value == 0.0
    result = tms(unitary_series, 1, 3, 0.8)
    assert result.e2 == 0.0
    assert result.value == 4.0 * result.c2
    # r = 0 reduces to the product value (both are the vacuum formula)
    vac_tms = tms(unitary_series, 1, 3, 0.0)
    vac_prod = product(unitary_series, 1, 3, 0.0, 0.0)
    assert np.isclose(vac_tms.value, vac_prod.value, rtol=1e-12)
    with pytest.raises(ValueError):
        tms(unitary_series, 1, 1, 0.5)


def test_two_mode_squeezed_block_path(rng):
    for _ in range(50):
        series = synthetic_unitary_series(5, rng, strength=0.25)
        r = float(rng.uniform(0.0, 1.2))
        ch, sh = np.cosh(r), np.sinh(r)
        s0, s1, s2 = sigma_orders_from_blocks(
            series, 1, 3, ch * np.eye(2), ch * np.eye(2), np.diag([sh, -sh])
        )
        block_value = 4.0 * c2_from_orders(s0, s1, s2)
        master = tms(series, 1, 3, r).value
        assert abs(block_value - master) <= 1e-9 * max(1.0, abs(master))


def test_vacuum_limit_identities_machine(unitary_series_diagfree):
    series = unitary_series_diagfree
    k, kp = 1, 3
    sums_single = f_sums(series, (k,), (k,))
    h1 = single(series, k, 0.0, 0.0).value
    assert abs(h1 - 8.0 * float(sums_single.f_beta[0])) <= 1e-12

    sums = f_sums(series, (k, kp), (k, kp))
    neg = negativity_first_order(series.reduced((k, kp)))
    rhs = 8.0 * float(sums.f_beta[0]) + 8.0 * float(sums.f_beta[1]) + 4.0 * neg**2
    h2 = product(series, k, kp, 0.0, 0.0).value
    h3 = tms(series, k, kp, 0.0).value
    assert abs(h2 - rhs) <= 1e-12
    assert abs(h3 - rhs) <= 1e-12


def test_negativity_examples():
    assert negativity_first_order(null_series(3).reduced((1, 2))) == 0.0
    beta1 = np.zeros((3, 3), dtype=complex)
    beta1[0, 1] = 3.0 + 4.0j
    zeros = np.zeros((3, 3), dtype=complex)
    series = BogoliubovSeries(np.ones(3, dtype=complex), zeros, zeros, beta1, zeros)
    assert np.isclose(negativity_first_order(series.reduced((1, 2))), 5.0)
    with pytest.raises(ValueError):
        negativity_first_order(series.reduced((2, 2)))


def test_energy_budget():
    # the budget split on a two-mode family, whose probe modes carry N each
    r, delta = energy_matched_params(PRODUCT, 1.0, 1, 2, x=1.0)
    assert np.isclose(r, np.arcsinh(1.0)) and delta == 0.0
    r, delta = energy_matched_params(PRODUCT, 4.0, 1, 2, x=0.0)
    assert r == 0.0 and np.isclose(delta, 2.0)
    r, delta = energy_matched_params(PRODUCT, 2.0, 1, 2, x=0.5)
    assert np.isclose(np.sinh(r) ** 2, 1.0) and np.isclose(delta**2, 1.0)
    for family in (SINGLE, PRODUCT):
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            energy_matched_params(family, 1.0, 1, 2, x=1.5)
        with pytest.raises(ValueError, match="photon number must be non-negative"):
            energy_matched_params(family, -1.0, 1, 2, x=0.5)
    with pytest.raises(ValueError, match="photon number must be non-negative"):
        energy_matched_params(TMS, -1.0, 1, 2)
    with pytest.raises(ValueError, match="unknown state family"):
        energy_matched_params("squeezed_thermal", 1.0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(list(FAMILIES)),
    photons=st.floats(0.0, 5.0),
    x=st.floats(0.0, 1.0),
    k=st.integers(1, 30),
    gap=st.integers(1, 30),
)
def test_energy_rule_splits_the_stated_budget(family, photons, x, k, gap):
    # sinh^2 r = x N_f and delta^2 = (1 - x) N_f, with N_f the photon number
    # of the single-mode probe's one mode, N (k + k') / k, or N for the
    # two-mode families. This pins the convention: sinh^2 r is not the
    # photon number of a diag(e^r, e^-r) mode, which carries sinh^2(r / 2)
    k_prime = k + gap
    _, displaced = FAMILIES[family]
    x = x if displaced else 1.0
    n_f = photons * (k + k_prime) / k if family == SINGLE else photons
    r, delta = energy_matched_params(family, photons, k, k_prime, x)
    assert math.isclose(np.sinh(r) ** 2, x * n_f, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(delta**2, (1.0 - x) * n_f, rel_tol=1e-12, abs_tol=1e-12)


def test_energy_matched_params():
    # the single-mode probe concentrates the whole two-mode budget in mode k
    r1, d1 = energy_matched_params("single_squeezed_displaced", 1.0, 1, 2)
    assert np.isclose(np.sinh(r1) ** 2, 3.0) and d1 == 0.0
    r2, _ = energy_matched_params("two_product_squeezed_displaced", 1.0, 1, 2)
    assert np.isclose(np.sinh(r2) ** 2, 1.0)
    with pytest.raises(ValueError):
        energy_matched_params("two_mode_squeezed", 1.0, 1, 2, x=0.5)


def test_oracle_constant_family():
    state = probe_state(SINGLE, 0.5, 1.0)

    def family(thetas):
        return [[(state.first_moments, state.covariance)] for _ in thetas]

    (result,) = qfi_oracle(family, 0.1)
    assert abs(result.value) <= 1e-9
    assert math.isnan(result.e2) and math.isnan(result.c2)


def test_oracle_calls_the_family_once_on_the_whole_ladder():
    seen = []

    def family(thetas):
        seen.append(list(thetas))
        return [[(np.zeros(2), np.eye(2))] for _ in thetas]

    qfi_oracle(family, 0.1, steps=(1e-2, 1e-3))
    assert seen == [[0.1, 0.1 - 1e-2, 0.1 + 1e-2, 0.1 - 1e-3, 0.1 + 1e-3]]


def test_oracle_step_validation():
    def family(thetas):
        return [[(np.zeros(2), np.eye(2))] for _ in thetas]

    with pytest.raises(ValueError):
        qfi_oracle(family, 0.1, steps=())
    with pytest.raises(ValueError):
        qfi_oracle(family, 0.1, steps=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        qfi_oracle(family, 0.1, steps=(1e-2, -1e-3))


def test_oracle_convergence_flag(rng):
    # a probe with a jittery fidelity cannot reach a tight residual, while
    # the same probe without the jitter does, in the same family: each probe
    # has its own tableau
    state = probe_state(SINGLE, 0.0, 1.0)

    def probes(theta):
        bump = 1e-5 * np.sin(1.0 / (abs(theta) + 1e-6))
        noisy = state.first_moments * (1.0 + theta + bump), state.covariance
        clean = state.first_moments * (1.0 + theta), state.covariance
        return [noisy, clean]

    def family(thetas):
        return [probes(theta) for theta in thetas]

    noisy, clean = qfi_oracle(family, 0.05, steps=(1e-2, 1e-3, 1e-4))
    assert noisy.residual > 1e-10
    assert clean.residual < 1e-10


def test_method_agreement_on_synthetic_channel(rng):
    series = synthetic_unitary_series(5, np.random.default_rng(5), strength=0.3)
    for family_name, modes, r, delta in (
        ("single_squeezed_displaced", (2,), 1.0, 0.0),
        ("two_product_squeezed_displaced", (1, 3), 0.6, 0.9),
        ("two_mode_squeezed", (1, 3), 1.0, 0.0),
    ):
        state = probe_state(family_name, r, delta)
        (pert,) = qfi_perturbative([(series.reduced(modes), state)])
        fam = probe_family(series, [(modes, state)])
        devs = []
        for theta in (0.02, 0.04, 0.08):
            (orc,) = qfi_oracle(fam, theta, steps=(theta / 5, theta / 15, theta / 45))
            devs.append(abs(pert.value - orc.value) / abs(orc.value))
        slope = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log(devs), 1)[0]
        assert slope >= 0.8, (family_name, devs)


def test_probe_state_guards():
    with pytest.raises(ValueError):
        probe_state("two_mode_squeezed", 0.5, 1.0)
    with pytest.raises(ValueError):
        probe_state("unknown", 0.5, 0.0)
    # the trace form holds for pure probes only
    mixed = random_mixed_state(2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="pure probe"):
        qfi_perturbative([(null_series(3).reduced((1, 2)), mixed)])


def test_two_mode_advantage_identity(rng):
    # H2|vac - H1|vac = 8 f_beta^{k'} (exclusion {k, k'}) exactly, for any
    # unitary channel with vanishing diagonal first order; the numerical
    # sweep inequality is a consequence of this identity
    for _ in range(20):
        series = synthetic_unitary_series(5, rng, strength=0.3, zero_diagonal=True)
        k, kp = 1, 3
        h1 = single(series, k, 0.0, 0.0).value
        h2 = product(series, k, kp, 0.0, 0.0).value
        f_kp = float(f_sums(series, (k, kp), (k, kp)).f_beta[1])
        assert abs((h2 - h1) - 8.0 * f_kp) <= 1e-12
        assert h2 >= h1


def test_known_squeezing_estimation_value():
    # family sigma(theta) = diag(e^theta, e^-theta): the exact QFI is 1/2
    sigma1 = np.diag([1.0, -1.0])
    sigma2 = 0.5 * np.eye(2)
    assert np.isclose(4.0 * c2_from_orders(np.eye(2), sigma1, sigma2), 0.5, rtol=1e-14)


#: the kernel against general solves on drawn probes, per unit of max(1, |v|):
#: 300 draws of the test below differ by at most 2.8e-13, and each form is
#: within 6e-14 of a 60-digit evaluation on the synthetic channels
SOLVE_REL = 1e-12


def assert_kernel_is_the_solve_form(reduced, states):
    """The kernel's ``e2`` and ``c2`` against general solves of ``sigma0``,
    per unit of ``max(1, |v|)``."""
    for state in states:
        sigma0, sigma1, sigma2, mean1 = reduced.covariance_orders(state)
        (got,) = qfi_perturbative([(reduced, state)])
        e2 = 0.5 * np.sum(mean1 * np.linalg.solve(sigma0, mean1[..., None])[..., 0], axis=-1)
        for name, want in (("e2", e2), ("c2", c2_from_orders(sigma0, sigma1, sigma2))):
            assert np.all(np.abs(getattr(got, name) - want) <= SOLVE_REL * np.maximum(1.0, np.abs(want))), name


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(4, 24),
    n_modes=st.integers(1, 2),
    grid=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    strength=st.floats(0.05, 1.0),
)
def test_kernel_gives_the_solve_form_on_drawn_probes(n_max, n_modes, grid, seed, strength):
    """Random pure probes on random modes, on the cavity's stack and on an
    exact synthetic channel: the kernel's ``Omega sigma0 Omega^T`` inverse
    gives the trace form of general solves."""
    rng = np.random.default_rng(seed)
    modes = tuple(sorted(rng.choice(np.arange(1, n_max // 2 + 1), size=n_modes, replace=False).tolist()))
    stack = CavityChannel(n_max=n_max).reduced(grid, [modes])
    states = [random_pure_state(len(modes), rng, strength) for _ in range(2)]
    assert_kernel_is_the_solve_form(stack[modes], states)
    assert_kernel_is_the_solve_form(synthetic_unitary_series(n_max, rng).reduced(modes), states)


CHANNEL_FILE = Path(__file__).resolve().parent / "data" / "channel_cavity_nmax8_u0.3.csv"


def test_the_perturbative_route_runs_no_linear_solve(monkeypatch):
    # a pure probe's sigma0 is inverted by Omega sigma0 Omega^T, so a sweep of
    # every family factors no matrix; the autouse memo fixture has cleared the
    # kept reduced channels, so the cavity's are built under the patch too
    imported = ImportedChannel(series_from_csv(CHANNEL_FILE.read_text(encoding="utf-8")))

    def refuse(*args, **kwargs):
        raise AssertionError("the perturbative route called a linear solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    spec = SweepSpec(grid=(0.0, 0.3, 0.71))
    assert spec.families == tuple(FAMILIES)
    for channel in (CavityChannel(), imported):
        rows = run_sweep(spec, channel)
        assert len(rows) == len(spec.grid) * len(FAMILIES)
        assert all(np.isfinite(row.qfi_perturbative) for row in rows)
