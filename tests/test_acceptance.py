"""Acceptance criteria, one test per criterion (criterion 7 is split so each
feature reports separately). Every test prints a PASS/FAIL line with the
measured numbers; run with ``pytest tests/test_acceptance.py -s`` to see them
on success too.
"""

import time

import numpy as np
import pytest

from conftest import fidelity, f_sums, random_mixed_state, sigma_orders_from_blocks, synthetic_unitary_series
from gaussfisher.bogoliubov import identity_residual
from gaussfisher.cavity import compose_one_segment, load_or_compute_overlap_series, rindler_overlaps
from gaussfisher.fidelity import fidelity_one_mode, fidelity_two_mode
from gaussfisher.qfi import (
    c2_from_orders,
    energy_matched_params,
    negativity_first_order,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)

#: comparison tolerance for QFI orderings on the sweep grid; at the trivial
#: channel points (integer u) every QFI is zero up to the mode-truncation
#: noise of the deep ladder, measured at a few 1e-8
ORDER_TOL = 1e-7

U_GRID = tuple(np.round(np.arange(0.0, 1.0001, 0.01), 10))

SINGLE, PRODUCT, TMS = "single_squeezed_displaced", "two_product_squeezed_displaced", "two_mode_squeezed"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")


DEEP_SCENARIO_KWARGS = dict(h=0.05, n_max=60)


@pytest.fixture(scope="module")
def deep_sweep(tmp_path_factory):
    """QFI curves of the three probe families at matched energy (N = 1) plus
    the vacuum (r = 0) curves, on the acceptance u grid, produced through
    the sweep pipeline."""
    from gaussfisher.sweeps import CavityChannel, SweepSpec, run_sweep

    cache = str(tmp_path_factory.mktemp("overlap-cache"))
    channel = CavityChannel(**DEEP_SCENARIO_KWARGS, cache=cache)
    matched = run_sweep(SweepSpec(grid=U_GRID, photons=1.0, x=1.0), channel)
    vacuum = run_sweep(
        SweepSpec(
            grid=U_GRID,
            families=("single_squeezed_displaced", "two_product_squeezed_displaced"),
            r=0.0,
            delta=0.0,
        ),
        channel,
    )

    def column(rows, family):
        return np.array([r.qfi_perturbative for r in rows if r.family == family])

    return {
        "single": column(matched, "single_squeezed_displaced"),
        "product": column(matched, "two_product_squeezed_displaced"),
        "tms": column(matched, "two_mode_squeezed"),
        "single_vac": column(vacuum, "single_squeezed_displaced"),
        "product_vac": column(vacuum, "two_product_squeezed_displaced"),
    }


def test_criterion_1_symplectic_bogoliubov_consistency(exact_overlaps_h005):
    probes = (1, 2)
    residuals = {}
    for n, overlaps in exact_overlaps_h005.items():
        residuals[n] = identity_residual(overlaps.alpha, overlaps.beta, probes)
    ok = (
        residuals[10] <= 1e-3
        and residuals[20] < residuals[10]
        and residuals[10] <= residuals[5]
    )
    # exact single-mode channels are symplectic to machine precision
    r, phi = 0.8, 0.7
    exact = max(
        identity_residual([[np.cosh(r)]], [[np.sinh(r)]]),
        identity_residual([[np.exp(1j * phi) * np.cosh(r)]], [[np.exp(1j * phi) * np.sinh(r)]]),
    )
    ok = ok and exact <= 1e-12
    report(
        "1",
        ok,
        f"cavity channel residual (probed modes) n_max 5/10/20 = "
        f"{residuals[5]:.3e}/{residuals[10]:.3e}/{residuals[20]:.3e} "
        f"(bound 1e-3, strictly decreasing); exact single-mode channels {exact:.3e} <= 1e-12",
    )
    assert residuals[10] <= 1e-3
    assert residuals[20] < residuals[10] <= residuals[5]
    assert exact <= 1e-12


def test_criterion_2_fidelity_sanity():
    rng = np.random.default_rng(214)
    worst_self = worst_swap = 0.0
    for n in (1, 2):
        for _ in range(50):
            a, b = random_mixed_state(n, rng), random_mixed_state(n, rng)
            worst_self = max(worst_self, abs(fidelity(a, a) - 1.0))
            worst_swap = max(worst_swap, abs(fidelity(a, b) - fidelity(b, a)))
    worst_fact = 0.0
    for _ in range(50):
        parts = [random_mixed_state(1, rng) for _ in range(4)]
        z = np.zeros((2, 2))
        cov_a = np.block([[parts[0].covariance, z], [z, parts[1].covariance]])
        cov_b = np.block([[parts[2].covariance, z], [z, parts[3].covariance]])
        dx = np.concatenate(
            [
                parts[2].first_moments - parts[0].first_moments,
                parts[3].first_moments - parts[1].first_moments,
            ]
        )
        joint = fidelity_two_mode(cov_a, cov_b, dx)
        product = fidelity(parts[0], parts[2]) * fidelity(parts[1], parts[3])
        worst_fact = max(worst_fact, abs(joint - product))
    # stationarity at zero separation along smooth physical families
    from scipy.linalg import expm

    from gaussfisher.states import symplectic_form

    worst_deriv = 0.0
    step = 1e-4
    for n in (1, 2):
        fid = fidelity_one_mode if n == 1 else fidelity_two_mode
        for _ in range(10):
            q = rng.normal(scale=0.4, size=(2 * n, 2 * n))
            gen = symplectic_form(n) @ (0.5 * (q + q.T))
            base = random_mixed_state(n, rng, max_excess=0.3)

            def family(theta):
                s = expm(theta * gen)
                return s @ base.first_moments, s @ base.covariance @ s.T

            m0, c0 = family(0.3)
            mp, cp = family(0.3 + step)
            mm, cm = family(0.3 - step)
            deriv = (fid(c0, cp, mp - m0) - fid(c0, cm, mm - m0)) / (2 * step)
            worst_deriv = max(worst_deriv, abs(deriv))
    ok = worst_self <= 1e-12 and worst_swap <= 1e-12 and worst_fact <= 1e-10 and worst_deriv <= 1e-6
    report(
        "2",
        ok,
        f"self-fidelity {worst_self:.2e} <= 1e-12, swap {worst_swap:.2e} <= 1e-12, "
        f"factorization {worst_fact:.2e} <= 1e-10, stationarity {worst_deriv:.2e} <= 1e-6",
    )
    assert ok


def test_criterion_3_dual_path_agreement(overlap_series_10):
    start = time.monotonic()
    series = compose_one_segment(overlap_series_10, 0.3)
    ladder = (0.02, 0.04, 0.08)
    slopes = {}
    for family_name, modes in (
        ("single_squeezed_displaced", (1,)),
        ("two_product_squeezed_displaced", (1, 2)),
        ("two_mode_squeezed", (1, 2)),
    ):
        state = probe_state(family_name, 1.0, 0.0)
        (pert,) = qfi_perturbative([(series.reduced(modes), state)])
        fam = probe_family(series, [(modes, state)])
        devs = []
        for h in ladder:
            (orc,) = qfi_oracle(fam, h, steps=(h / 5, h / 15, h / 45))
            devs.append(abs(pert.value - orc.value) / abs(orc.value))
        slopes[family_name] = float(np.polyfit(np.log(ladder), np.log(devs), 1)[0])
    elapsed = time.monotonic() - start
    ok = all(s >= 0.8 for s in slopes.values()) and elapsed < 60.0
    report(
        "3",
        ok,
        "relative-deviation slopes (u=0.3, r=1, N=1 context): "
        + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
        + f" (bound 0.8); runtime {elapsed:.1f}s < 60s",
    )
    assert ok, slopes


def test_criterion_4_vacuum_limit_identities(cavity_series_u03):
    # formula level: exact channels satisfy the identities to machine precision
    series = synthetic_unitary_series(6, np.random.default_rng(40), zero_diagonal=True)
    k, kp = 1, 3
    h1 = qfi_perturbative([(series.reduced((k,)), probe_state(SINGLE, 0.0, 0.0))])[0].value
    gap_h1 = abs(h1 - 8.0 * float(f_sums(series, (k,), (k,)).f_beta[0]))
    sums = f_sums(series, (k, kp), (k, kp))
    rhs = (
        8.0 * float(sums.f_beta[0])
        + 8.0 * float(sums.f_beta[1])
        + 4.0 * negativity_first_order(series.reduced((k, kp))) ** 2
    )
    h2 = qfi_perturbative([(series.reduced((k, kp)), probe_state(PRODUCT, 0.0, 0.0))])[0].value
    h3 = qfi_perturbative([(series.reduced((k, kp)), probe_state(TMS, 0.0, 0.0))])[0].value
    gap_h2 = max(abs(h2 - rhs), abs(h3 - rhs), abs(h2 - h3))
    # displacement terms vanish identically at delta = 0
    e_zero = max(
        abs(qfi_perturbative([(series.reduced((k,)), probe_state(SINGLE, 0.9, 0.0))])[0].e2),
        abs(qfi_perturbative([(series.reduced((k, kp)), probe_state(PRODUCT, 0.9, 0.0))])[0].e2),
    )
    # the cavity channel has no single-mode displacement response at all
    e_cavity = max(
        abs(qfi_perturbative([(cavity_series_u03.reduced((1,)), probe_state(SINGLE, r, delta))])[0].e2)
        for r in (0.0, 0.7, 1.4)
        for delta in (0.0, 0.8, 2.0)
    )
    # on the truncated cavity ladder the same identities hold within the
    # spectator tail beyond n_max (measured ~1e-6 absolute at n_max = 10)
    cav_h1 = qfi_perturbative([(cavity_series_u03.reduced((1,)), probe_state(SINGLE, 0.0, 0.0))])[0].value
    cav_gap = abs(cav_h1 - 8.0 * float(f_sums(cavity_series_u03, (1,), (1,)).f_beta[0]))
    ok = gap_h1 <= 1e-12 and gap_h2 <= 1e-12 and e_zero == 0.0 and e_cavity <= 1e-16 and cav_gap <= 5e-5
    report(
        "4",
        ok,
        f"machine-level identity gaps on exact channels: H1 {gap_h1:.2e}, "
        f"H2/H3 {gap_h2:.2e} (<= 1e-12); E at delta=0: {e_zero:.1e}; "
        f"cavity E1 for all (r, delta): {e_cavity:.2e}; cavity H1 gap within "
        f"truncation tail: {cav_gap:.2e} <= 5e-5",
    )
    assert ok


def test_criterion_5_specialization_chain():
    rng = np.random.default_rng(55)
    worst_product = worst_tms = 0.0
    for _ in range(50):
        series = synthetic_unitary_series(5, rng, strength=0.25)
        r = float(rng.uniform(0.0, 1.2))
        psi = np.diag([np.exp(r), np.exp(-r)])
        s0, s1, s2 = sigma_orders_from_blocks(series, 1, 3, psi, psi, np.zeros((2, 2)))
        block = c2_from_orders(s0, s1, s2)
        master = qfi_perturbative([(series.reduced((1, 3)), probe_state(PRODUCT, r, 0.0))])[0].c2
        worst_product = max(worst_product, abs(block - master) / max(1.0, abs(master)))
        ch, sh = np.cosh(r), np.sinh(r)
        s0, s1, s2 = sigma_orders_from_blocks(
            series, 1, 3, ch * np.eye(2), ch * np.eye(2), np.diag([sh, -sh])
        )
        block = 4.0 * c2_from_orders(s0, s1, s2)
        master = qfi_perturbative([(series.reduced((1, 3)), probe_state(TMS, r, 0.0))])[0].value
        worst_tms = max(worst_tms, abs(block - master) / max(1.0, abs(master)))
    ok = worst_product <= 1e-9 and worst_tms <= 1e-9
    report(
        "5",
        ok,
        f"block-assembled vs master covariance path over 50 random channels: "
        f"product {worst_product:.2e}, two-mode squeezed {worst_tms:.2e} (<= 1e-9)",
    )
    assert ok


def test_criterion_6_cavity_oracle(overlap_series_10, cavity_series_u03):
    hs = (0.015, 0.03, 0.06)
    res = []
    for h in hs:
        exact = rindler_overlaps(h, 10)
        model_a = np.eye(10) + overlap_series_10.alpha1 * h + overlap_series_10.alpha2 * h**2
        model_b = overlap_series_10.beta1 * h + overlap_series_10.beta2 * h**2
        res.append(
            max(np.max(np.abs(exact.alpha - model_a)), np.max(np.abs(exact.beta - model_b)))
        )
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    diag = max(
        np.max(np.abs(np.diag(cavity_series_u03.alpha1))),
        np.max(np.abs(np.diag(cavity_series_u03.beta1))),
    )
    limit = rindler_overlaps(1e-4, 10)
    limit_gap = max(np.max(np.abs(limit.alpha - np.eye(10))), np.max(np.abs(limit.beta)))
    ok = slope >= 2.7 and diag <= 1e-8 and limit_gap <= 1e-3
    report(
        "6",
        ok,
        f"series-vs-quadrature residual slope {slope:.2f} >= 2.7; composed "
        f"diagonal first order {diag:.2e} <= 1e-8; identity limit at h=1e-4: "
        f"{limit_gap:.2e} <= 1e-3",
    )
    assert ok


def test_criterion_7_product_vs_single_minimum_periodicity(deep_sweep, overlap_series_60):
    start = time.monotonic()
    margins = deep_sweep["product"] - deep_sweep["single"]
    ordering_ok = bool(np.all(margins >= -ORDER_TOL))
    us = np.array(U_GRID)
    window = (us > 0.4) & (us < 0.6)
    u_min = float(us[window][np.argmin(deep_sweep["product"][window])])
    min_ok = abs(u_min - 0.5) <= 0.01
    r2, _ = energy_matched_params("two_product_squeezed_displaced", 1.0, 1, 2)
    state = probe_state(PRODUCT, r2, 0.0)
    drift = 0.0
    for u in (0.1, 0.3, 0.5, 0.7, 0.9):
        a = qfi_perturbative([(compose_one_segment(overlap_series_60, u).reduced((1, 2)), state)])[0].value
        b = qfi_perturbative([(compose_one_segment(overlap_series_60, u + 1.0).reduced((1, 2)), state)])[0].value
        drift = max(drift, abs(a - b))
    per_ok = drift <= 1e-9
    elapsed = time.monotonic() - start
    ok = ordering_ok and min_ok and per_ok
    report(
        "7 (product >= single, minimum, periodicity)",
        ok,
        f"min margin product-single {margins.min():.2e} >= -{ORDER_TOL:g}; "
        f"product minimum at u={u_min:.2f} (0.50 +/- 0.01); periodicity drift "
        f"{drift:.2e} <= 1e-9; sweep+checks {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_product_vs_two_mode_squeezed(deep_sweep):
    """Faithful transcription of the remaining ordering clause.

    This clause fails, and the failure is genuine rather than numerical: at
    matched energy the two-mode squeezed probe out-performs the product probe
    over most of the duration range (it is the matched probe for a
    pair-creation channel). The independent fidelity oracle confirms the
    perturbative values on both sides to four digits at h = 0.01-0.02, and
    the two probes agree exactly in the vacuum limit, so the implementation
    satisfies every cross-check; the claimed pointwise ordering is what does
    not hold. See the decisions ledger for the full analysis.
    """
    margins = deep_sweep["product"] - deep_sweep["tms"]
    ok = bool(np.all(margins >= -ORDER_TOL))
    report(
        "7 (product >= two-mode squeezed)",
        ok,
        f"min margin product-tms {margins.min():.3f} at "
        f"u={float(np.array(U_GRID)[np.argmin(margins)]):.2f}; the two-mode "
        "squeezed probe is genuinely better over most of the range "
        "(oracle-confirmed); ordering clause unattainable",
    )
    assert ok, (
        "product >= two-mode-squeezed fails by a finite margin "
        f"({margins.min():.3f}); oracle-confirmed physics, see ledger"
    )


def test_criterion_8_energy_split_features():
    # definition identity: the x = 0 budget column of the sweep equals the
    # directly parameterized displaced family at equal photon number
    from gaussfisher.sweeps import CavityChannel, SweepSpec, run_sweep

    channel = CavityChannel(**DEEP_SCENARIO_KWARGS)
    fams = ("two_product_squeezed_displaced",)
    budget_rows = run_sweep(
        SweepSpec(grid=(0.2, 0.3, 0.45), families=fams, x=0.0, photons=1.0), channel
    )
    direct_rows = run_sweep(
        SweepSpec(grid=(0.2, 0.3, 0.45), families=fams, r=0.0, delta=1.0), channel
    )
    identity_gap = max(
        abs(a.qfi_perturbative - b.qfi_perturbative)
        for a, b in zip(budget_rows, direct_rows)
    )

    # record the measured ordering in x wherever the pure-displacement curve
    # is alive
    orderings = []
    for u in (0.1, 0.25, 0.4, 0.5, 0.75):
        series = compose_one_segment(load_or_compute_overlap_series(channel.n_max), u)
        values = []
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            r, d = energy_matched_params("two_product_squeezed_displaced", 1.0, 1, 2, x=x)
            values.append(qfi_perturbative([(series.reduced((1, 2)), probe_state(PRODUCT, r, d))])[0].value)
        if values[-1] > 1e-6:
            monotone = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            orderings.append((u, monotone, [round(v, 6) for v in values]))
    ok = identity_gap <= 1e-12 and len(orderings) > 0
    detail = "; ".join(
        f"u={u}: {'monotone increasing in x' if mono else 'NOT monotone: ' + str(vals)}"
        for u, mono, vals in orderings
    )
    report(
        "8",
        ok,
        f"x=0 definition identity gap {identity_gap:.2e} <= 1e-12; measured "
        f"ordering at fixed N: {detail}",
    )
    assert ok


def test_criterion_9_two_mode_advantage_vacuum(deep_sweep):
    margins = deep_sweep["product_vac"] - deep_sweep["single_vac"]
    ok = bool(np.all(margins >= -ORDER_TOL))
    report(
        "9",
        ok,
        f"vacuum-probe advantage H2 - H1 min margin {margins.min():.2e} >= "
        f"-{ORDER_TOL:g} over the full u grid",
    )
    assert ok
