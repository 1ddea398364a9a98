import ast
import dataclasses
import pathlib

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre

from conftest import alpha1_closed_form, beta1_closed_form, exact_qfi, perturbative_overlaps_reference
from gaussfisher import cavity
from gaussfisher.bogoliubov import BogoliubovSeries, identity_residual
from gaussfisher.cavity import (
    QUADRATURE_ORDERS,
    QuadratureError,
    compose_one_segment,
    load_or_compute_overlap_series,
    mode_phases,
    perturbative_overlaps,
    rindler_overlaps,
    save_overlaps_csv,
    series_cache_file,
    taylor_overlaps,
    _gauss_legendre,
    _max_fit_residual,
    _overlaps_at_order,
)
from gaussfisher.cli import main
from gaussfisher.sweeps import CavityChannel, validate


def test_scenario_validation():
    CavityChannel()  # defaults are valid
    with pytest.raises(ValueError):
        CavityChannel(h=2.5)  # left wall behind the horizon
    with pytest.raises(ValueError):
        CavityChannel(h=0.0)
    with pytest.raises(ValueError):
        CavityChannel(u=-0.1)
    for n_max in (0, -3, 2.5):
        with pytest.raises(ValueError, match="n_max"):
            CavityChannel(n_max=n_max)
    assert CavityChannel(n_max=np.int64(1)).n_max == 1
    # the probed modes are checked against the channel's n_max where they are read
    channel = CavityChannel()
    with pytest.raises(ValueError):
        validate(channel, (1, 1))
    with pytest.raises(ValueError):
        validate(channel, (11, 2))


def test_overlaps_identity_limit():
    ov = rindler_overlaps(1e-4, 10)
    assert np.max(np.abs(ov.alpha - np.eye(10))) <= 1e-3
    assert np.max(np.abs(ov.beta)) <= 1e-3


def test_overlap_quadrature_convergence():
    # orthonormality residual decreases with quadrature order
    h, n = 0.3, 8
    converged = rindler_overlaps(h, n)
    errs = []
    # orders low enough that the integrand is genuinely under-resolved;
    # compare against the converged matrices instead of the truncated
    # identity, which carries an order-independent mode tail
    for order in (6, 10, 16):
        alpha, beta = _overlaps_at_order(h, n, *np.polynomial.legendre.leggauss(order))
        errs.append(max(np.max(np.abs(alpha - converged.alpha)), np.max(np.abs(beta - converged.beta))))
    assert errs[0] > 1e-10  # start unconverged
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_horizon_guard():
    with pytest.raises(ValueError):
        rindler_overlaps(2.0, 5)


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


def expanded_overlap_coefficients(m: int, n: int) -> list:
    """``(alpha1, alpha2, beta1, beta2)`` of modes ``m`` (row) and ``n``
    (column) by a 30-digit Gauss-Legendre quadrature of the overlap
    integrand expanded in ``h``, independent of the package's closed forms:
    24 nodes on each of ``m + n`` pieces of ``t`` in [0, 1], so no piece
    holds more than half a period of either frequency."""
    with mpmath.workdps(30):
        rule = GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)
        big_m, big_n = mpmath.pi * m, mpmath.pi * n
        half, sixth = mpmath.mpf(1) / 2, mpmath.mpf(1) / 6
        pieces = m + n
        # per sigma: first = (N + sigma M) a + sigma b, second = (N + sigma M) c + sigma d
        a = b = c = d = mpmath.mpf(0)
        for piece in range(pieces):
            for node, weight in rule:
                t = (piece + (node + 1) / 2) / pieces
                w = weight / (2 * pieces) * mpmath.sin(big_n * t)
                d1, d2 = t * (1 - t) / 2, t * (1 - t) * (1 - 2 * t) / 6
                cos_m, sin_m = mpmath.cos_sin(big_m * t)
                a += w * big_m * d1 * cos_m
                b += w * big_m * (half - t) * sin_m
                c += w * big_m * (d2 * cos_m - big_m / 2 * d1**2 * sin_m)
                d += w * big_m * (big_m * (half - t) * d1 * cos_m + (t * t - t + sixth) * sin_m)
        norm = mpmath.pi * mpmath.sqrt(m * n)
        out = []
        for sigma in (1, -1):
            lead = big_n + sigma * big_m
            out += [float((lead * a + sigma * b) / norm), float((lead * c + sigma * d) / norm)]
        return out


#: both parities, the diagonal and the corners of the 20-mode block, then random pairs
TAYLOR_PAIRS = [(1, 1), (7, 7), (20, 20), (1, 20), (20, 1), (2, 19), (19, 20), (3, 5)] + [
    tuple(int(v) for v in pair) for pair in np.random.default_rng(2).integers(1, 21, (12, 2))
]


def test_taylor_overlaps_match_a_quadrature_of_the_expanded_integrand():
    series = taylor_overlaps(20)
    for m, n in TAYLOR_PAIRS:
        got = [getattr(series, name)[m - 1, n - 1] for name in ("alpha1", "alpha2", "beta1", "beta2")]
        for name, g, want in zip(("alpha1", "alpha2", "beta1", "beta2"), got, expanded_overlap_coefficients(m, n)):
            if g == 0.0:  # a parity zero: the quadrature's is roundoff at 30 digits
                assert abs(want) <= 1e-25, (m, n, name, want)
            else:
                assert abs(g - want) <= 1e-13 * abs(want), (m, n, name, g, want)


def test_taylor_overlaps_closed_forms():
    n_max = 200
    series = taylor_overlaps(n_max)
    assert series.n_max == n_max and series.fit_residual == 0.0
    idx = range(1, n_max + 1)
    a1 = np.array([[alpha1_closed_form(m, k) for k in idx] for m in idx])
    b1 = np.array([[beta1_closed_form(m, k) for k in idx] for m in idx])
    assert np.allclose(series.alpha1, a1, rtol=4e-15, atol=0.0)
    assert np.allclose(series.beta1, b1, rtol=4e-15, atol=0.0)
    n = np.arange(1, n_max + 1)
    assert np.allclose(np.diag(series.alpha2), -(n**2) * np.pi**2 / 240, rtol=4e-15, atol=0.0)
    assert np.allclose(np.diag(series.beta2), 1.0 / (16 * np.pi**2 * n**2), rtol=4e-15, atol=0.0)
    assert f"{series.alpha2[0, 2]:.7f}" == "0.0767784"
    # reflection about the centre flips h and multiplies the overlap by
    # (-1)^(m+n): exact zeros at first order for even m + n, at second for odd
    odd = (n[:, None] + n[None, :]) % 2 == 1
    for name in ("alpha1", "beta1"):
        assert np.all(getattr(series, name)[~odd] == 0.0) and np.all(getattr(series, name)[odd] != 0.0)
    for name in ("alpha2", "beta2"):
        assert np.all(getattr(series, name)[odd] == 0.0)


def test_taylor_overlaps_agree_with_the_fit_within_its_error(overlap_series_10):
    exact = taylor_overlaps(10)
    for name, bound in (("alpha1", 4e-8), ("beta1", 4e-8), ("alpha2", 2e-5), ("beta2", 2e-5)):
        assert np.max(np.abs(getattr(exact, name) - getattr(overlap_series_10, name))) <= bound, name


def residual_slope(series) -> float:
    """Log-log slope of the series' worst entry misfit against fresh
    finite-h quadratures (not in the fit ladder) at ``n_max`` 10."""
    hs = (0.015, 0.03, 0.06)
    res = []
    for h in hs:
        exact = rindler_overlaps(h, 10)
        model_a = np.eye(10) + series.alpha1 * h + series.alpha2 * h**2
        model_b = series.beta1 * h + series.beta2 * h**2
        res.append(max(np.max(np.abs(exact.alpha - model_a)), np.max(np.abs(exact.beta - model_b))))
    return np.polyfit(np.log(hs), np.log(res), 1)[0]


def test_taylor_overlaps_reproduce_finite_h_overlaps_cubically():
    assert residual_slope(taylor_overlaps(10)) >= 2.95


def test_series_reproduces_exact_overlaps_cubically(overlap_series_10):
    assert residual_slope(overlap_series_10) >= 2.7


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
    hs = (0.02, 0.04, 0.08)
    res = [identity_residual(*cavity_series_u03.evaluate(h), (1, 2), (1, 2)) for h in hs]
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
    bad = BogoliubovSeries(g, good.alpha1, alpha2_flipped, good.beta1, good.beta2)
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
    # depth: the last retained term is small (3.0e-7, against 4.4e-5 for
    # the whole sum)
    last_row = 0.5 * abs(cavity_series_u03.beta1[-1, 0]) ** 2
    assert last_row <= 1e-6


def test_oracle_matches_two_mode_squeezed_wrapper(cavity_series_u03):
    from gaussfisher.qfi import probe_family, probe_state, qfi_oracle, qfi_perturbative

    h = 0.05
    state = probe_state("two_mode_squeezed", 1.0, 0.0)
    (pert,) = qfi_perturbative([(cavity_series_u03.reduced((1, 2)), state)])
    fam = probe_family(cavity_series_u03, [((1, 2), state)])
    (orc,) = qfi_oracle(fam, h, steps=(h / 5, h / 15, h / 45))
    assert abs(pert.value - orc.value) / orc.value <= 10.0 * h


def test_oracle_matches_exact_qfi(overlap_series_10):
    # the fidelity oracle against the test-only exact QFI of the same
    # exponential family; u -> 1 - u conjugates every phase G and so the
    # channel, which the probes (invariant under p -> -p) cannot tell apart
    from gaussfisher.qfi import probe_family, qfi_oracle
    from gaussfisher.sweeps import SweepSpec

    h = 0.05
    for u in (0.3, 0.5):
        series = compose_one_segment(overlap_series_10, u)
        mirrored = compose_one_segment(overlap_series_10, 1.0 - u)
        spec = SweepSpec(x=0.5)
        probes = spec.probes()
        family = probe_family(series, [(modes, state) for *_, state, modes in probes])
        oracles = qfi_oracle(family, h, steps=(h / 10, h / 30, h / 100))
        for (family, _, _, state, modes), oracle in zip(probes, oracles):
            exact = exact_qfi(series, modes, state, h)
            assert abs(oracle.value - exact) <= 1e-5 * exact, (u, family)
            assert abs(exact_qfi(mirrored, modes, state, h) - exact) <= 1e-10 * exact, (u, family)


def _refuse_quadrature(*args):
    raise AssertionError("overlap quadrature ran although the series was cached")


def test_overlap_cache_roundtrip(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert main(["overlaps", "--nmax", "6", "--cache", str(cache)]) == 0
    assert [p.name for p in cache.iterdir()] == ["overlap_series_n6.npz"]
    direct = perturbative_overlaps(6)
    monkeypatch.setattr(cavity, "rindler_overlaps", _refuse_quadrature)
    cached = load_or_compute_overlap_series(6, str(cache))
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        assert np.array_equal(getattr(cached, name), getattr(direct, name))
        assert getattr(cached, name).dtype == np.float64
    assert cached.fit_residual == direct.fit_residual
    assert len(list(cache.iterdir())) == 1


def test_cached_series_enforces_fit_bound(tmp_path):
    cache = str(tmp_path / "cache")
    series = load_or_compute_overlap_series(6, cache)
    bad = dataclasses.replace(series, fit_residual=2.0 * _max_fit_residual(6))
    save_overlaps_csv(series_cache_file(cache, 6), bad)
    with pytest.raises(ValueError, match="fit residual 2.000e-07 above 1.000e-07"):
        load_or_compute_overlap_series(6, cache)


def test_failed_cache_write_keeps_previous_file(tmp_path, monkeypatch):
    series = perturbative_overlaps(6)
    path = tmp_path / "overlap_series_n6.npz"
    save_overlaps_csv(str(path), series)
    before = path.read_bytes()

    def fail_midway(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        save_overlaps_csv(str(path), dataclasses.replace(series, fit_residual=0.0))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gaussfisher"


def test_gauss_legendre_table_holds_exactly_the_escalation_orders():
    rules = _gauss_legendre()
    assert tuple(sorted(rules)) == QUADRATURE_ORDERS
    with pytest.raises(TypeError):
        rules[1024] = rules[512]  # every process shares the one table


@pytest.mark.parametrize("order", QUADRATURE_ORDERS)
def test_gauss_legendre_table_matches_leggauss(order):
    # bit-equal on numpy 2.4.6, which wrote the table; another numpy's
    # leggauss may differ from it in the last bits
    rule = _gauss_legendre()[order]
    assert rule.dtype == np.float64 and rule.shape == (2, order)
    assert not rule.flags.writeable
    for stored, fresh in zip(rule, np.polynomial.legendre.leggauss(order)):
        assert not stored.flags.writeable
        assert np.max(np.abs(stored - fresh) / np.spacing(np.abs(fresh))) <= 2.0


@pytest.mark.parametrize("order", QUADRATURE_ORDERS)
def test_gauss_legendre_table_is_a_valid_rule(order):
    # checked against what makes a Gauss-Legendre rule, not against leggauss
    nodes, weights = _gauss_legendre()[order]
    assert np.all(np.diff(nodes) > 0.0) and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.all(weights > 0.0) and np.array_equal(weights, weights[::-1])
    assert np.sum(weights) == pytest.approx(2.0, rel=1e-14)
    # exact for every polynomial of degree up to 2 order - 1; odd powers
    # vanish by the antisymmetry above
    for power in range(0, 2 * order - 1, 2):
        integral = np.sum(weights * nodes**power)
        assert integral == pytest.approx(2.0 / (power + 1), rel=1e-10), power


def test_missing_quadrature_order_raises(monkeypatch):
    monkeypatch.setattr(cavity, "QUADRATURE_ORDERS", (64, 1024))
    with pytest.raises(KeyError):
        rindler_overlaps(0.05, 5)  # the escalation always tries a second order


def test_quadrature_nodes_memoized(monkeypatch, tmp_path):
    def refuse(order):
        raise AssertionError("Gauss-Legendre nodes recomputed")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    cavity._gauss_legendre.cache_clear()
    # n_max 90 converges only with the order-512 rule
    assert rindler_overlaps(cavity.H_LADDER[0], 90).quad_order == QUADRATURE_ORDERS[-1]
    for n_max in ("10", "90"):
        out = str(tmp_path / f"out{n_max}")
        for argv in (
            ["overlaps", "--nmax", n_max, "--cache", str(tmp_path / f"cache{n_max}")],
            ["sweep", "--nmax", n_max, "--grid", "0.3", "--methods", "perturbative,oracle", "--out", out],
            ["compare", "--nmax", n_max, "--out", out],
            ["validate", "--nmax", n_max, "--out", out],
        ):
            assert main(argv) == 0, argv
    assert cavity._gauss_legendre.cache_info().misses == 1  # the table is read once


def test_no_package_code_calls_leggauss():
    for path in SRC.glob("*.py"):
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert "leggauss" not in names, path.name


def test_every_data_file_is_declared_package_data():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = set(pyproject["tool"]["setuptools"]["package-data"]["gaussfisher"])
    data = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
    }
    assert data and data <= declared


def test_quadrature_failure_is_typed():
    with pytest.raises(QuadratureError):
        rindler_overlaps(0.04, 150)
    assert issubclass(QuadratureError, RuntimeError)


@pytest.mark.parametrize("n_max", [1, 10, 29, 30, 60, 66, 67, 68, 90, 120, 135])
def test_ladder_walk_matches_full_escalation(n_max):
    # one n_max per convergence regime: every point at 128 (up to 29), at
    # 256 (30-66), h = 0.04 at 256 and the rest at 512 (67), all at 512
    # (68-135); an ascending walk would differ at 67
    series = perturbative_overlaps(n_max)
    reference = perturbative_overlaps_reference(n_max)
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        assert np.array_equal(getattr(series, name), getattr(reference, name)), name
    assert series.fit_residual == reference.fit_residual


@pytest.mark.parametrize("n_max, error", [(136, ValueError), (145, QuadratureError)])
def test_ladder_walk_refuses_as_full_escalation(n_max, error):
    # 136-144 fail the fit's residual bound, 145 and above the quadrature
    with pytest.raises(error) as reference:
        perturbative_overlaps_reference(n_max)
    with pytest.raises(error) as walked:
        perturbative_overlaps(n_max)
    assert str(walked.value) == str(reference.value)


def test_ladder_walk_skips_only_unconverged_orders(monkeypatch):
    calls = []

    def count(h, n_max, nodes, weights):
        calls.append(nodes.size)
        return _overlaps_at_order(h, n_max, nodes, weights)

    monkeypatch.setattr(cavity, "_overlaps_at_order", count)
    counts = {}
    for n_max in (10, 30, 60, 67, 90, 120):
        calls.clear()
        perturbative_overlaps(n_max)
        counts[n_max] = len(calls)
    # a full escalation at every point takes 12, 18, 18, 23, 24 and 24
    assert counts == {10: 12, 30: 13, 60: 13, 67: 14, 90: 14, 120: 14}


def test_cavity_series_from_scenario(tmp_path):
    series = CavityChannel(n_max=6, u=0.25, cache=str(tmp_path / "c")).orders()
    assert series.n_max == 6
    assert np.allclose(series.G, mode_phases(6, 0.25))
