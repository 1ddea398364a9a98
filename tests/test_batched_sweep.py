"""The perturbative sweep evaluates the whole grid in one pass: one
composition of the probed block rows stacked over the grid, then one kernel
call per probe family. It must give what composing and evaluating each
duration on its own gives (``conftest.reference_sweep``), and every check of
the per-duration kernel must still hold on each entry of a stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_one_segment_reference, reference_sweep, synthetic_unitary_series
from gaussfisher import sweeps
from gaussfisher.bogoliubov import BogoliubovSeries, covariance_series, series_to_csv
from gaussfisher.cavity import CavityScenario, compose_one_segment, load_or_compute_overlap_series
from gaussfisher.cli import main
from gaussfisher.qfi import QfiResult, c2_from_orders, perturbative_rows, probe_state, qfi_perturbative
from gaussfisher.sweeps import FAMILIES, CavityChannel, SweepSpec, run_sweep

#: per unit of max(1, |v|). That is absolute for the residual columns,
#: which sit near 1e-6, except at the edge of the mode ladder: a probe on
#: mode n_max - 1 or n_max sees a second-order identity defect of order 10,
#: where 1e-14 is a few units in the last place.
REL = 1e-14


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("overlap-cache"))


def close(got, want, tol):
    return abs(got - want) <= tol


@settings(max_examples=30, deadline=None)
@given(
    n_max=st.integers(6, 12),
    above_one=st.floats(1.0, 3.0, exclude_min=True),
    more=st.lists(st.floats(0.0, 3.0), max_size=8),
    photons=st.floats(0.2, 2.0),
    x=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_batched_sweep_matches_per_u_reference(cache, n_max, above_one, more, photons, x, data):
    grid = tuple(data.draw(st.permutations([0.0, 1.0, above_one, *more])))
    # k' = n_max moves the last spectator of the two-mode probes to n_max - 1
    k_prime = data.draw(st.one_of(st.just(n_max), st.integers(1, n_max)))
    k = data.draw(st.integers(1, n_max).filter(lambda k: k != k_prime))
    spec = SweepSpec(modes=(k, k_prime), grid=grid, photons=photons, x=x)
    overlaps = load_or_compute_overlap_series(n_max, cache)
    rows = run_sweep(spec, CavityChannel(CavityScenario(n_max=n_max), overlaps))
    want = reference_sweep(spec, overlaps)
    assert len(rows) == len(want) == len(grid) * len(FAMILIES)
    for row, (u, family, qfi, e2, c2, residual, negativity) in zip(rows, want):
        assert (row.grid_value, row.family) == (u, family)
        for got, ref in ((row.qfi_perturbative, qfi), (row.e2, e2), (row.c2, c2), (row.negativity, negativity)):
            assert close(got, ref, REL * max(1.0, abs(ref))), (family, u, got, ref)
        assert close(row.residual_perturbative, residual, REL * max(1.0, residual))
        assert close(row.truncation_residual, residual, REL * max(1.0, residual))


def test_whole_channel_is_the_one_u_all_rows_composition(overlap_series_10):
    grid = (0.0, 0.137, 0.5, 1.0, 1.37)
    stack = compose_one_segment(overlap_series_10, grid)
    assert stack.G.shape == (len(grid), 10) and stack.alpha2.shape == (len(grid), 10, 10)
    rows = (2, 10, 5)
    probed = compose_one_segment(overlap_series_10, grid, rows)
    for i, u in enumerate(grid):
        whole = compose_one_segment(overlap_series_10, u)
        ref = compose_one_segment_reference(overlap_series_10, u)
        assert whole.G.shape == (10,) and whole.rows is None
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            assert np.max(np.abs(getattr(whole, name) - getattr(ref, name))) <= 1e-15
            assert np.array_equal(getattr(stack, name)[i], getattr(whole, name))
            assert np.max(np.abs(getattr(probed, name)[i] - getattr(whole, name)[np.array(rows) - 1])) <= 1e-15


def test_composition_refuses_bad_durations(overlap_series_10):
    for grid, message in (((0.2, -0.1), "non-negative"), ((0.2, np.nan), "finite"),
                          ((np.inf,), "finite"), (((0.1, 0.2),), "one-dimensional")):
        with pytest.raises(ValueError, match=message):
            compose_one_segment(overlap_series_10, grid)
    with pytest.raises(ValueError, match="out of range"):
        compose_one_segment(overlap_series_10, (0.1,), (1, 11))


def stacked(series_list, rows=None):
    """One stack from several whole channels, optionally on some rows."""
    pick = slice(None) if rows is None else np.array(rows) - 1
    fields = {name: np.stack([getattr(s, name)[pick] for s in series_list])
              for name in ("alpha1", "alpha2", "beta1", "beta2")}
    return BogoliubovSeries(series_list[0].n_max, np.stack([s.G for s in series_list]), rows=rows, **fields)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_kernel_on_a_stack_is_the_kernel_on_each_entry(family):
    channels = [synthetic_unitary_series(7, np.random.default_rng(seed), strength=0.3) for seed in range(4)]
    state = probe_state(family, 0.7, 0.0 if family == "two_mode_squeezed" else 0.9)
    modes = (7, 2)[: state.n_modes]
    stack = stacked(channels, perturbative_rows(modes, 7))
    result = qfi_perturbative(stack, modes, state)
    assert result.value.shape == (4,)
    first, second = stack.unitarity_residuals(modes)
    for i, channel in enumerate(channels):
        one = qfi_perturbative(channel, modes, state)
        for name in ("value", "e2", "c2", "residual"):
            assert close(getattr(result, name)[i], getattr(one, name), REL * max(1.0, abs(getattr(one, name))))
        assert np.allclose((first[i], second[i]), channel.unitarity_residuals(modes), rtol=REL, atol=REL)


def test_a_stack_refuses_what_needs_one_whole_channel(overlap_series_10):
    stack = compose_one_segment(overlap_series_10, (0.2, 0.3))
    rows = compose_one_segment(overlap_series_10, 0.2, (1, 2))
    for series in (stack, rows):
        for call in (lambda s: s.evaluate(0.05), lambda s: s.symplectic_orders(), series_to_csv):
            with pytest.raises(ValueError, match="needs one whole channel"):
                call(series)
    # the kernel reads only the rows the series stores
    with pytest.raises(ValueError, match="stores no row for mode 3"):
        covariance_series(rows, (1, 3), probe_state("two_product_squeezed_displaced", 0.5, 0.5))
    with pytest.raises(ValueError, match="stores no row for mode 10"):
        qfi_perturbative(rows, (1, 2), probe_state("two_mode_squeezed", 0.5, 0.0))
    with pytest.raises(ValueError, match="alpha1 must have shape"):
        BogoliubovSeries(10, rows.G, rows.alpha1[:1], rows.alpha2, rows.beta1, rows.beta2, rows=(1, 2))


def test_checks_hold_on_every_stack_entry():
    eye = np.eye(2)
    sigma0 = np.stack([eye, eye, np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="singular zeroth-order covariance"):
        c2_from_orders(sigma0, np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))
    value = np.array([0.3, -0.1, 0.2])
    with pytest.raises(ValueError, match="negative QFI value -0.1"):
        QfiResult(value, value / 4.0, np.zeros(3), "perturbative", np.zeros(3))
    with pytest.raises(ValueError, match="4 \\(e2 \\+ c2\\)"):
        QfiResult(np.array([0.4, 0.4]), np.array([0.1, 0.1]), np.array([0.0, 1e-9]), "perturbative", np.zeros(2))
    one = QfiResult(np.float64(0.4), 0.1, 0.0, "perturbative", np.float64(1e-9))
    assert type(one.value) is float and type(one.residual) is float


@pytest.fixture
def counted(monkeypatch):
    calls = {"compose": 0, "kernel": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sweeps, "compose_one_segment", counting("compose", sweeps.compose_one_segment))
    monkeypatch.setattr(sweeps, "qfi_perturbative", counting("kernel", sweeps.qfi_perturbative))
    return calls


def test_cavity_sweep_composes_once_and_calls_the_kernel_once_per_family(tmp_path, counted):
    argv = ["sweep", "--nmax", "8", "--grid", "0:1.2:0.05", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert counted == {"compose": 1, "kernel": len(FAMILIES)}
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 25 * len(FAMILIES)


def test_imported_channel_sweep_calls_the_kernel_once_per_family(tmp_path, counted):
    path = tmp_path / "channel.csv"
    path.write_text(series_to_csv(synthetic_unitary_series(6, np.random.default_rng(5), strength=0.2)), encoding="utf-8")
    argv = ["sweep", "--channel", str(path), "--grid", "0.01:0.2:0.01", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert counted == {"compose": 0, "kernel": len(FAMILIES)}
