"""The perturbative sweep evaluates the whole grid in one pass: one
composition of the probed block rows stacked over the grid, reduced per
probed mode set, then one kernel call for every family. It must give what
composing and evaluating each duration on its own gives
(``conftest.reference_sweep``), and every check of the per-duration kernel
must still hold on each entry of a stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_one_segment_reference, reference_sweep, synthetic_unitary_series
from gaussfisher import sweeps
from gaussfisher.bogoliubov import BogoliubovSeries, _reduce, series_to_csv
from gaussfisher.cavity import compose_one_segment, taylor_overlaps
from gaussfisher.cli import main
from gaussfisher.qfi import QfiResult, probe_state, qfi_perturbative
from gaussfisher.sweeps import FAMILIES, CavityChannel, SweepSpec, run_sweep

#: per unit of max(1, |v|). That is absolute for the residual columns,
#: which sit near 1e-6.
REL = 1e-14


def close(got, want, tol):
    return abs(got - want) <= tol


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(6, 12),
    above_one=st.floats(1.0, 3.0, exclude_min=True),
    more=st.lists(st.floats(0.0, 3.0), max_size=8),
    photons=st.floats(0.2, 2.0),
    x=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_batched_sweep_matches_per_u_reference(n_max, above_one, more, photons, x, data):
    grid = tuple(data.draw(st.permutations([0.0, 1.0, above_one, *more])))
    # k' = n_max is the ladder's edge, where a probe's spectator sums are cut:
    # every mode above n_max/2 is refused, naming the n_max it needs
    k_prime = data.draw(st.one_of(st.just(n_max), st.integers(1, n_max)))
    k = data.draw(st.integers(1, n_max).filter(lambda k: k != k_prime))
    spec = SweepSpec(modes=(k, k_prime), grid=grid, photons=photons, x=x)
    channel = CavityChannel(n_max=n_max)
    edge = max(k, k_prime)
    if 2 * edge > n_max:
        with pytest.raises(ValueError, match=f"^mode {edge} lies above n_max/2 .* needs --nmax {2 * edge} or more$"):
            run_sweep(spec, channel)
        return
    rows = run_sweep(spec, channel)
    want = reference_sweep(spec, taylor_overlaps(n_max))
    assert len(rows) == len(want) == len(grid) * len(FAMILIES)
    for row, (u, family, qfi, e2, c2, residual, negativity) in zip(rows, want):
        assert (row.grid_value, row.family) == (u, family)
        for got, ref in ((row.qfi_perturbative, qfi), (row.e2, e2), (row.c2, c2), (row.negativity, negativity)):
            assert close(got, ref, REL * max(1.0, abs(ref))), (family, u, got, ref)
        assert close(row.residual_perturbative, residual, REL * max(1.0, residual))
        assert close(row.truncation_residual, residual, REL * max(1.0, residual))


def test_whole_channel_is_the_one_u_all_rows_composition(overlap_series_10):
    grid = (0.0, 0.137, 0.5, 1.0, 1.37)
    rows = (2, 10, 5)
    _, *probed = compose_one_segment(taylor_overlaps(10, rows), grid)
    pick = np.array(rows) - 1
    for i, u in enumerate(grid):
        whole = compose_one_segment(overlap_series_10, u)
        ref = compose_one_segment_reference(overlap_series_10, u)
        assert whole.G.shape == (10,)
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            assert np.max(np.abs(getattr(whole, name) - getattr(ref, name))) <= 1e-15
        # first orders on the block rows, second orders on the block rows x rows,
        # of the exact coefficients' whole channel
        whole = compose_one_segment(taylor_overlaps(10), u)
        for arr, want in zip(probed, (whole.alpha1[pick], whole.alpha2[np.ix_(pick, pick)],
                                      whole.beta1[pick], whole.beta2[np.ix_(pick, pick)]), strict=True):
            assert np.max(np.abs(arr[i] - want)) <= 1e-15


def summation_bounds(overlaps, rows) -> dict:
    """Largest roundoff gap between two summation orders of the second orders
    on ``rows x rows``, per entry: ``4 n_max eps`` times the sum of the
    absolute values of the entry's ``n_max + 2`` terms in
    :func:`compose_one_segment`'s formulas. Each order's rounding error is at
    most about ``(n_max + 4) eps/2`` times that sum (the sum's own rounding
    plus the products'), and two orders differ by at most twice that; the
    factor 4 covers ``n_max + 4 <= 3 n_max`` and the complex arithmetic.
    ``|G| = 1``, so the bound holds at every duration."""
    p = np.array(rows) - 1
    a1, b1, a2, b2 = (np.abs(getattr(overlaps, name)) for name in ("alpha1", "beta1", "alpha2", "beta2"))
    terms = {"alpha2": a2 + a2.T + a1.T @ a1 + b1.T @ b1, "beta2": b2 + b2.T + a1.T @ b1 + b1.T @ a1}
    return {name: 4.0 * overlaps.n_max * np.finfo(float).eps * t[np.ix_(p, p)] for name, t in terms.items()}


def assert_is_whole_channel_block(overlaps, grid, rows, probed, shift=0.0):
    """``probed``, the arrays ``(G, alpha1, alpha2, beta1, beta2)`` composed
    on ``rows``, holds the whole channel's block rows of the first orders bit
    for bit, and its second orders within :func:`summation_bounds`; a
    ``shift`` moves the reference's first second-order entry."""
    pick = np.array(rows) - 1
    bounds = summation_bounds(overlaps, rows)
    _, alpha1, alpha2, beta1, beta2 = probed
    for i, u in enumerate(grid):
        whole = compose_one_segment(overlaps, u)
        assert np.array_equal(alpha1[i], whole.alpha1[pick])
        assert np.array_equal(beta1[i], whole.beta1[pick])
        for name, got in (("alpha2", alpha2), ("beta2", beta2)):
            want = getattr(whole, name)[np.ix_(pick, pick)].copy()
            want[0, 0] += shift
            gap = np.abs(got[i] - want)
            assert np.all(gap <= bounds[name]), (name, u, float(np.max(gap - bounds[name])))


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(2, 40),
    grid=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_row_restricted_composition_is_the_whole_channel_block(n_max, grid, data):
    # unsorted row sets included: (2, 10, 5) is one draw at n_max 10
    rows = tuple(data.draw(st.permutations(range(1, n_max + 1)))[: data.draw(st.integers(1, min(n_max, 5)))])
    overlaps = taylor_overlaps(n_max)
    probed = compose_one_segment(taylor_overlaps(n_max, rows), grid)
    assert probed[1].shape == (len(grid), len(rows), n_max)
    assert probed[2].shape == (len(grid), len(rows), len(rows))
    assert_is_whole_channel_block(overlaps, grid, rows, probed)


def test_summation_bound_holds_a_cancelling_sum_and_catches_a_wrong_term():
    # a draw whose alpha2 sums cancel: the two orders differ by 3.55e-15,
    # more than 1e-15 of |alpha2|, and within the bound (6.4e-13 there)
    overlaps, grid, rows = taylor_overlaps(17), (0.0, 0.0625), (16,)
    probed = compose_one_segment(taylor_overlaps(17, rows), grid)
    assert np.max(np.abs(probed[2][1] - compose_one_segment(overlaps, 0.0625).alpha2[15, 15])) > 1e-15
    assert_is_whole_channel_block(overlaps, grid, rows, probed)
    # one spectator term off by 1e-12 moves its entry by as much, and fails
    with pytest.raises(AssertionError, match="alpha2"):
        assert_is_whole_channel_block(overlaps, grid, rows, probed, shift=1e-12)


def test_composition_refuses_bad_durations(overlap_series_10):
    for grid, message in (((0.2, -0.1), "non-negative"), ((0.2, np.nan), "finite"),
                          ((np.inf,), "finite"), (((0.1, 0.2),), "one-dimensional"),
                          ((0.2, 1e308), "^duration u=1e\\+308 gives mode phases 2 pi n u that are not finite")):
        with pytest.raises(ValueError, match=message):
            compose_one_segment(overlap_series_10, grid)
    with pytest.raises(ValueError, match="out of range"):
        CavityChannel(n_max=10).reduced((0.1,), [(1, 11)])


@pytest.mark.parametrize("family", list(FAMILIES))
def test_kernel_on_a_stack_is_the_kernel_on_each_entry(family):
    channels = [synthetic_unitary_series(7, np.random.default_rng(seed), strength=0.3) for seed in range(4)]
    state = probe_state(family, 0.7, 0.0 if family == "two_mode_squeezed" else 0.9)
    modes = (7, 2)[: state.n_modes]
    # the probed rows and one the kernel does not read, unsorted: the first
    # orders on the rows, the second orders on the block rows x rows
    rows = modes + (4,)
    pick = np.array(rows) - 1
    block = np.ix_(pick, pick)
    arrays = [np.stack([c.G[pick] for c in channels])]
    arrays += [np.stack([getattr(c, name)[block if name.endswith("2") else pick] for c in channels])
               for name in ("alpha1", "alpha2", "beta1", "beta2")]
    (result,) = qfi_perturbative([(_reduce(*arrays, modes, rows), state)])
    assert result.value.shape == (4,)
    for i, channel in enumerate(channels):
        (one,) = qfi_perturbative([(channel.reduced(modes), state)])
        for name in ("value", "e2", "c2", "residual"):
            assert close(getattr(result, name)[i], getattr(one, name), REL * max(1.0, abs(getattr(one, name))))


def test_a_series_is_one_channel(overlap_series_10):
    # a whole series composed on a grid would be a stack: refused
    with pytest.raises(ValueError, match=r"^G must have shape \(n_max,\), not \(2, 10\): a series is one channel$"):
        compose_one_segment(overlap_series_10, (0.2, 0.3))
    # the probed rows are all the kernel reads, the residual's spectator tail included
    state = probe_state("two_mode_squeezed", 0.5, 0.0)
    rows = compose_one_segment(taylor_overlaps(10, (1, 2)), 0.2)
    (got,) = qfi_perturbative([(_reduce(*rows, (1, 2), (1, 2)), state)])
    whole = compose_one_segment(taylor_overlaps(10), 0.2)
    (want,) = qfi_perturbative([(whole.reduced((1, 2)), state)])
    for name in ("value", "e2", "c2", "residual"):
        assert close(getattr(got, name), getattr(want, name), REL * max(1.0, abs(getattr(want, name)))), name
    with pytest.raises(ValueError, match="alpha1 must have shape"):
        BogoliubovSeries(whole.G, whole.alpha1[:1], whole.alpha2, whole.beta1, whole.beta2)


def test_checks_hold_on_every_stack_entry():
    value = np.array([0.3, -0.1, 0.2])
    with pytest.raises(ValueError, match="negative QFI value -0.1"):
        QfiResult(value, value / 4.0, np.zeros(3), "perturbative", np.zeros(3))
    with pytest.raises(ValueError, match="4 \\(e2 \\+ c2\\)"):
        QfiResult(np.array([0.4, 0.4]), np.array([0.1, 0.1]), np.array([0.0, 1e-9]), "perturbative", np.zeros(2))
    one = QfiResult(np.float64(0.4), 0.1, 0.0, "perturbative", np.float64(1e-9))
    assert type(one.value) is float and type(one.residual) is float


@pytest.fixture
def counted(monkeypatch):
    # the names benchmarks/tracer.py wraps, so its per-layer spans see these calls
    calls = {"compose": 0, "qfi": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sweeps, "compose_one_segment", counting("compose", sweeps.compose_one_segment))
    monkeypatch.setattr(sweeps, "qfi_perturbative", counting("qfi", sweeps.qfi_perturbative))
    return calls


def test_cavity_sweep_composes_once_and_calls_the_kernel_once(tmp_path, counted):
    argv = ["sweep", "--nmax", "8", "--grid", "0:1.2:0.05", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    # one kernel call for every probe, on the whole grid
    assert counted == {"compose": 1, "qfi": 1}
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 25 * len(FAMILIES)


def test_imported_channel_sweep_calls_the_kernel_once(tmp_path, counted):
    path = tmp_path / "channel.csv"
    path.write_text(series_to_csv(synthetic_unitary_series(6, np.random.default_rng(5), strength=0.2)), encoding="utf-8")
    argv = ["sweep", "--channel", str(path), "--grid", "0.01:0.2:0.01", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert counted == {"compose": 0, "qfi": 1}
