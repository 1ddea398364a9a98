"""A sweep that repeats a channel composes nothing: ``CavityChannel.reduced``
keeps the reduced channels it built last, one mapping per process. They
give the bits of a fresh computation and keep nothing refused;
``test_kept.py`` checks the rule the process's stores share."""

import gc
import math
import os
import subprocess
import sys
import weakref
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_unitary_series
from gaussfisher import cavity, sweeps
from gaussfisher.cli import ELEMENT_BUDGET, main
from gaussfisher.qfi import probe_state, qfi_perturbative
from gaussfisher.sweeps import FAMILIES, CavityChannel, ImportedChannel, SweepSpec, run_sweep

SRC = Path(__file__).resolve().parents[1] / "src"
GRID = (0.0, 0.3, 0.71)


@pytest.fixture
def builds(monkeypatch):
    """``(n_max, rows)`` of each coefficient build ``orders`` or ``reduced``
    makes."""
    calls = []
    real = sweeps.taylor_overlaps

    def counted(n_max, rows=None):
        calls.append((n_max, rows))
        return real(n_max, rows)

    monkeypatch.setattr(sweeps, "taylor_overlaps", counted)
    return calls


def test_reduced_composes_once_per_key(builds):
    reduced = CavityChannel(n_max=8).reduced(GRID, [[1, 2]])
    # h does not shape the series, and a list of modes keys as their tuple
    assert CavityChannel(n_max=8, h=0.1).reduced(list(GRID), [(1, 2)]) is reduced
    assert builds == [(8, (1, 2))]
    # each key differs from the last in one part; -0.0 == 0.0, yet their bits differ
    for n_max, grid, mode_sets in ((8, GRID[:2], [(1, 2)]), (8, GRID[:2], [(1, 3)]), (9, GRID[:2], [(1, 3)]),
                                   (9, GRID[:2], [(3, 1)]), (9, GRID[:2], [(3, 1), (3,)]),
                                   (9, (-0.0,), [(3, 1), (3,)]), (9, (0.0,), [(3, 1), (3,)])):
        assert CavityChannel(n_max=n_max).reduced(grid, mode_sets) is not reduced
        reduced = CavityChannel(n_max=n_max).reduced(grid, mode_sets)
    # the union of a key's mode sets is composed once, on its sorted rows
    assert builds == [(8, (1, 2)), (8, (1, 2)), (8, (1, 3)), (9, (1, 3)), (9, (1, 3)), (9, (1, 3)), (9, (1, 3)),
                      (9, (1, 3))]
    # the whole series at the channel's own duration, from the whole coefficients
    assert CavityChannel(n_max=9).orders().G.shape == (9,)
    assert builds[-1] == (9, None) and len(builds) == 9


def test_signed_zero_grids_give_a_fresh_process_bytes(capsys):
    argvs = [["sweep", "--nmax", "10", "--grid=-0.0"], ["sweep", "--nmax", "10", "--grid", "0.0"]]
    here = []
    for argv in argvs + argvs[:1]:
        assert main(argv) == 0
        here.append(capsys.readouterr().out)
    assert here[0] != here[1] and here[0] == here[2]
    assert here[:2] == [out for out, _, _ in fresh_runs(argvs)]


def test_refused_input_is_not_kept(monkeypatch):
    channel = CavityChannel(n_max=60)
    # each refusal leaves no reduced channels: the ones built before it are gone
    for grid, modes, match in (((0.3, 1195.0), (1, 2), "rounding error"), ((0.3, -1.0), (1, 2), "non-negative"),
                               ((0.3, math.inf), (1, 2), "finite"), (GRID, (1, 61), "out of range")):
        kept = weakref.ref(channel.reduced(GRID, [(1, 2)])[1, 2])
        with pytest.raises(ValueError, match=match):
            channel.reduced(grid, [modes])
        gc.collect()
        assert kept() is None
    # a reduction that raises keeps nothing: it is tried again
    tried = []

    def refuse(*arrays_modes_rows):
        tried.append(arrays_modes_rows[-2])
        raise ValueError("reduction refused")

    monkeypatch.setattr(sweeps, "_reduce", refuse)
    for _ in range(2):
        with pytest.raises(ValueError, match="reduction refused"):
            CavityChannel(n_max=8).reduced(GRID, [(1, 3)])
    assert tried == [(1, 3), (1, 3)] and sweeps._composed == {}


@pytest.mark.parametrize("modes", [(1, 2), (2,), (2, 1)])
def test_kept_terms_are_read_only_and_the_bits_of_a_fresh_computation(modes, monkeypatch):
    real = sweeps._reduce
    built = []
    monkeypatch.setattr(sweeps, "_reduce", lambda *args: built.append(args[-2]) or real(*args))
    channel = CavityChannel(n_max=12)
    family = "two_mode_squeezed" if len(modes) == 2 else "single_squeezed_displaced"
    probes = [(modes, probe_state(family, 0.7, 0.0)), (modes, probe_state(family, -0.2, 0.0))]
    first = qfi_perturbative([(channel.reduced(GRID, [modes])[modes], state) for modes, state in probes])
    again = qfi_perturbative([(channel.reduced(GRID, [modes])[modes], state) for modes, state in probes])
    assert built == [modes]
    for got, want in zip(again, first):
        for name in ("value", "e2", "c2", "residual"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    kept = channel.reduced(GRID, [modes])[modes]
    assert built == [modes]
    rows = tuple(sorted(modes))
    fresh = real(*cavity.compose_one_segment(cavity.taylor_overlaps(12, rows), GRID), modes, rows)
    arrays = [(name, arr) for name, arr in vars(kept).items() if isinstance(arr, np.ndarray)]
    assert [name for name, _ in arrays] == ["s0", "s1", "s2", "s1_s1", "beta1", "residual"]
    for name, arr in arrays:
        assert np.array_equal(arr, getattr(fresh, name)), name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    # a caller's residual is its own array, not the kept one
    assert again[0].residual.flags.writeable and not np.shares_memory(again[0].residual, kept.residual)


def arrays_in(value) -> list:
    """Every array a kept value holds, through mappings, tuples and the
    attributes of objects."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, Mapping):
        value = list(value.values())
    elif not isinstance(value, (tuple, list)):
        value = list(vars(value).values()) if hasattr(value, "__dict__") else []
    return [arr for part in value for arr in arrays_in(part)]


def test_what_a_sweep_keeps_does_not_grow_with_n_max(capsys):
    kept = {}
    for n_max in (200, 2000):
        assert main(["sweep", "--nmax", str(n_max)]) == 0
        kept[n_max] = sum(arr.nbytes for arr in arrays_in(list(sweeps._composed.values())))
    capsys.readouterr()
    # the reduced channels of (1, 2) and (1,) on the default 101-point grid
    assert kept[200] == kept[2000] > 0


@pytest.mark.parametrize("methods", [("perturbative",), ("oracle",), ("perturbative", "oracle")])
def test_a_sweep_reduces_only_the_mode_sets_it_reads(methods):
    spec = SweepSpec(modes=(3, 1), grid=(0.3, 0.7), methods=methods)
    run_sweep(spec, CavityChannel(n_max=8))
    ((_, reduced),) = sweeps._composed.items()
    # the negativity reads (k, k'), and the perturbative columns each probe's modes
    assert list(reduced) == [(3, 1)] + [(3,)] * ("perturbative" in methods)


def test_the_sweep_reads_the_negativity_off_the_k_k_prime_reduced_channel(monkeypatch):
    series = synthetic_unitary_series(6, np.random.default_rng(8), strength=0.3)
    spec = SweepSpec(modes=(4, 2), grid=(0.1,))
    want = float(sweeps.negativity_first_order(series.reduced((4, 2))))
    read = []
    real = sweeps.negativity_first_order
    monkeypatch.setattr(sweeps, "negativity_first_order", lambda reduced: read.append(reduced.modes) or real(reduced))
    rows = run_sweep(spec, ImportedChannel(series))
    assert read == [(4, 2)] and [row.negativity for row in rows] == [want] * len(FAMILIES)
    assert want == abs(series.beta1[3, 1]) > 0.0


def test_a_cavity_sweep_calls_no_series_method(monkeypatch):
    # the reducer shares the identity-defect code of unitarity_residuals
    # without calling it, so a traced sweep counts no such call
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep called a BogoliubovSeries method")

    for name in ("unitarity_residuals", "reduced", "symplectic_orders"):
        monkeypatch.setattr(sweeps.BogoliubovSeries, name, refuse)
    assert len(run_sweep(SweepSpec(grid=(0.2, 0.4)), CavityChannel())) == 2 * len(FAMILIES)


def test_budget_refusals_compose_nothing(builds, capsys):
    assert len(SweepSpec.grid) * 16000 <= ELEMENT_BUDGET  # the default grid at n_max 16000 runs
    for argv in (["sweep", "--nmax", "100000000", "--grid", "0.3"], ["compare", "--nmax", "1415"],
                 ["validate", "--nmax", "1415"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"elements, above the budget of {ELEMENT_BUDGET}\n")
    assert builds == []


def test_phase_rounding_bound_admits_whole_periods_within_the_residual():
    largest = math.floor(cavity.PHASE_ROUNDING_MAX / (2.0 * math.pi * 60 * np.finfo(float).eps))
    assert largest == 1194
    with pytest.raises(ValueError, match="^duration u=1195.0 gives mode phases 2 pi n u with a rounding error of "
                                         "1.000e-10 rad at n_max 60, above the bound of 1e-10 rad$"):
        cavity.mode_phases(60, (0.3, 1195.0))
    rows = run_sweep(SweepSpec(grid=(0.0, float(largest))), CavityChannel(n_max=60))
    families = len(SweepSpec.families)
    for at_zero, far in zip(rows[:families], rows[families:]):
        assert abs(far.qfi_perturbative - at_zero.qfi_perturbative) <= far.residual_perturbative


def fresh_runs(argvs):
    """``(stdout, stderr, exit code)`` of each argv in its own interpreter,
    two at a time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = []
    for pair in (argvs[i:i + 2] for i in range(0, len(argvs), 2)):
        runs = [subprocess.Popen([sys.executable, "-m", "gaussfisher.cli", *argv], env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) for argv in pair]
        out += [(*run.communicate(timeout=300), run.returncode) for run in runs]
    return out


def test_a_mixed_sequence_in_one_process_gives_each_fresh_process_bytes(tmp_path, capsys):
    channel = Path(__file__).parent / "data" / "channel_cavity_nmax8_u0.3.csv"
    argvs = [
        ["sweep", "--nmax", "12", "--grid", "0:1:0.25"],
        ["sweep", "--nmax", "12", "--grid", "0:1:0.25", "--photons", "0.6", "--x", "0.3"],
        ["sweep", "--nmax", "12", "--grid", "0:1:0.25", "--modes", "3,1"],
        ["compare", "--nmax", "12"],
        ["validate", "--nmax", "12"],
        ["sweep", "--nmax", "10", "--grid", "0.137,0.5", "--methods", "perturbative,oracle"],
        ["sweep", "--channel", str(channel), "--grid", "0.01,0.05"],
        ["sweep", "--nmax", "12", "--grid", "0:1:0.25", "--photons", "1.7"],
        # every store crossed: the fitted series at two n_max, one of them
        # kept from above, beside a cache, and the oracle on an imported channel
        ["sweep", "--nmax", "12", "--grid", "0.2,0.45", "--methods", "oracle"],
        ["sweep", "--nmax", "10", "--grid", "0.3", "--methods", "oracle", "--state", "two_mode_squeezed"],
        ["sweep", "--nmax", "10", "--grid", "0.3,0.61", "--methods", "oracle", "--cache", str(tmp_path / "cache")],
        ["sweep", "--channel", str(channel), "--grid", "0.02", "--methods", "perturbative,oracle"],
        ["sweep", "--nmax", "12", "--grid", "0:1:0.25", "--photons", "0.6", "--x", "0.3"],
    ]
    here = []
    for argv in argvs:
        code = main(argv)
        here.append((*capsys.readouterr(), code))
    assert here == fresh_runs(argvs)
