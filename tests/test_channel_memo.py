"""A sweep that repeats a channel composes nothing: ``CavityChannel.orders``
keeps the stack it composed last, one per process, and a series keeps the
terms the kernel derives from it and a mode set alone. Both give the bits of
a fresh computation and keep nothing refused; ``test_kept.py`` checks the
rule they share."""

import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_unitary_series
from gaussfisher import bogoliubov, cavity, qfi, sweeps
from gaussfisher.cli import ELEMENT_BUDGET, main
from gaussfisher.qfi import probe_state, qfi_perturbative
from gaussfisher.sweeps import CavityChannel, SweepSpec, run_sweep

SRC = Path(__file__).resolve().parents[1] / "src"
GRID = (0.0, 0.3, 0.71)


@pytest.fixture
def builds(monkeypatch):
    """``(n_max, rows)`` of each coefficient build ``orders`` makes."""
    calls = []
    real = sweeps.taylor_overlaps

    def counted(n_max, rows):
        calls.append((n_max, rows))
        return real(n_max, rows)

    monkeypatch.setattr(sweeps, "taylor_overlaps", counted)
    return calls


def test_orders_composes_once_per_key(builds):
    stack = CavityChannel(n_max=8).orders(GRID, [1, 2])
    # h does not shape the series, and a list of rows keys as their tuple
    assert CavityChannel(n_max=8, h=0.1).orders(list(GRID), (1, 2)) is stack
    assert builds == [(8, (1, 2))]
    # each key differs from the last in one part; -0.0 == 0.0, yet their bits differ
    for n_max, grid, rows in ((8, GRID[:2], (1, 2)), (8, GRID[:2], (1, 3)), (9, GRID[:2], (1, 3)),
                              (9, GRID[:2], None), (9, (-0.0,), None), (9, (0.0,), None)):
        assert CavityChannel(n_max=n_max).orders(grid, rows) is not stack
        stack = CavityChannel(n_max=n_max).orders(grid, rows)
    assert builds == [(8, (1, 2)), (8, (1, 2)), (8, (1, 3)), (9, (1, 3)), (9, None), (9, None), (9, None)]
    # the channel's own duration is one series, apart from a grid of that duration
    one = CavityChannel(n_max=9).orders()
    assert one.G.shape == (9,) and CavityChannel(n_max=9).orders((0.3,)).G.shape == (1, 9)
    assert builds[-2:] == [(9, None), (9, None)] and len(builds) == 9


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
    # each refusal leaves no stack: the one composed before it is gone
    for grid, rows, match in (((0.3, 1195.0), (1, 2), "rounding error"), ((0.3, -1.0), (1, 2), "non-negative"),
                              ((0.3, math.inf), (1, 2), "finite"), (GRID, (1, 61), "out of range")):
        kept = weakref.ref(channel.orders(GRID, (1, 2)))
        with pytest.raises(ValueError, match=match):
            channel.orders(grid, rows)
        gc.collect()
        assert kept() is None
    # a term that raises keeps nothing on the series: it is tried again
    tried = []
    real = bogoliubov._probed_blocks
    monkeypatch.setattr(bogoliubov, "_probed_blocks", lambda series, modes: tried.append(modes) or real(series, modes))
    stack = CavityChannel(n_max=8).orders(GRID, (1, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="series stores no row for mode 3"):
            qfi_perturbative(stack, [((1, 3), probe_state("two_mode_squeezed", 0.5, 0.0))])
    assert tried == [(1, 3), (1, 3)]


@pytest.mark.parametrize("modes", [(1, 2), (2,), (2, 1)])
def test_kept_terms_are_read_only_and_the_bits_of_a_fresh_computation(modes, monkeypatch):
    originals = (bogoliubov._probed_blocks, qfi._perturbative_residual)
    built = []
    for term in originals:
        monkeypatch.setattr(sys.modules[term.__module__], term.__name__,
                            lambda series, modes, term=term: built.append(term.__name__) or term(series, modes))
    stack = CavityChannel(n_max=12).orders(GRID, (1, 2))
    family = "two_mode_squeezed" if len(modes) == 2 else "single_squeezed_displaced"
    probes = [(modes, probe_state(family, 0.7, 0.0)), (modes, probe_state(family, -0.2, 0.0))]
    first = qfi_perturbative(stack, probes)
    again = qfi_perturbative(stack, probes)
    assert built == ["_probed_blocks", "_perturbative_residual"]
    for got, want in zip(again, first):
        for name in ("value", "e2", "c2", "residual"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    blocks = stack.kept(bogoliubov._probed_blocks, modes)
    residual = stack.kept(qfi._perturbative_residual, modes)
    assert built == ["_probed_blocks", "_perturbative_residual"]
    fresh = (*originals[0](stack, modes), originals[1](stack, modes))
    for arr, want in zip((*blocks, residual), fresh, strict=True):
        assert np.array_equal(arr, want)
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    # a caller's residual is its own array, not the kept one
    assert again[0].residual.flags.writeable and not np.shares_memory(again[0].residual, residual)


def test_a_series_keeps_the_terms_of_its_last_mode_sets(monkeypatch):
    built = []
    for term in (bogoliubov._probed_blocks, qfi._perturbative_residual):
        monkeypatch.setattr(sys.modules[term.__module__], term.__name__,
                            lambda series, modes, term=term: built.append(modes) or term(series, modes))
    series = synthetic_unitary_series(8, np.random.default_rng(3), strength=0.2)
    state = probe_state("single_squeezed_displaced", 0.4, 0.2)
    for mode in range(1, 9):
        qfi_perturbative(series, [((mode,), state)])
    assert built == [(mode,) for mode in range(1, 9) for _ in range(2)]
    # two terms per mode set: the newest mode sets that fill the bound are
    # kept, and the oldest were dropped first
    newest = range(9 - bogoliubov.KEPT_ENTRIES // 2, 9)
    del built[:]
    for mode in newest:
        qfi_perturbative(series, [((mode,), state)])
    assert built == []
    qfi_perturbative(series, [((newest[0] - 1,), state)])
    assert built == [(newest[0] - 1,)] * 2


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
