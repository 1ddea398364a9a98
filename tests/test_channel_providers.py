"""The sweep, compare and validate engines read a channel only through the
provider interface: ``n_max``, ``orders``, ``reduced``, ``oracle_points``
and ``checks``. A duck-typed provider that forwards every call gives the same
results bit for bit, and the calls it records are all the engine asked."""

import numpy as np
import pytest

from conftest import RecordingChannel, synthetic_unitary_series
from gaussfisher import cavity, sweeps
from gaussfisher.sweeps import (
    FAMILIES,
    CavityChannel,
    ImportedChannel,
    SweepSpec,
    compare_methods,
    run_sweep,
    validate,
)


@pytest.fixture(params=["imported", "cavity"])
def provider(request):
    """A provider, and a grid of its own parameter: theta values for an
    imported series, durations for the cavity."""
    if request.param == "imported":
        series = synthetic_unitary_series(6, np.random.default_rng(21), strength=0.2)
        return ImportedChannel(series), (0.02, 0.05, 0.08)
    return CavityChannel(), (0.137, 0.5, 0.771)


def test_run_sweep_through_a_duck_typed_provider(provider):
    channel, grid = provider
    spec = SweepSpec(grid=grid, photons=1.3, x=0.6, methods=("perturbative", "oracle"))
    recording = RecordingChannel(channel)
    assert run_sweep(spec, recording) == run_sweep(spec, channel)
    # one reduced call with the whole grid, and one oracle_points call
    (reduced, (grid_read, mode_sets)), (points, (grid_points, probes)) = recording.calls
    assert (reduced, points) == ("reduced", "oracle_points")
    assert grid_read == grid_points == grid
    assert [modes for modes, _ in probes] == [(1,), (1, 2), (1, 2)]


@pytest.mark.parametrize("modes", [(1, 2), (7, 3)])
def test_run_sweep_asks_for_the_probed_rows_alone(modes):
    # every probe and the negativity read only the spec's modes' rows, the
    # truncation tail included: a two-mode sweep composes two rows
    recording = RecordingChannel(CavityChannel(n_max=20))
    run_sweep(SweepSpec(modes=modes, grid=(0.3, 0.7)), recording)
    ((reduced, (_, mode_sets)),) = recording.calls
    assert reduced == "reduced" and list(mode_sets) == [modes, modes[:1]]
    assert sorted(set().union(*mode_sets)) == sorted(modes)


def test_compare_and_validate_through_a_duck_typed_provider(provider):
    channel, _ = provider
    spec = SweepSpec(families=tuple(FAMILIES)[:2], r=0.8, delta=0.3)
    recording = RecordingChannel(channel)
    assert compare_methods(spec, recording) == compare_methods(spec, channel)
    assert recording.calls == [("orders", ())]
    recording.calls.clear()
    assert validate(recording, (2, 1)) == validate(channel, (2, 1))
    assert recording.calls == [("checks", ((2, 1),))]


def test_cavity_channel_builds_its_series_only_after_every_refusal(tmp_path, monkeypatch):
    """A cavity channel evaluates its exact overlap coefficients in each
    ``orders`` or ``reduced`` call that composes, which each engine makes
    after its own refusals: on a sweep's probed rows, and on every row for
    ``compare`` and ``validate``. Only the oracle builds, and caches, the
    fitted series, once."""
    calls = {"taylor": [], "fit": []}

    def counting(name, real):
        def build(n_max, *rows):
            calls[name].append((n_max, *rows))
            return real(n_max, *rows)
        return build

    monkeypatch.setattr(sweeps, "taylor_overlaps", counting("taylor", sweeps.taylor_overlaps))
    monkeypatch.setattr(cavity, "perturbative_overlaps", counting("fit", cavity.perturbative_overlaps))
    cache = tmp_path / "c"
    channel = CavityChannel(n_max=6, cache=str(cache))
    refused = (
        lambda: run_sweep(SweepSpec(photons=-1.0), channel),
        lambda: compare_methods(SweepSpec(photons=-1.0), channel),
        lambda: compare_methods(SweepSpec(r=1.0), channel, h_ladder=(0.02,)),
        lambda: validate(channel, (1, 7)),
        lambda: run_sweep(SweepSpec(modes=(1, 4), methods=("oracle",)), channel),
    )
    for engine in refused:
        with pytest.raises(ValueError):
            engine()
        assert calls == {"taylor": [], "fit": []} and not cache.exists()
    run_sweep(SweepSpec(grid=(0.3,)), channel)
    compare_methods(SweepSpec(r=1.0), channel)
    validate(channel)
    # the sweep's rows, compare's whole channel, and validate's once, composed at u and u + 1
    whole = [(6,)] * 2
    assert calls == {"taylor": [(6, (1, 2))] + whole, "fit": []} and not cache.exists()
    run_sweep(SweepSpec(grid=(0.3, 0.5), methods=("oracle",)), channel)
    assert calls == {"taylor": [(6, (1, 2))] + whole + [(6, (1, 2))], "fit": [(6,)]}
    assert [p.name for p in cache.iterdir()] == ["overlap_series_n6.npz"]
