"""The sweep, compare and validate engines read a channel only through the
provider interface: ``n_max``, ``orders``, ``oracle_points`` and
``checks``. A duck-typed provider that forwards every call gives the same
results bit for bit, and the calls it records are all the engine asked."""

import numpy as np
import pytest

from conftest import RecordingChannel, synthetic_unitary_series
from gaussfisher.cavity import CavityScenario
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
def provider(request, overlap_series_10):
    """A provider, and a grid of its own parameter: theta values for an
    imported series, durations for the cavity."""
    if request.param == "imported":
        series = synthetic_unitary_series(6, np.random.default_rng(21), strength=0.2)
        return ImportedChannel(series), (0.02, 0.05, 0.08)
    return CavityChannel(CavityScenario(), overlap_series_10), (0.137, 0.5, 0.771)


def test_run_sweep_through_a_duck_typed_provider(provider):
    channel, grid = provider
    spec = SweepSpec(grid=grid, photons=1.3, x=0.6, methods=("perturbative", "oracle"))
    recording = RecordingChannel(channel)
    assert run_sweep(spec, recording) == run_sweep(spec, channel)
    # one orders call with the whole grid, and one oracle_points call
    (orders, (grid_read, rows)), (points, (grid_points, probes)) = recording.calls
    assert (orders, points) == ("orders", "oracle_points")
    assert grid_read == grid_points == grid
    assert [modes for modes, _ in probes] == [(1,), (1, 2), (1, 2)]


def test_compare_and_validate_through_a_duck_typed_provider(provider):
    channel, _ = provider
    spec = SweepSpec(families=tuple(FAMILIES)[:2], r=0.8, delta=0.3)
    recording = RecordingChannel(channel)
    assert compare_methods(spec, recording) == compare_methods(spec, channel)
    assert recording.calls == [("orders", ())]
    recording.calls.clear()
    assert validate(recording, (2, 1)) == validate(channel, (2, 1))
    assert recording.calls == [("checks", ((2, 1),))]
