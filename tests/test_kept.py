"""What a process keeps between calls follows one rule, ``bogoliubov._keep``,
in each of its two stores: the fitted overlap series built last, by
``n_max``, and the reduced channels ``CavityChannel.reduced`` built last. A
hit returns the kept value, a miss drops the kept value before it builds, a
refused build keeps nothing, kept arrays are read-only, and no store holds
two values."""

import gc
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from gaussfisher import cavity, sweeps
from gaussfisher.cavity import taylor_overlaps
from gaussfisher.sweeps import CavityChannel


@dataclass
class Store:
    """A store reached through the call that reads it: ``get(i)`` is the
    value under its ``i``-th key, and ``kept`` the store itself. Each build
    records its key in ``builds``, runs ``during_build``, and raises when its
    key is in ``refuse``."""

    reach: Callable = None
    kept: dict = None
    builds: list = field(default_factory=list)
    during_build: list = field(default_factory=list)
    refuse: set = field(default_factory=set)
    key: int = -1

    def get(self, i):
        self.key = i
        return self.reach(i)

    def build(self):
        self.builds.append(self.key)
        for check in self.during_build:
            check()
        if self.key in self.refuse:
            raise ValueError(f"build {self.key} refused")


def fitted_series(store, monkeypatch):
    # the exact coefficients stand in for the fit: the same type, at a fraction of its cost
    monkeypatch.setattr(cavity, "perturbative_overlaps", lambda n_max: store.build() or taylor_overlaps(n_max))
    return lambda i: cavity.load_or_compute_overlap_series(i + 1), cavity._fitted


def reduced_channels(store, monkeypatch):
    real = sweeps.taylor_overlaps
    monkeypatch.setattr(sweeps, "taylor_overlaps", lambda n_max, rows: store.build() or real(n_max, rows))
    return lambda i: CavityChannel(n_max=4).reduced((0.1 * i, 0.5), [(1, 2), (2,)]), sweeps._composed


@pytest.fixture(params=[fitted_series, reduced_channels], ids=lambda reach: reach.__name__)
def store(request, monkeypatch):
    store = Store()
    store.reach, store.kept = request.param(store, monkeypatch)
    return store


def parts(value) -> list:
    """The parts of a kept value that hold its arrays: the reduced channels
    of a mapping, or else the value itself."""
    return list(value.values()) if isinstance(value, Mapping) else [value]


def ref(value):
    """A weak reference to ``value``'s first part."""
    return weakref.ref(parts(value)[0])


def test_a_hit_returns_the_kept_value(store):
    value = store.get(0)
    assert store.get(0) is value
    assert store.builds == [0]


def test_a_miss_drops_the_kept_value_before_it_builds(store):
    kept = ref(store.get(0))
    alive_while_building = []

    def alive():
        gc.collect()
        alive_while_building.append(kept() is not None)

    store.during_build.append(alive)
    store.get(1)
    assert alive_while_building == [False]


def test_a_refused_build_keeps_nothing(store):
    store.get(0)
    store.refuse.add(1)
    with pytest.raises(ValueError, match="build 1 refused"):
        store.get(1)
    store.refuse.clear()
    value = store.get(1)
    assert store.builds == [0, 1, 1]
    assert store.get(1) is value


def test_kept_arrays_are_read_only(store):
    value = store.get(0)
    arrays = [v for part in parts(value) for v in vars(part).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 2
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_the_store_holds_one_value(store):
    refs = [ref(store.get(i)) for i in range(3)]
    gc.collect()
    assert [r() is not None for r in refs] == [False, False, True]
    assert len(store.kept) == 1
    built = len(store.builds)
    store.get(2)
    assert len(store.builds) == built
