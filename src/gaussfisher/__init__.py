"""Estimation precision (quantum Fisher information) for Gaussian states of a
bosonic field under Bogoliubov channels, with a non-uniformly moving cavity
as the built-in worked example."""

from .states import GaussianState
from .bogoliubov import BogoliubovSeries, series_from_csv, series_to_csv
from .qfi import (
    QfiResult,
    energy_matched_params,
    negativity_first_order,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)
from .sweeps import (
    CavityChannel,
    ImportedChannel,
    SweepSpec,
    compare_methods,
    run_sweep,
    validate,
)

__version__ = "0.1.0"
