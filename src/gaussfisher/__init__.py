"""Estimation precision (quantum Fisher information) for Gaussian states of a
bosonic field under Bogoliubov channels, with a non-uniformly moving cavity
as the built-in worked example."""

from .states import GaussianState, symplectic_form
from .bogoliubov import (
    BogoliubovSeries,
    CovarianceSeries,
    covariance_series,
    identity_residual,
    series_from_csv,
    series_to_csv,
)
from .fidelity import FidelityError, fidelity_one_mode, fidelity_two_mode
from .qfi import (
    QfiResult,
    c2_from_orders,
    energy_matched_params,
    negativity_first_order,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)
from .cavity import (
    OverlapSeries,
    QuadratureError,
    RindlerOverlaps,
    compose_one_segment,
    mode_phases,
    perturbative_overlaps,
    rindler_overlaps,
)
from .sweeps import (
    CavityChannel,
    ComparisonReport,
    ImportedChannel,
    SweepRow,
    SweepSpec,
    ValidationReport,
    compare_methods,
    run_sweep,
    validate,
)

__version__ = "0.1.0"
