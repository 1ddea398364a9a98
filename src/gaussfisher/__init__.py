"""Estimation precision (quantum Fisher information) for Gaussian states of a
bosonic field under Bogoliubov channels, with a non-uniformly moving cavity
as the built-in worked example."""

from .states import (
    GaussianState,
    embed_state,
    random_mixed_state,
    random_pure_state,
    random_symplectic,
    reduce_state,
    squeezed_displaced_state,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezed_state,
    vacuum_state,
)
from .bogoliubov import (
    BogoliubovMatrices,
    BogoliubovSeries,
    CovarianceSeries,
    SymplecticMatrix,
    apply_channel,
    block_from_coefficients,
    coefficients_from_block,
    covariance_series,
    matrices_from_csv,
    matrices_to_csv,
    reduced_covariance_single,
    series_from_csv,
    series_to_csv,
    symplectic_from_bogoliubov,
    symplectify,
    synthetic_unitary_series,
    transformed_two_mode_blocks,
)
from .fidelity import FidelityError, fidelity, fidelity_one_mode, fidelity_two_mode
from .qfi import (
    FSums,
    QfiResult,
    c2_from_orders,
    energy_budget,
    energy_matched_params,
    f_sums,
    negativity_first_order,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)
from .cavity import (
    CavityScenario,
    OverlapSeries,
    QuadratureError,
    RindlerOverlaps,
    cavity_series,
    compose_one_segment,
    mode_phases,
    perturbative_overlaps,
    proper_frequency,
    rindler_overlaps,
)
from .sweeps import (
    ComparisonReport,
    SweepRow,
    SweepSpec,
    ValidationReport,
    compare_methods,
    run_sweep,
    validate,
)

__version__ = "0.1.0"
