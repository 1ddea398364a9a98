"""What ``import gaussfisher`` exports is counted (ROADMAP aim 2), so a name
comes or goes on purpose: this list changes with it."""

import types

import gaussfisher

EXPORTED = {
    "BogoliubovSeries", "CavityChannel", "ComparisonReport", "FidelityError", "GaussianState", "ImportedChannel",
    "OverlapSeries", "QfiResult", "QuadratureError", "RindlerOverlaps", "SweepRow", "SweepSpec", "ValidationReport",
    "c2_from_orders", "compare_methods", "compose_one_segment", "energy_matched_params", "fidelity_one_mode",
    "fidelity_two_mode", "identity_residual", "mode_phases", "negativity_first_order", "perturbative_overlaps",
    "probe_family", "probe_state", "qfi_oracle", "qfi_perturbative", "rindler_overlaps", "run_sweep",
    "series_from_csv", "series_to_csv", "symplectic_form", "validate",
}


def test_the_package_exports_the_listed_names():
    public = {name for name, value in vars(gaussfisher).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTED and len(EXPORTED) == 33
