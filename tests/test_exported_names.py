"""What ``import gaussfisher`` exports is counted (ROADMAP aim 2), so a name
comes or goes on purpose: this list changes with it. The package exports
the paper's API only; the names behind it stay in their own modules."""

import importlib
import types

import pytest

import gaussfisher

EXPORTED = {
    "GaussianState", "BogoliubovSeries", "series_from_csv", "series_to_csv",
    "QfiResult", "energy_matched_params", "negativity_first_order", "probe_family", "probe_state", "qfi_oracle",
    "qfi_perturbative",
    "CavityChannel", "ImportedChannel", "SweepSpec", "compare_methods", "run_sweep", "validate",
}

#: names the package no longer exports, by the module that holds them
IN_THEIR_MODULES = {
    "states": ("symplectic_form",),
    "bogoliubov": ("identity_residual",),
    "qfi": ("c2_from_orders",),
    "fidelity": ("FidelityError", "fidelity_one_mode", "fidelity_two_mode"),
    "cavity": ("OverlapSeries", "QuadratureError", "RindlerOverlaps", "compose_one_segment", "mode_phases",
               "perturbative_overlaps", "rindler_overlaps"),
    "sweeps": ("ComparisonReport", "SweepRow", "ValidationReport"),
}


def test_the_package_exports_the_listed_names():
    public = {name for name, value in vars(gaussfisher).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTED and len(EXPORTED) == 17


@pytest.mark.parametrize("module,name", [(m, n) for m, names in IN_THEIR_MODULES.items() for n in names])
def test_a_name_no_longer_exported_still_imports_from_its_module(module, name):
    assert name not in vars(gaussfisher)
    assert hasattr(importlib.import_module(f"gaussfisher.{module}"), name)
