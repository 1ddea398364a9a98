"""Every layer that takes a list of 1-based modes refuses a mode outside
``1..n_max``, a repeated mode and a fractional one with ``ValueError``,
through ``states.quadrature_indices``. A mode 0 must not wrap around to mode
``n_max``, a repeated mode must not be counted twice, and mode 1.5 must not
be truncated to mode 1."""

import numpy as np
import pytest

from conftest import embed_state, synthetic_unitary_series, vacuum_state
from gaussfisher.bogoliubov import identity_residual
from gaussfisher.qfi import negativity_first_order, probe_family, probe_state
from gaussfisher.states import quadrature_indices
from gaussfisher.sweeps import ImportedChannel, SweepSpec, run_sweep, validate

N_MAX = 5

#: each entry point called on a pair of modes of an ``N_MAX``-mode channel
ENTRY_POINTS = {
    "identity_residual rows": lambda s, modes: identity_residual(*s.evaluate(0.05), modes),
    "identity_residual cols": lambda s, modes: identity_residual(*s.evaluate(0.05), None, modes),
    "unitarity_residuals": lambda s, modes: s.unitarity_residuals(modes=modes),
    # both read the reduced channel, which takes the modes
    "covariance_orders": lambda s, modes: s.reduced(modes).covariance_orders(vacuum_state(2)),
    "negativity_first_order": lambda s, modes: negativity_first_order(s.reduced(modes)),
    "embed_state": lambda s, modes: embed_state(N_MAX, modes, vacuum_state(2)),
    "probe_family": lambda s, modes: probe_family(s, [(modes, vacuum_state(2))]),
    "run_sweep": lambda s, modes: run_sweep(SweepSpec(modes=modes, grid=(0.05,)), ImportedChannel(s)),
    # the two-mode squeezed state of the probed modes, embedded in the whole ladder
    "two_mode_squeezed_state": lambda s, modes: embed_state(N_MAX, modes, probe_state("two_mode_squeezed", 0.3, 0.0)),
    "validate": lambda s, modes: validate(ImportedChannel(s), modes),
}

BAD_MODES = {
    "mode 0": ((0, 2), "mode index 0 out of range 1..5"),
    "mode n_max + 1": ((2, N_MAX + 1), "mode index 6 out of range 1..5"),
    "repeated mode": ((2, 2), "mode indices 2,2 must be distinct"),
    "fractional mode": ((1.5, 2), "mode index 1.5 is not an integer"),
}


@pytest.fixture(scope="module")
def series():
    return synthetic_unitary_series(N_MAX, np.random.default_rng(11))


@pytest.mark.parametrize("case", sorted(BAD_MODES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_bad_modes(series, entry, case):
    modes, message = BAD_MODES[case]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](series, modes)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_accept_the_edge_of_the_ladder(series, entry):
    ENTRY_POINTS[entry](series, (N_MAX, 1))


def test_quadrature_indices_interleave_in_the_given_order():
    assert quadrature_indices((3, 1), 3).tolist() == [4, 5, 0, 1]
    assert quadrature_indices((), 3).tolist() == []
