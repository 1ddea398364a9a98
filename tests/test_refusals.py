"""Refusals with no other test: each message once, through the CLI where the
CLI reaches it (exit 2 and one ``error:`` line), and through the library
call otherwise."""

import math

import numpy as np
import pytest

from conftest import synthetic_unitary_series, vacuum_state
from gaussfisher.cli import main
from gaussfisher.fidelity import FidelityError, fidelity_one_mode, fidelity_two_mode
from gaussfisher.qfi import negativity_first_order, probe_family, qfi_oracle
from gaussfisher.sweeps import CavityChannel, SweepSpec, compare_methods


@pytest.mark.parametrize(
    "argv,message",
    [
        # the word after --config is the file's content, after --channel the channel file's
        (["sweep", "--config", "nmax 10"], "{config}:1: expected 'key = value', got 'nmax 10\\n'"),
        # a value that does not parse names its file, line and key
        (["sweep", "--config", "n_max = abc"], "{config}:1: key 'n_max': invalid literal for int() with base 10: 'abc'"),
        (["compare", "--config", "h = 0.1\nr = one"], "{config}:2: key 'r': could not convert string to float: 'one'"),
        # a repeated family would write its rows, and compare its slope rows, twice
        *(([verb, "--nmax", "10", "--state", "two_mode_squeezed", "--state", "two_mode_squeezed"],
           "state family 'two_mode_squeezed' is requested more than once") for verb in ("sweep", "compare")),
        (["sweep", "--modes", "1,2,3"], "--modes expects 'k,k_prime'"),
        # the last of a repeated key was read without a word
        (["validate", "--nmax", "10", "--config", "h = 0.05\nh = 0.2"], "{config}:2: key 'h' is given more than once"),
        # a repeated rung wrote its rows twice and counted twice in the slope fit
        (["compare", "--nmax", "10", "--ladder", "0.02,0.04,0.08,0.02"], "ladder value 0.02 is given more than once"),
        # a repeated method ran twice
        (["sweep", "--nmax", "10", "--grid", "0.3", "--methods", "oracle,oracle"],
         "method 'oracle' is requested more than once"),
        (["sweep", "--methods", ","], "at least one method must be requested"),
        (["sweep", "--channel", "component,m,n,re,im"], "channel file has no coefficient rows"),
        # the oracle's ladder fidelities are 0, 0 and 4.6e-89: H(d) = 2/d^2 at
        # every step, and 8800000.0, a number of the steps alone, was written
        (["sweep", "--nmax", "10", "--grid", "0.3", "--r", "0.5", "--delta", "1e6",
          "--state", "single_squeezed_displaced", "--methods", "perturbative,oracle"],
         "oracle fidelity F=4.5571423346886634e-89 at theta=0.05, step d=0.0005 is below 1/2: "
         "the ladder's closest states are too far apart for a finite difference of the QFI"),
        # the whole channel of n_max 1415 is one past the element budget
        *(([verb, "--nmax", "1415"], "n_max x n_max = 1415 x 1415 = 2002225 elements, above the budget of 2000000")
          for verb in ("compare", "validate")),
    ],
)
def test_cli_refuses_in_one_line(tmp_path, capsys, argv, message):
    files = {}
    for flag, name in (("--config", "scenario.cfg"), ("--channel", "channel.csv")):
        if flag in argv:
            at = argv.index(flag) + 1
            files[flag[2:]] = path = tmp_path / name
            path.write_text(argv[at] + "\n", encoding="utf-8")
            argv = argv[:at] + [str(path)] + argv[at + 1:]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"
    assert not out.exists()


def test_compare_refuses_a_repeated_ladder_value_after_too_few_distinct_ones():
    spec, channel = SweepSpec(r=1.0, delta=0.0), CavityChannel(n_max=6)
    with pytest.raises(ValueError, match="^compare needs at least two distinct h values on the ladder$"):
        compare_methods(spec, channel, h_ladder=(0.02, 0.02))
    with pytest.raises(ValueError, match="^ladder value 0.04 is given more than once$"):
        compare_methods(spec, channel, h_ladder=np.array([0.02, 0.04, 0.08, 0.04]))


@pytest.mark.parametrize("grid,value", [((0.3, math.nan), "nan"), ((math.inf, 0.3), "inf"), ((np.float64(-np.inf),), "-inf")])
def test_a_sweep_spec_refuses_a_grid_value_that_is_not_finite(grid, value):
    with pytest.raises(ValueError, match=f"^grid value {value} is not finite$"):
        SweepSpec(grid=grid)


def test_a_sweep_spec_refuses_a_repeated_method():
    with pytest.raises(ValueError, match="^method 'perturbative' is requested more than once$"):
        SweepSpec(methods=("perturbative", "oracle", "perturbative"))


def test_covariance_orders_refuse_a_state_of_the_wrong_size():
    series = synthetic_unitary_series(4, np.random.default_rng(2))
    with pytest.raises(ValueError, match="^input state must live on the probed modes$"):
        series.reduced((1, 2)).covariance_orders(vacuum_state(1))


def test_two_mode_fidelity_refuses_one_mode_input():
    with pytest.raises(FidelityError, match="^two-mode fidelity needs 4x4 covariance matrices$"):
        fidelity_two_mode(np.eye(2), np.eye(2))


def test_oracle_refuses_a_three_mode_family():
    family = probe_family(synthetic_unitary_series(4, np.random.default_rng(2)), [((1, 2, 3), vacuum_state(3))])
    with pytest.raises(ValueError, match="^oracle supports one- and two-mode families only$"):
        qfi_oracle(family, 0.05)


def test_the_negativity_refuses_a_one_mode_reduced_channel():
    series = synthetic_unitary_series(4, np.random.default_rng(2))
    with pytest.raises(ValueError, match=r"^the negativity needs two probed modes, not \(1,\)$"):
        negativity_first_order(series.reduced((1,)))


def test_the_fidelity_refuses_a_covariance_that_is_not_symmetric():
    # det(sigma + i Omega) = -0.5 i: no real determinant
    with pytest.raises(FidelityError, match="^determinant expected real, got imaginary part -5.000e-01$"):
        fidelity_one_mode(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


def test_the_fidelity_refuses_an_unphysical_covariance():
    # diag(0.5, 0.5) lies below the vacuum: det(sigma + i Omega) = -0.75, so Lambda < 0
    with pytest.raises(FidelityError, match="^negative radicand in Lambda: -5.625e-01$"):
        fidelity_one_mode(np.diag([0.5, 0.5]), 2.0 * np.eye(2))
