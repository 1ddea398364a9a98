"""A refused input ends in one ``error:`` line on stderr, exit 2 and nothing
on stdout: never a traceback, a numpy warning or a partial CSV. The first
four argvs are inputs at the edge of the float range that the oracle once
answered with a traceback or with NaN cells."""

import re
from pathlib import Path

import pytest

from gaussfisher.cli import main

CHANNEL = str(Path(__file__).resolve().parent / "data" / "channel_cavity_nmax8_u0.3.csv")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,message",
    [
        # t**2 of the oracle's family overflowed and ended in a traceback
        (["sweep", "--channel", CHANNEL, "--grid", "1e200", "--methods", "oracle"],
         "oracle theta=1e+200 is out of range: its square overflows a float"),
        (["compare", "--nmax", "10", "--ladder", "1e160,1e170"], "oracle theta=1e+160 is out of range"),
        # (2d)^2 underflowed to 0, and NaN oracle cells were written after numpy warnings
        (["compare", "--nmax", "10", "--ladder", "1e-300,2e-300"],
         "oracle step d=2.2222222222222222e-302 at theta=1e-300 is too small: (2d)^2 underflows"),
        (["compare", "--nmax", "10", "--ladder", "1e-170,2e-170"],
         "oracle step d=2.2222222222222222e-172 at theta=1e-170 is too small"),
        (["sweep", "--channel", CHANNEL, "--grid", "0", "--methods", "oracle"],
         "the oracle cannot run at grid value 0.0: theta is 0 there"),
        (["compare", "--nmax", "10", "--ladder", "0.02,0.02"], "compare needs at least two distinct h values"),
        (["sweep", "--nmax", "10", "--modes", "3,6"], "mode 6 lies above n_max/2 = 5"),
        (["sweep", "--nmax", "10", "--r", "6"], "squeezing r=6.0 is out of range"),
    ],
)
def test_a_refusal_prints_one_error_line_and_nothing_else(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*\n", err), err
    assert err.startswith(f"error: {message}")
