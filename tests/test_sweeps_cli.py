import dataclasses
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_unitary_series
from gaussfisher import cavity, qfi, sweeps
from gaussfisher.bogoliubov import BogoliubovSeries, series_from_csv, series_to_csv
from gaussfisher.cavity import perturbative_overlaps, save_overlaps_csv
from gaussfisher.cli import GRID_MAX_POINTS, INPUTS, build_parser, main, parse_grid, read_config
from gaussfisher.sweeps import (
    CavityChannel,
    ImportedChannel,
    SweepSpec,
    compare_methods,
    comparison_to_csv,
    rows_to_csv,
    run_sweep,
    validate,
)


def small_channel(cache=None, **kwargs):
    return CavityChannel(**{"n_max": 6, **kwargs}, cache=cache)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(grid=())
    with pytest.raises(ValueError):
        SweepSpec(families=("bogus",))
    with pytest.raises(ValueError, match="at least one state family"):
        SweepSpec(families=())
    with pytest.raises(ValueError):
        SweepSpec(methods=("guesswork",))
    with pytest.raises(ValueError):
        SweepSpec(x=1.5)
    # a two-mode squeezed probe state has no displacement to carry: beside a
    # displaced family it takes none, and on its own it refuses one on either path
    assert SweepSpec(r=0.5, delta=0.2).params_for("two_mode_squeezed") == (0.5, 0.0)
    for displacement in (dict(r=0.5, delta=0.2), dict(x=0.5)):
        with pytest.raises(ValueError, match="two-mode squeezed probes carry no displacement"):
            SweepSpec(families=("two_mode_squeezed",), **displacement)


@pytest.mark.parametrize("modes", [(1, 2, 3), (1,)])
def test_spec_refuses_modes_that_are_not_a_pair(modes):
    # refused by name when the spec is built, not by an unpacking deep in an
    # engine; validate builds a spec for its dual-path check, so it refuses too
    message = re.escape(f"modes={modes!r} must be a pair (k, k') of probed modes")
    with pytest.raises(ValueError, match=message):
        SweepSpec(modes=modes)
    with pytest.raises(ValueError, match=message):
        validate(CavityChannel(), modes)


def test_run_sweep_rows_and_determinism(tmp_path):
    spec = SweepSpec(grid=(0.2, 0.5), photons=1.0)
    rows = run_sweep(spec, small_channel(str(tmp_path / "cache")))
    assert len(rows) == 2 * 3
    # rows ordered by grid point then family, all perturbative columns filled
    assert [r.grid_value for r in rows] == [0.2, 0.2, 0.2, 0.5, 0.5, 0.5]
    for row in rows:
        assert row.qfi_perturbative is not None
        assert row.qfi_oracle is None
        assert row.negativity >= 0.0
        assert np.isfinite(row.truncation_residual)
    csv_a = rows_to_csv(rows)
    csv_b = rows_to_csv(run_sweep(spec, small_channel(str(tmp_path / "cache"))))
    assert csv_a == csv_b  # byte identical given identical spec and cache


def test_run_sweep_oracle_columns(tmp_path):
    spec = SweepSpec(
        grid=(0.3,),
        families=("two_mode_squeezed",),
        methods=("perturbative", "oracle"),
    )
    (row,) = run_sweep(spec, small_channel(str(tmp_path / "cache")))
    assert row.qfi_oracle is not None and row.residual_oracle is not None
    assert abs(row.qfi_perturbative - row.qfi_oracle) / row.qfi_oracle < 0.05


def test_energy_budget_definition_identity(tmp_path):
    # the x = 0 budget column IS the directly parameterized (r=0, delta=sqrt(N))
    # family, by definition
    channel = small_channel(str(tmp_path / "cache"))
    by_budget = run_sweep(
        SweepSpec(
            grid=(0.25, 0.5),
            families=("two_product_squeezed_displaced",),
            x=0.0,
            photons=1.0,
        ),
        channel,
    )
    direct = run_sweep(
        SweepSpec(
            grid=(0.25, 0.5),
            families=("two_product_squeezed_displaced",),
            r=0.0,
            delta=1.0,
        ),
        channel,
    )
    for a, b in zip(by_budget, direct):
        assert a.qfi_perturbative == b.qfi_perturbative
        assert a.e2 == b.e2 and a.c2 == b.c2


def test_imported_channel_sweep():
    channel = synthetic_unitary_series(6, np.random.default_rng(3), strength=0.3)
    spec = SweepSpec(
        grid=(0.02, 0.05),
        families=("two_mode_squeezed",),
        r=0.6,
        methods=("perturbative", "oracle"),
    )
    rows = run_sweep(spec, ImportedChannel(channel))
    assert len(rows) == 2
    # grid values are channel-parameter evaluation points for the oracle
    assert rows[0].qfi_perturbative == rows[1].qfi_perturbative
    assert rows[0].qfi_oracle != rows[1].qfi_oracle


CHANNEL_FILE = Path(__file__).resolve().parent / "data" / "channel_cavity_nmax8_u0.3.csv"


def test_cli_imported_oracle_at_a_negative_grid_value(tmp_path):
    # the oracle's steps come from |theta|: a negative theta once exited 2 with
    # "steps must be positive"
    out = tmp_path / "out.csv"
    argv = ["sweep", "--channel", str(CHANNEL_FILE), "--grid=-0.05", "--methods", "perturbative,oracle",
            "--state", "two_mode_squeezed", "--r", "0.8", "--out", str(out)]
    assert main(argv) == 0
    header, line = out.read_text(encoding="utf-8").splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["u"] == "-0.05"
    pert, orc = float(row["qfi_perturbative"]), float(row["qfi_oracle"])
    assert float(row["residual_oracle"]) < 1e-9
    # pinned at the oracle tolerance of test_pinned_outputs
    assert abs(orc - 1.120019084037093) <= 1e-7 * orc
    # the first-order deviation from the leading-order value, as at theta > 0
    assert abs(orc - pert) / pert < 1e-2


def test_cli_imported_oracle_refuses_theta_zero_by_grid_value(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["sweep", "--channel", str(CHANNEL_FILE), "--grid", "0.05,0", "--methods", "oracle", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the oracle cannot run at grid value 0.0: theta is 0 there, "
        "and its finite-difference steps scale with |theta|\n"
    )
    assert not out.exists()


def test_compare_methods_report(tmp_path):
    spec = SweepSpec(r=1.0, delta=0.0)
    report = compare_methods(spec, small_channel(str(tmp_path / "cache"), n_max=10))
    assert set(report.slopes) == set(spec.families)
    assert report.passed
    assert len(report.rows) == 3 * 3
    # deviation at the smallest rung stays within a few times h
    for row in report.rows:
        if row.h == 0.02:
            assert row.relative_deviation <= 10.0 * row.h


def test_compare_methods_identity_channel():
    n = 4
    zeros = np.zeros((n, n), dtype=complex)
    identity_channel = BogoliubovSeries(np.ones(n, dtype=complex), zeros, zeros, zeros, zeros)
    spec = SweepSpec(r=0.7, delta=0.0)
    report = compare_methods(spec, ImportedChannel(identity_channel))
    for row in report.rows:
        assert row.qfi_perturbative == 0.0
        assert abs(row.qfi_oracle) <= 1e-12
    assert report.passed


def test_validate_default_scenario(tmp_path):
    report = validate(small_channel(str(tmp_path / "cache"), n_max=8))
    assert report.passed, "\n".join(report.lines())
    # building or loading the series already enforces the fit bound, so
    # validate has no fit-residual line that could never fail
    assert not any("fit residual" in line for line in report.lines())
    # validate checks the channel; the state and fidelity layers' general
    # properties are held by their own tests, not re-measured on every run
    for name in ("pure states: |det Sigma - 1|", "pure states: |nu - 1|",
                 "fidelity: F(state, state) - 1", "fidelity: swap asymmetry"):
        assert not any(f"  {name}:" in line for line in report.lines()), name


def test_perturbative_verbs_run_no_overlap_quadrature(tmp_path, monkeypatch, capsys):
    """A perturbative sweep, compare and validate compose the exact overlap
    coefficients: none of them runs the finite-h quadrature behind the fit."""

    def refuse(*args):
        raise AssertionError("overlap quadrature ran on the perturbative route")

    monkeypatch.setattr(cavity, "rindler_overlaps", refuse)
    out = ["--out", str(tmp_path / "out.csv")]
    assert main(["sweep", "--nmax", "6", "--grid", "0.3"] + out) == 0
    assert main(["compare", "--nmax", "6"] + out) == 0
    assert main(["validate", "--nmax", "6"] + out) == 0
    assert "error:" not in capsys.readouterr().err


def test_validate_flags_corrupted_channel():
    channel = synthetic_unitary_series(5, np.random.default_rng(8), strength=0.3)
    corrupted = BogoliubovSeries(channel.G, channel.alpha1, channel.alpha2, 2.0 * channel.beta1, channel.beta2)
    report = validate(ImportedChannel(corrupted))
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any("identity" in c.name for c in failing)


def test_config_parsing(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# cavity setup\nh = 0.08\nu = 0.4\nk = 1\nk_prime = 2\nn_max = 6\nN = 2.0\n",
        encoding="utf-8",
    )
    config = read_config(str(path))
    assert config["h"] == 0.08 and config["n_max"] == 6 and config["N"] == 2.0
    bad = tmp_path / "bad.cfg"
    # outputs are dimensionless in (h, u), so there is no cavity length L
    for line in ("who_knows = 3\n", "L = 1.0\n"):
        bad.write_text(line, encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key"):
            read_config(str(bad))


def test_parse_grid():
    assert parse_grid("0:1:0.5") == (0.0, 0.5, 1.0)
    assert parse_grid("0.1,0.2") == (0.1, 0.2)
    with pytest.raises(ValueError):
        parse_grid("0:1:0:9")
    with pytest.raises(ValueError):
        parse_grid("0:1:-0.1")
    # the stop is inclusive and never overshot, up to roundoff in the step
    assert parse_grid("0:1:0.6") == (0.0, 0.6)
    assert parse_grid("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)
    fine = parse_grid("0:1:0.01")
    assert len(fine) == 101 and fine[-1] == 1.0
    assert parse_grid("0.5:0.5:0.1") == (0.5,)
    # the bound admits exactly GRID_MAX_POINTS points
    assert len(parse_grid("0:1:0.00001")) == GRID_MAX_POINTS == 100_001
    with pytest.raises(ValueError, match=r"^grid '0:100001:1' has 100002 points, above the bound of 100001$"):
        parse_grid("0:100001:1")
    with pytest.raises(ValueError, match=r"^grid '1:0:0.1' stops below its start$"):
        parse_grid("1:0:0.1")


def test_cli_sweep_writes_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cache = str(tmp_path / "cache")
    args = [
        "sweep", "--grid", "0.2,0.4", "--nmax", "6",
        "--state", "two_mode_squeezed", "--cache", cache,
    ]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header.startswith("u,family,r,delta,qfi_perturbative")


def test_cli_sweep_config_and_flag_precedence(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("h = 0.05\nn_max = 6\nu_grid = 0.2,0.3\nN = 1.0\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(cfg), "--state", "single_squeezed_displaced",
        "--cache", str(tmp_path / "cache"), "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 grid points


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("h = 2.5\n", encoding="utf-8")
    code = main(["validate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "horizon" in captured.err
    # flags take precedence over the config file
    cfg2 = tmp_path / "ok.cfg"
    cfg2.write_text("h = 2.5\nn_max = 6\n", encoding="utf-8")
    assert main(["validate", "--config", str(cfg2), "--h", "0.05"]) == 0


def test_cli_prints_fidelity_overshoot_as_a_plain_number(tmp_path, capsys):
    # at u = 0 the channel is trivial and the strongly squeezed probe's fidelity at the
    # smallest step overshoots 1 by more than fidelity.OVERSHOOT_TOL: refused, with the number
    argv = ["sweep", "--nmax", "10", "--grid", "0", "--methods", "oracle", "--photons", "1.3",
            "--x", "0.4", "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: fidelity 1.0000000182501212 outside [0, 1]\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # 2 pi n u overflows: refused before exp, naming u
        (["--grid", "1e308"], "duration u=1e+308 gives mode phases 2 pi n u that are not finite at n_max 10"),
        (["--grid", "0.3", "--r", "800"],
         "squeezing r=800.0 is out of range: |r| must not exceed 5, beyond which the probe covariance's "
         "spread e^(2|r|) leaves the QFI routes too few digits"),
        # a range grid's size is refused before any point is made: numpy refused
        # 1e18 points as a 6.94 EiB array, 1e9 points ran out of memory, and an
        # infinite count raised OverflowError with a traceback
        (["--grid", "0:1e9:1e-9"], "grid '0:1e9:1e-9' has 1e+18 points, above the bound of 100001"),
        # each failed later, at the oracle's or the kernel's numerics, without naming r
        *((["--grid", "0.3", "--r", r], f"squeezing r={float(r)!r} is out of range: |r| must not exceed 5")
          for r in ("30", "100", "400", "700")),
        # delta^2 overflowed e2 with RuntimeWarnings, or sqrt(2) delta overflowed in the probe
        *((["--grid", "0.3", "--r", "0.5", "--delta", delta],
           f"displacement delta={float(delta)!r} is out of range: |delta| must not exceed 1e+100, "
           "beyond which its photon number delta^2 overflows the QFI")
          for delta in ("1e200", "1.3e308")),
        # the energy budget gives the single-mode probe delta^2 = 3 N at x = 0
        (["--grid", "0.3", "--photons", "1e300", "--x", "0"],
         "displacement delta=1.7320508075688775e+150 is out of range"),
        (["--grid", "0:1:1e-12"], "grid '0:1:1e-12' has 1e+12 points, above the bound of 100001"),
        (["--grid=-1e308:1e308:1e-300"], "grid '-1e308:1e308:1e-300' has inf points, above the bound of 100001"),
        # a whole number of periods from u = 0, yet 0.4641 was written with exit 0
        # beside -1.254e-9 at u = 0: the phase 2 pi n u had lost its digits
        (["--nmax", "60", "--grid", "1e15", "--state", "two_mode_squeezed"],
         "duration u=1000000000000000.0 gives mode phases 2 pi n u with a rounding error of 8.371e+01 rad "
         "at n_max 60, above the bound of 1e-10 rad"),
        # the process was killed for lack of memory, with no error line
        (["--nmax", "100000000", "--grid", "0.3"],
         "grid points x n_max = 1 x 100000000 = 100000000 elements, above the budget of 2000000"),
        (["--nmax", "19802"], "grid points x n_max = 101 x 19802 = 2000002 elements, above the budget of 2000000"),
    ],
)
def test_cli_refuses_overflowing_input_in_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    # warnings raise: numpy's RuntimeWarnings would otherwise reach stderr first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "settings",
    [
        ["--nmax", "10", "--grid", "0.3,0.55,0.9", f"--delta={qfi.MAX_DISPLACEMENT!r}"],
        ["--nmax", "10", "--grid", "0.3,0.55,0.9", f"--delta={-qfi.MAX_DISPLACEMENT!r}"],
        # the widest mode pair of n_max 60, where the two-mode squeezed oracle failed from r 5.8
        ["--nmax", "60", "--modes", "1,30", "--grid", "0.3,0.55,0.9", "--state", "two_mode_squeezed"],
    ],
)
@pytest.mark.parametrize("r", [qfi.MAX_SQUEEZING, -qfi.MAX_SQUEEZING, qfi.MAX_SQUEEZING - 0.1])
def test_both_routes_hold_at_the_largest_squeezing_and_displacement(tmp_path, capsys, settings, r):
    # with warnings as errors: each route writes finite numbers, except the
    # oracle at the largest displacement, whose means at the smallest step lie
    # so far apart that F = 0, and which refuses by name
    displaced = any(arg.startswith("--delta") for arg in settings)
    for methods in ("perturbative", "oracle"):
        out = tmp_path / f"{methods}.csv"
        argv = ["sweep", *settings, f"--r={r!r}", "--methods", methods, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        if methods == "oracle" and displaced:
            assert code == 2 and not out.exists()
            assert capsys.readouterr().err == (
                "error: oracle fidelity F=0.0 at theta=0.05, step d=0.0005 is below 1/2: "
                "the ladder's closest states are too far apart for a finite difference of the QFI\n")
            continue
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(np.isfinite(float(v)) for row in rows for v in row.split(",")[2:] if v)


def test_cli_validate_and_exit_codes(tmp_path):
    code = main(["validate", "--nmax", "6"])
    assert code == 0


def test_cli_validate_channels(tmp_path):
    channel = synthetic_unitary_series(5, np.random.default_rng(8), strength=0.3)
    good = tmp_path / "good.csv"
    good.write_text(series_to_csv(channel), encoding="utf-8")
    assert main(["validate", "--channel", str(good)]) == 0

    tampered = BogoliubovSeries(channel.G, channel.alpha1, channel.alpha2, 2.0 * channel.beta1, channel.beta2)
    bad = tmp_path / "bad.csv"
    bad.write_text(series_to_csv(tampered), encoding="utf-8")
    assert main(["validate", "--channel", str(bad)]) == 1


def test_cli_compare(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--nmax", "10", "--u", "0.3", "--r", "1.0",
        "--state", "two_mode_squeezed", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("family,h,qfi_perturbative")
    assert "slope:two_mode_squeezed" in text


def test_cli_compare_cells_are_numbers(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--nmax", "6", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 3 + 3  # three families on three h, then the slopes
    for row in rows:
        for cell in row[1:]:
            if cell:
                float(cell)


@pytest.mark.parametrize("ladder", ["0.02", "0.02,0.02"])
def test_cli_compare_refuses_single_h(tmp_path, capsys, ladder):
    argv = ["compare", "--nmax", "6", "--ladder", ladder, "--out", str(tmp_path / "cmp.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: compare needs at least two distinct h values"), err
    assert err.count("\n") == 1 and "Traceback" not in err


#: flags a verb does not read, and so does not accept; no verb takes a cavity
#: length, because every output is dimensionless in (h, u)
UNREAD_FLAGS = [
    ("overlaps", "--out", "x.csv"),
    ("overlaps", "--modes", "1,2"),
    ("overlaps", "--h", "0.05"),
    ("overlaps", "--seed", "1"),
    ("overlaps", "--channel", "channel.csv"),
    ("sweep", "--seed", "1"),
    ("compare", "--seed", "1"),
    ("validate", "--seed", "1"),
    ("compare", "--h", "0.05"),
    # compare and validate read no fitted overlap series, so no cache
    ("compare", "--cache", "cache"),
    ("validate", "--cache", "cache"),
] + [(verb, "--length", "2") for verb in ("sweep", "compare", "validate", "overlaps")]


@pytest.mark.parametrize("verb,flag,value", UNREAD_FLAGS)
def test_cli_refuses_flags_the_verb_does_not_read(tmp_path, capsys, verb, flag, value):
    cache = ["--cache", str(tmp_path / "cache")] if verb in ("sweep", "overlaps") else []
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--nmax", "6", *cache, flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


#: flags a verb registers for the cavity channel, and so cannot read with an
#: imported one
CAVITY_ONLY_FLAGS = [
    ("sweep", "--h", "0.07"),
    ("validate", "--h", "0.07"),
    ("compare", "--u", "0.7"),
    ("sweep", "--cache", "cache"),
] + [(verb, "--nmax", "3") for verb in ("sweep", "compare", "validate")]


@pytest.mark.parametrize("verb,flag,value", CAVITY_ONLY_FLAGS)
def test_cli_refuses_cavity_flags_with_imported_channel(tmp_path, capsys, verb, flag, value):
    path = tmp_path / "channel.csv"
    path.write_text(series_to_csv(synthetic_unitary_series(6, np.random.default_rng(4))), encoding="utf-8")
    out = tmp_path / "out.csv"
    grid = ["--grid", "0.05"] if verb == "sweep" else []
    value = str(tmp_path / value) if flag == "--cache" else value
    # an empty --channel names an imported channel too
    for channel in (str(path), ""):
        argv = [verb, "--channel", channel, *grid, flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} is not read with an imported --channel\n"
        assert not out.exists() and not (tmp_path / "cache").exists()
    # and without a cavity flag it is a file that cannot be opened: no output, no check line
    assert main([verb, "--channel", "", *grid]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")


def test_cli_checks_modes_against_imported_channel(tmp_path, capsys):
    """Modes beyond the cavity default of 10 are fine on a 20-mode channel."""
    path = tmp_path / "channel.csv"
    path.write_text(series_to_csv(synthetic_unitary_series(20, np.random.default_rng(6), strength=0.1)), encoding="utf-8")
    out = tmp_path / "out.csv"

    def config(k_prime):
        cfg = tmp_path / f"modes_{k_prime}.cfg"
        cfg.write_text(f"k = 1\nk_prime = {k_prime}\n", encoding="utf-8")
        return str(cfg)

    def argvs(k_prime):
        # validate reads its modes from a config here, as sweep and compare do from --modes
        return (
            ["sweep", "--grid", "0.01", "--modes", f"1,{k_prime}"],
            ["compare", "--modes", f"1,{k_prime}", "--state", "two_mode_squeezed"],
            ["validate", "--config", config(k_prime)],
        )

    for verb in argvs(15):
        assert main(verb + ["--channel", str(path), "--out", str(out)]) in (0, 1), verb
        assert capsys.readouterr().err.count("error:") == 0
        assert out.read_text(encoding="utf-8")
        out.unlink()
    for verb in argvs(21):
        assert main(verb + ["--channel", str(path), "--out", str(out)]) == 2, verb
        assert capsys.readouterr().err == "error: mode index 21 out of range 1..20\n"
        assert not out.exists()


#: refusals of the cavity's own inputs: each comes before either overlap series
#: is loaded or built, so the cache directory is never made
REFUSED_BEFORE_ANY_BUILD = [
    (["sweep", "--modes", "1,7"], "mode index 7 out of range 1..6"),
    (["sweep", "--grid", "nan"], "grid value 'nan' is not finite"),
    (["compare", "--u", "-1"], "duration parameter u must be non-negative"),
    (["validate", "--h", "2.5"], "h=2.5 out of range (0, 2): the left wall must stay outside the acceleration horizon"),
    # a probe flag that the choice of r leaves unread, or a displacement no family carries
    (["sweep", "--grid", "0.3", "--delta", "0.4"], "--delta is not read unless r is given"),
    (["sweep", "--grid", "0.3", "--r", "0.5", "--photons", "3", "--x", "0.2", "--state", "single_squeezed_displaced"],
     "--photons is not read when r is given"),
    (["sweep", "--grid", "0.3", "--r", "0.5", "--x", "1"], "--x is not read when r is given"),
    (["sweep", "--grid", "0.3", "--state", "two_mode_squeezed", "--x", "0.5"],
     "two-mode squeezed probes carry no displacement"),
    (["sweep", "--grid", "0.3", "--state", "two_mode_squeezed", "--r", "0.5", "--delta", "1"],
     "two-mode squeezed probes carry no displacement"),
    # a probe above n_max/2 has its spectator sums cut at the ladder's edge
    (["sweep", "--modes", "1,4", "--methods", "perturbative,oracle"],
     "mode 4 lies above n_max/2 = 3, at the edge of the mode ladder; probing it needs --nmax 8 or more"),
    (["compare", "--modes", "4,1"],
     "mode 4 lies above n_max/2 = 3, at the edge of the mode ladder; probing it needs --nmax 8 or more"),
    (["validate", "--modes", "2,5"],
     "mode 5 lies above n_max/2 = 3, at the edge of the mode ladder; probing it needs --nmax 10 or more"),
    # each engine checks the probed modes, once, by the provider
    (["compare", "--modes", "0,2"], "mode index 0 out of range 1..6"),
    (["validate", "--modes", "2,7"], "mode index 7 out of range 1..6"),
]


@pytest.mark.parametrize("argv,message", REFUSED_BEFORE_ANY_BUILD)
def test_cli_refuses_before_any_overlap_build(tmp_path, capsys, monkeypatch, argv, message):
    calls = []

    def counting(real):
        def build(n_max):
            calls.append(n_max)
            return real(n_max)
        return build

    monkeypatch.setattr(cavity, "perturbative_overlaps", counting(cavity.perturbative_overlaps))
    monkeypatch.setattr(sweeps, "taylor_overlaps", counting(sweeps.taylor_overlaps))
    cache = tmp_path / "cache"
    flags = ["--cache", str(cache)] if argv[0] == "sweep" else []
    assert main(argv + ["--nmax", "6", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not cache.exists() or not list(cache.iterdir())
    assert calls == []


def test_cli_reads_r_from_a_config_key_as_from_the_flag(tmp_path, capsys):
    # r chooses (r, delta) whether a flag or a config key gives it; the config
    # keys a verb does not read stay tolerated, as scenario files are shared
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("r = 0.5\n", encoding="utf-8")
    argv = ["sweep", "--nmax", "6", "--grid", "0.3", "--config", str(cfg)]
    assert main(argv + ["--x", "0.2"]) == 2
    assert capsys.readouterr().err == "error: --x is not read when r is given\n"
    cfg.write_text("r = 0.5\nN = 3\nx = 0.2\n", encoding="utf-8")
    assert main(argv + ["--out", str(tmp_path / "config.csv")]) == 0
    assert main(["sweep", "--nmax", "6", "--grid", "0.3", "--r", "0.5", "--out", str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    cfg.write_text("delta = 0.4\n", encoding="utf-8")
    assert main(argv + ["--out", str(tmp_path / "delta.csv")]) == 0
    assert main(["sweep", "--nmax", "6", "--grid", "0.3", "--out", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "delta.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_cli_r_delta_sweep_leaves_the_undisplaced_family_undisplaced(tmp_path):
    """``--r R --delta D`` over every family gives the rows of the per-family
    runs, the two-mode squeezed probe's without ``--delta``, in grid then
    family order."""
    cache = str(tmp_path / "cache")

    def rows(*flags) -> list:
        out = tmp_path / "out.csv"
        argv = ["sweep", "--nmax", "10", "--grid", "0.137,0.5", "--r", "0.6", "--cache", cache, "--out", str(out)]
        assert main(argv + list(flags)) == 0
        return out.read_bytes().split(b"\n")

    whole = rows("--delta", "0.4")
    per_family = [
        rows("--delta", "0.4", "--state", "single_squeezed_displaced"),
        rows("--delta", "0.4", "--state", "two_product_squeezed_displaced"),
        rows("--state", "two_mode_squeezed"),
    ]
    header, *grid_rows = zip(*(family[:-1] for family in per_family))
    assert whole[0] == header[0]
    assert whole[1:-1] == [row for point in grid_rows for row in point]
    assert len(whole) == 2 + 2 * 3 and whole[-1] == b""


def test_cli_validate_channel_checks_the_probed_window(capsys):
    """An imported channel's identity residual is measured on the probed
    modes; on the window 1, 2 it is the two-mode rows' perturbative residual
    in the pinned sweep of the same channel."""
    path = Path(__file__).resolve().parent / "data" / "channel_cavity_nmax8_u0.3.csv"
    series = series_from_csv(path.read_text(encoding="utf-8"))
    for modes, flags in (((1, 2), []), ((2, 5), ["--modes", "2,5"])):
        assert main(["validate", "--channel", str(path), *flags]) == 1
        measured = max(series.unitarity_residuals(modes))
        expected = f"FAIL  imported channel: identity residual: measured {measured:.3e} vs bound 1.000e-06\n"
        assert capsys.readouterr().out == expected, modes
    pinned = (path.parent / "sweep_channel_nmax8_oracle.csv").read_text(encoding="utf-8").splitlines()
    residual = float(pinned[2].split(",")[7])  # two_product_squeezed_displaced, residual_perturbative
    assert f"{residual:.3e}" == f"{max(series.unitarity_residuals((1, 2))):.3e}" == "1.659e-05"


def test_cli_input_table_names_fields_of_its_classes():
    """Each ``INPUTS`` row names a field of the class that reads it, and
    every cavity channel field but its cache has a flag."""
    owners = {owner for owner, *_ in INPUTS.values()}
    assert owners == {CavityChannel, SweepSpec}
    for flag, (owner, keyword, *_) in INPUTS.items():
        assert keyword in {f.name for f in dataclasses.fields(owner)}, flag
    flagged = {keyword for owner, keyword, *_ in INPUTS.values() if owner is CavityChannel}
    assert flagged == {f.name for f in dataclasses.fields(CavityChannel)} - {"cache"}


def test_cli_adds_no_defaults_of_its_own(capsys):
    """Without flags or config, the CLI leaves every default to the classes."""
    channel = CavityChannel(n_max=6)
    assert main(["sweep", "--nmax", "6", "--grid", "0.3"]) == 0
    assert capsys.readouterr().out == rows_to_csv(run_sweep(SweepSpec(grid=(0.3,)), channel))
    assert main(["validate", "--nmax", "6"]) == 0
    assert capsys.readouterr().out.splitlines() == validate(channel).lines()
    # compare's own probe, r 1 and no displacement, on the library's ladder
    assert main(["compare", "--nmax", "6"]) == 0
    assert capsys.readouterr().out == comparison_to_csv(compare_methods(SweepSpec(r=1.0, delta=0.0), channel))


def test_cli_overlaps_cache_builder(tmp_path, capsys, monkeypatch):
    # the uncached oracle sweep keeps the n_max 6 fit in the process, which
    # the cache path does not read: overlaps still runs the quadrature
    sweep = ["sweep", "--nmax", "6", "--grid", "0.37", "--methods", "perturbative,oracle"]
    assert main(sweep + ["--out", str(tmp_path / "uncached.csv")]) == 0
    quadratures = []
    real = cavity.rindler_overlaps
    monkeypatch.setattr(cavity, "rindler_overlaps", lambda *args: quadratures.append(args) or real(*args))
    cache = tmp_path / "cache"
    assert main(["overlaps", "--nmax", "6", "--cache", str(cache)]) == 0
    assert len(quadratures) == len(cavity.H_LADDER)
    path = cache / "overlap_series_n6.npz"
    assert list(cache.iterdir()) == [path]
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.startswith(f"{path}: n_max=6 fit residual ")

    def refuse(*args):
        raise AssertionError("overlap quadrature ran on a warm cache")

    monkeypatch.setattr(cavity, "rindler_overlaps", refuse)
    assert main(sweep + ["--cache", str(cache), "--out", str(tmp_path / "cached.csv")]) == 0
    assert (tmp_path / "cached.csv").read_bytes() == (tmp_path / "uncached.csv").read_bytes()
    assert main(["overlaps", "--nmax", "6", "--cache", str(cache)]) == 0
    assert list(cache.iterdir()) == [path]
    assert main(["overlaps", "--nmax", "5"]) == 2  # cache dir required


def test_cli_overlaps_reads_no_probed_modes(tmp_path, capsys):
    # overlaps probes no modes, so the default modes 1, 2 do not bound its n_max
    cache = tmp_path / "cache"
    assert main(["overlaps", "--nmax", "1", "--cache", str(cache)]) == 0
    assert list(cache.iterdir()) == [cache / "overlap_series_n1.npz"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["overlaps", "--cache", "cache"], ["sweep"]])
def test_cli_refuses_an_empty_mode_ladder(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--nmax", "0"]) == 2
    assert capsys.readouterr().err == "error: n_max=0 must be an integer >= 1\n"
    assert list(tmp_path.iterdir()) == []


def _flip_byte(path, series):
    # a byte inside the stored alpha1 data, which the archive's CRC covers
    data = bytearray(path.read_bytes())
    at = bytes(data).find(series.alpha1.tobytes())
    assert at > 0
    data[at + 8] ^= 0xFF
    path.write_bytes(bytes(data))


def _without_beta2(path, series):
    with open(path, "wb") as fh:
        np.savez(fh, alpha1=series.alpha1, alpha2=series.alpha2, beta1=series.beta1,
                 fit_residual=series.fit_residual)


def _with_nan(path, series):
    alpha2 = series.alpha2.copy()
    alpha2[2, 3] = np.nan
    save_overlaps_csv(str(path), dataclasses.replace(series, alpha2=alpha2))


#: damage to a valid n_max 6 cache file and the error it must raise
DAMAGED_CACHES = {
    "flipped byte": (_flip_byte, "Bad CRC-32"),
    "truncated": (lambda path, series: path.write_bytes(path.read_bytes()[:1000]), "not a zip file"),
    "other n_max": (
        lambda path, series: save_overlaps_csv(str(path), perturbative_overlaps(5)),
        "alpha1 is not a finite float64 array of shape (6, 6)",
    ),
    "nan entry": (_with_nan, "alpha2 is not a finite float64 array of shape (6, 6)"),
    "residual above bound": (
        lambda path, series: save_overlaps_csv(str(path), dataclasses.replace(series, fit_residual=1e-3)),
        "fit residual 1.000e-03 above 1.000e-07",
    ),
    "missing key": (_without_beta2, "beta2 is not a file in the archive"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_CACHES))
def test_cli_rejects_damaged_cache(tmp_path, capsys, case):
    damage, message = DAMAGED_CACHES[case]
    cache = tmp_path / "cache"
    assert main(["overlaps", "--nmax", "6", "--cache", str(cache)]) == 0
    path = cache / "overlap_series_n6.npz"
    damage(path, perturbative_overlaps(6))
    capsys.readouterr()
    # the perturbative route reads no fitted series, so the damage does not reach it
    out = ["--out", str(tmp_path / "out.csv")]
    assert main(["sweep", "--grid", "0.37", "--nmax", "6", "--cache", str(cache)] + out) == 0
    oracle = ["sweep", "--grid", "0.37", "--methods", "oracle"] + out
    # the second pass runs with the n_max 6 fit kept in the process by an
    # uncached oracle sweep, which the cache path does not read
    for uncached_first in (False, True):
        if uncached_first:
            assert main(oracle + ["--nmax", "6"]) == 0
        for verb in (oracle, ["overlaps"]):
            assert main(verb + ["--nmax", "6", "--cache", str(cache)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: overlap-series cache file {path}: "), err
            assert message in err and err.count("\n") == 1 and "Traceback" not in err
            assert list(cache.iterdir()) == [path]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--nmax", "150", "--grid", "0.3", "--methods", "oracle", "--out", "{tmp}/out.csv"],
        ["overlaps", "--nmax", "150", "--cache", "{tmp}/cache"],
        # 136-144 converge but fail the series fit's residual bound
        ["sweep", "--nmax", "136", "--grid", "0.3", "--methods", "oracle", "--out", "{tmp}/out.csv"],
        ["overlaps", "--nmax", "136", "--cache", "{tmp}/cache"],
    ],
)
def test_cli_quadrature_failure_exits_2(tmp_path, capsys, argv):
    """Only the fitted series, which the oracle and ``overlaps`` read, has
    these refusals."""
    expected = {
        "150": "error: quadrature did not converge to 1e-10 at order 512",
        "136": "error: overlap series fit residual 1.873e-05 above 1.850e-05",
    }[argv[2]]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(expected), err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("n_max", [150, 200])
def test_cli_perturbative_sweep_runs_past_the_fit_bounds(tmp_path, capsys, n_max):
    out = tmp_path / "out.csv"
    assert main(["sweep", "--nmax", str(n_max), "--grid", "0.3,0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2 * 3
    assert all(float(row.split(",")[4]) > 0.0 for row in rows)


def test_cli_refuses_a_probe_at_the_ladder_edge(tmp_path, capsys):
    # mode 12 of a 12-mode ladder gave qfi_perturbative -25.67 with exit 0
    out = tmp_path / "out.csv"
    argv = ["sweep", "--nmax", "12", "--modes", "1,12", "--x", "0", "--photons", "1",
            "--grid", "2.4621479825035744", "--state", "two_product_squeezed_displaced", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: mode 12 lies above n_max/2 = 6, at the edge of the mode ladder; probing it needs --nmax 24 or more\n")
    assert not out.exists()
    argv[2] = "24"
    assert main(argv) == 0
    assert float(out.read_text(encoding="utf-8").splitlines()[1].split(",")[4]) > 0.0


def _replace(index, line):
    def apply(lines):
        lines[index] = line
    return apply


#: edits of a valid 3-mode channel file (index 0 is the header, 1-3 the
#: ``g`` rows, 4 the ``alpha1 (1, 1)`` entry) and the error each must raise
MALFORMED_CHANNELS = {
    "zero index": (_replace(4, "alpha1,0,1,0.5,0.0"), "channel line 5: alpha1 index (0, 1) out of range"),
    "column beyond every row": (_replace(4, "alpha1,1,4,0.5,0.0"), "channel line 5: alpha1 index (1, 4) out of range"),
    "off-diagonal g": (_replace(1, "g,1,2,1.0,0.0"), "channel line 2: g index (1, 2) out of range"),
    "missing entry": (lambda lines: lines.pop(4), "lacks 1 entries, first alpha1 (1, 1)"),
    "duplicate entry": (lambda lines: lines.insert(5, lines[4]), "channel line 6: duplicate alpha1 entry (1, 1)"),
    "nan value": (_replace(4, "alpha1,1,1,nan,0.0"), "channel line 5: non-finite value"),
    "unknown component": (_replace(4, "gamma1,1,1,0.0,0.0"), "channel line 5: unknown component 'gamma1'"),
    "short row": (_replace(4, "alpha1,1,1,0.5"), "channel line 5: expected component,m,n,re,im"),
    "bad index": (_replace(4, "alpha1,1,x,0.5,0.0"), "channel line 5: invalid literal"),
    "no header": (lambda lines: lines.pop(0), "channel line 1: expected the header component,m,n,re,im, got 'g,1,1,"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHANNELS))
def test_cli_rejects_malformed_channel(tmp_path, capsys, case):
    edit, message = MALFORMED_CHANNELS[case]
    lines = series_to_csv(synthetic_unitary_series(3, np.random.default_rng(4))).splitlines()
    edit(lines)
    path = tmp_path / "channel.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for verb in (["sweep", "--grid", "0.05"], ["compare"], ["validate"]):
        assert main(verb + ["--channel", str(path), "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_channel_file_without_its_header_is_refused_at_its_first_line(tmp_path, capsys):
    # the first coefficient line was dropped unread, and the file refused as
    # lacking an entry it holds: "channel file lacks 1 entries, first g (1, 1)"
    lines = (Path(__file__).parent / "data" / "channel_cavity_nmax8_u0.3.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "channel.csv"
    path.write_text("\n".join(["", *lines[1:]]) + "\n", encoding="utf-8")
    assert main(["sweep", "--channel", str(path), "--grid", "0.3"]) == 2
    assert capsys.readouterr().err == f"error: channel line 2: expected the header component,m,n,re,im, got {lines[1]!r}\n"
    # blank lines before the header are skipped, as everywhere in the file
    path.write_text("\n".join(["", *lines]) + "\n", encoding="utf-8")
    assert main(["sweep", "--channel", str(path), "--grid", "0.3"]) == 0


def test_cli_refuses_a_short_channel_file_before_allocating_its_modes(tmp_path, capsys):
    # three lines that claim mode 10**6: the refusal used to allocate four
    # n_max x n_max matrices and list every entry first, 637 MB at mode 1200
    n_max = 10**6
    path = tmp_path / "channel.csv"
    path.write_text(f"component,m,n,re,im\ng,1,1,1,0\nalpha1,{n_max},{n_max},0,0\n", encoding="utf-8")
    build_parser()
    tracemalloc.start()
    try:
        code = main(["sweep", "--grid", "0.05", "--channel", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    lacking = n_max + 4 * n_max**2 - 2
    assert capsys.readouterr().err == f"error: channel file lacks {lacking} entries, first g (2, 2)\n"
    assert peak < 2**20, peak


def test_cli_rejects_modes_beyond_imported_channel(tmp_path, capsys):
    path = tmp_path / "channel.csv"
    path.write_text(series_to_csv(synthetic_unitary_series(3, np.random.default_rng(4))), encoding="utf-8")
    argv = ["sweep", "--channel", str(path), "--grid", "0.05", "--modes", "1,4"]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mode index 4 out of range 1..3"), err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "--grid", "nan"], "grid value 'nan' is not finite"),
        (["sweep", "--grid", "inf"], "grid value 'inf' is not finite"),
        (["sweep", "--grid", "0.1,nan"], "grid value 'nan' is not finite"),
        (["sweep", "--grid", "0:inf:0.1"], "grid value 'inf' is not finite"),
        (["sweep", "--grid", "nan", "--methods", "oracle"], "grid value 'nan' is not finite"),
        (["compare", "--u", "nan"], "duration parameter u=nan is not finite"),
        (["compare", "--ladder", "0.02,nan"], "ladder value 'nan' is not finite"),
        (["sweep", "--grid", "0.3", "--photons", "nan"], "photons=nan is not finite"),
        (["sweep", "--grid", "0.3", "--photons", "inf"], "photons=inf is not finite"),
        (["sweep", "--grid", "0.3", "--r", "inf"], "r=inf is not finite"),
        (["sweep", "--grid", "0.3", "--r", "0.5", "--delta", "nan", "--state", "single_squeezed_displaced"],
         "delta=nan is not finite"),
        (["compare", "--r", "nan"], "r=nan is not finite"),
        (["compare", "--delta", "inf"], "delta=inf is not finite"),
        # the word after --config is the file's content
        (["sweep", "--grid", "0.3", "--config", "N = nan"], "photons=nan is not finite"),
        (["compare", "--config", "r = inf"], "r=inf is not finite"),
        # not a non-finite value, but refused in the same place, by name
        (["compare", "--ladder", "0,0.02"], "ladder value '0' must be positive"),
    ],
)
def test_cli_refuses_non_finite_values(tmp_path, capsys, argv, message):
    if "--config" in argv:
        cfg = tmp_path / "scenario.cfg"
        at = argv.index("--config") + 1
        cfg.write_text(argv[at] + "\n", encoding="utf-8")
        argv = argv[:at] + [str(cfg)] + argv[at + 1:]
    out = tmp_path / "out.csv"
    assert main(argv + ["--nmax", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


#: config keys that set what a verb's cavity flags set, and so cannot be read
#: with an imported channel either
CAVITY_ONLY_KEYS = [
    ("sweep", "n_max = 3"),
    ("sweep", "h = 0.07"),
    ("compare", "n_max = 3"),
    ("compare", "u = 0.7"),
    ("validate", "n_max = 3"),
    ("validate", "h = 0.07"),
]


@pytest.mark.parametrize("verb,line", CAVITY_ONLY_KEYS)
def test_cli_refuses_cavity_config_keys_with_imported_channel(tmp_path, capsys, verb, line):
    path = tmp_path / "channel.csv"
    path.write_text(series_to_csv(synthetic_unitary_series(6, np.random.default_rng(4))), encoding="utf-8")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    grid = ["--grid", "0.05"] if verb == "sweep" else []
    argv = [verb, "--channel", str(path), "--config", str(cfg), *grid, "--out", str(out)]
    assert main(argv) == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"error: config key {key} is not read with an imported --channel\n"
    assert not out.exists()
    # the same file is read without the channel
    cfg.write_text(f"{line}\nn_max = 6\n" if key != "n_max" else "n_max = 6\n", encoding="utf-8")
    argv = [verb, "--config", str(cfg), *grid, "--out", str(out)]
    assert main(argv) in (0, 1)
