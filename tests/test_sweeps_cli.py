import numpy as np
import pytest

from gaussfisher.bogoliubov import series_to_csv, synthetic_unitary_series
from gaussfisher.cavity import CavityScenario
from gaussfisher.cli import main, parse_grid, read_config
from gaussfisher.sweeps import (
    SweepSpec,
    compare_methods,
    rows_to_csv,
    run_sweep,
    validate,
)


def small_scenario(**kwargs):
    defaults = dict(n_max=6, u=0.3, h=0.05)
    defaults.update(kwargs)
    return CavityScenario(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(grid=())
    with pytest.raises(ValueError):
        SweepSpec(families=("bogus",))
    with pytest.raises(ValueError):
        SweepSpec(methods=("guesswork",))
    with pytest.raises(ValueError):
        SweepSpec(x=1.5)
    spec = SweepSpec(scenario=small_scenario(), r=0.5, delta=0.2)
    with pytest.raises(ValueError):
        spec.params_for("two_mode_squeezed")


def test_run_sweep_rows_and_determinism(tmp_path):
    spec = SweepSpec(scenario=small_scenario(), grid=(0.2, 0.5), photons=1.0)
    rows = run_sweep(spec, cache_dir=str(tmp_path / "cache"))
    assert len(rows) == 2 * 3
    # rows ordered by grid point then family, all perturbative columns filled
    assert [r.grid_value for r in rows] == [0.2, 0.2, 0.2, 0.5, 0.5, 0.5]
    for row in rows:
        assert row.qfi_perturbative is not None
        assert row.qfi_oracle is None
        assert row.negativity >= 0.0
        assert np.isfinite(row.truncation_residual)
    csv_a = rows_to_csv(rows)
    csv_b = rows_to_csv(run_sweep(spec, cache_dir=str(tmp_path / "cache")))
    assert csv_a == csv_b  # byte identical given identical spec and cache


def test_run_sweep_oracle_columns(tmp_path):
    spec = SweepSpec(
        scenario=small_scenario(),
        grid=(0.3,),
        families=("two_mode_squeezed",),
        methods=("perturbative", "oracle"),
    )
    (row,) = run_sweep(spec, cache_dir=str(tmp_path / "cache"))
    assert row.qfi_oracle is not None and row.residual_oracle is not None
    assert abs(row.qfi_perturbative - row.qfi_oracle) / row.qfi_oracle < 0.05


def test_energy_budget_definition_identity(tmp_path):
    # the x = 0 budget column IS the directly parameterized (r=0, delta=sqrt(N))
    # family, by definition
    cache = str(tmp_path / "cache")
    by_budget = run_sweep(
        SweepSpec(
            scenario=small_scenario(),
            grid=(0.25, 0.5),
            families=("two_product_squeezed_displaced",),
            x=0.0,
            photons=1.0,
        ),
        cache_dir=cache,
    )
    direct = run_sweep(
        SweepSpec(
            scenario=small_scenario(),
            grid=(0.25, 0.5),
            families=("two_product_squeezed_displaced",),
            r=0.0,
            delta=1.0,
        ),
        cache_dir=cache,
    )
    for a, b in zip(by_budget, direct):
        assert a.qfi_perturbative == b.qfi_perturbative
        assert a.e2 == b.e2 and a.c2 == b.c2


def test_imported_channel_sweep():
    channel = synthetic_unitary_series(6, np.random.default_rng(3), strength=0.3)
    spec = SweepSpec(
        scenario=small_scenario(),
        grid=(0.02, 0.05),
        families=("two_mode_squeezed",),
        r=0.6,
        methods=("perturbative", "oracle"),
        channel=channel,
    )
    rows = run_sweep(spec)
    assert len(rows) == 2
    # grid values are channel-parameter evaluation points for the oracle
    assert rows[0].qfi_perturbative == rows[1].qfi_perturbative
    assert rows[0].qfi_oracle != rows[1].qfi_oracle


def test_compare_methods_report(tmp_path):
    spec = SweepSpec(scenario=small_scenario(n_max=10), grid=(0.3,), r=1.0, delta=0.0)
    report = compare_methods(spec, cache_dir=str(tmp_path / "cache"))
    assert set(report.slopes) == set(spec.families)
    assert report.passed(0.8)
    assert len(report.rows) == 3 * 3
    # deviation at the smallest rung stays within a few times h
    for row in report.rows:
        if row.h == 0.02:
            assert row.relative_deviation <= 10.0 * row.h


def test_compare_methods_identity_channel():
    from gaussfisher.bogoliubov import BogoliubovSeries

    n = 4
    zeros = np.zeros((n, n), dtype=complex)
    identity_channel = BogoliubovSeries(n, np.ones(n, dtype=complex), zeros, zeros, zeros, zeros)
    spec = SweepSpec(
        scenario=small_scenario(), grid=(0.3,), r=0.7, delta=0.0, channel=identity_channel
    )
    report = compare_methods(spec)
    for row in report.rows:
        assert row.qfi_perturbative == 0.0
        assert abs(row.qfi_oracle) <= 1e-12
    assert report.passed(0.8)


def test_validate_default_scenario(tmp_path):
    report = validate(small_scenario(n_max=8), cache_dir=str(tmp_path / "cache"))
    assert report.passed, "\n".join(report.lines())


def test_validate_flags_corrupted_channel():
    channel = synthetic_unitary_series(5, np.random.default_rng(8), strength=0.3)
    bogo = channel.evaluate(0.05)
    from gaussfisher.bogoliubov import BogoliubovMatrices

    corrupted = BogoliubovMatrices(5, bogo.alpha, 2.0 * bogo.beta)
    report = validate(channel=corrupted)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any("identity" in c.name for c in failing)


def test_config_parsing(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# cavity setup\nL = 1.0\nh = 0.08\nu = 0.4\nk = 1\nk_prime = 2\nn_max = 6\nN = 2.0\n",
        encoding="utf-8",
    )
    config = read_config(str(path))
    assert config["h"] == 0.08 and config["n_max"] == 6 and config["N"] == 2.0
    bad = tmp_path / "bad.cfg"
    bad.write_text("who_knows = 3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_config(str(bad))


def test_parse_grid():
    assert parse_grid("0:1:0.5") == (0.0, 0.5, 1.0)
    assert parse_grid("0.1,0.2") == (0.1, 0.2)
    with pytest.raises(ValueError):
        parse_grid("0:1:0:9")
    with pytest.raises(ValueError):
        parse_grid("0:1:-0.1")


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
    assert main(["validate", "--config", str(cfg2), "--h", "0.05",
                 "--cache", str(tmp_path / "cache")]) == 0


def test_cli_validate_and_exit_codes(tmp_path):
    code = main(["validate", "--nmax", "6", "--cache", str(tmp_path / "cache")])
    assert code == 0


def test_cli_validate_channels(tmp_path):
    from gaussfisher.bogoliubov import BogoliubovSeries

    channel = synthetic_unitary_series(5, np.random.default_rng(8), strength=0.3)
    good = tmp_path / "good.csv"
    good.write_text(series_to_csv(channel), encoding="utf-8")
    assert main(["validate", "--channel", str(good)]) == 0

    tampered = BogoliubovSeries(
        channel.n_max, channel.G, channel.alpha1, channel.alpha2,
        2.0 * channel.beta1, channel.beta2,
    )
    bad = tmp_path / "bad.csv"
    bad.write_text(series_to_csv(tampered), encoding="utf-8")
    assert main(["validate", "--channel", str(bad)]) == 1


def test_cli_compare(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--nmax", "10", "--u", "0.3", "--r", "1.0",
        "--state", "two_mode_squeezed",
        "--cache", str(tmp_path / "cache"), "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("family,h,qfi_perturbative")
    assert "slope:two_mode_squeezed" in text


def test_cli_overlaps_cache_builder(tmp_path, capsys):
    cache = tmp_path / "cache"
    code = main([
        "overlaps", "--nmax", "5", "--ladder", "0.01,0.02", "--cache", str(cache),
    ])
    assert code == 0
    assert len(list(cache.iterdir())) == 2
    out = capsys.readouterr().out
    assert "cached" in out
    assert main(["overlaps", "--nmax", "5"]) == 2  # cache dir required


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--nmax", "150", "--grid", "0.3"],
        ["overlaps", "--nmax", "150", "--cache", "{cache}"],
    ],
)
def test_cli_quadrature_failure_exits_2(tmp_path, capsys, argv):
    argv = [a.replace("{cache}", str(tmp_path / "cache")) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature did not converge")
    assert err.count("\n") == 1 and "Traceback" not in err
