"""Command-line front end.

Verbs:

* ``sweep``    -- QFI over a duration grid for the selected probe families
* ``compare``  -- perturbative vs oracle on an acceleration ladder
* ``validate`` -- checks of the scenario's channel, or of an imported one,
  with measured residuals (exit 1 on failure)
* ``overlaps`` -- precompute and cache the overlap series

Every verb takes ``--config``, ``--nmax`` and ``--cache``; beyond those it
registers only the flags it reads, from one table, so ``overlaps`` takes no
others. Scenario parameters come from ``key = value`` config files (keys in
``CONFIG_KEYS``) and/or flags; :func:`pick` resolves each value, and flags
win. Everything is dimensionless in ``(h, u)``, so no cavity length is asked
for.

Output is UTF-8 CSV with LF endings and full-precision floats; identical
inputs and BLAS thread count give byte-identical files.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bogoliubov import series_from_csv
from .cavity import (
    CavityScenario,
    QuadratureError,
    load_or_compute_overlap_series,
    series_cache_file,
)
from .sweeps import (
    FAMILIES,
    SweepSpec,
    compare_methods,
    comparison_to_csv,
    rows_to_csv,
    run_sweep,
    validate,
)

CONFIG_KEYS = {
    "h": float,
    "u": float,
    "u_grid": str,
    "k": int,
    "k_prime": int,
    "n_max": int,
    "r": float,
    "delta": float,
    "x": float,
    "N": float,
}


def read_config(path: str) -> dict:
    """Parse a ``key = value`` config file; ``#`` starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            values[key] = CONFIG_KEYS[key](value)
    return values


def parse_grid(text: str) -> tuple:
    """Grid syntax: ``start:stop:step`` (inclusive stop) or comma values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step or comma-separated")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        n = int(round((stop - start) / step))
        return tuple(np.round(start + step * np.arange(n + 1), 12))
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussfisher",
        description="Estimation precision (quantum Fisher information) for "
        "Gaussian states of a bosonic field under Bogoliubov channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each verb registers only the flags it reads, and refuses abbreviations:
    # otherwise a flag it lacks, such as ``--h``, would match ``--help``
    optional = {
        "--out": dict(help="output CSV path (default: stdout)"),
        "--h": dict(type=float, help="acceleration parameter h = aL/c^2"),
        "--modes": dict(help="probed modes as 'k,k_prime' (default 1,2)"),
        "--channel": dict(help="CSV file with an imported channel series"),
        "--state": dict(action="append", choices=FAMILIES, help="probe family (repeatable; default: all three)"),
        "--r": dict(type=float, help="squeezing parameter (sweep: instead of the energy budget; compare: default 1)"),
        "--delta": dict(type=float, help="displacement parameter (sweep: with --r; compare: default 0)"),
    }

    def add_common(p, *flags):
        p.add_argument("--config", help="key = value scenario file")
        p.add_argument("--nmax", type=int, help="mode-ladder truncation")
        p.add_argument("--cache", help="directory for the cached overlap series")
        for flag in flags:
            p.add_argument(flag, **optional[flag])

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="QFI over a duration grid")
    add_common(p_sweep, "--out", "--h", "--modes", "--channel", "--state", "--r", "--delta")
    p_sweep.add_argument("--grid", help="u grid 'start:stop:step' or comma list")
    p_sweep.add_argument("--x", type=float, help="squeezing fraction of the energy budget")
    p_sweep.add_argument("--photons", type=float, help="mean photon number per probe mode")
    p_sweep.add_argument("--methods", default="perturbative", help="comma list: perturbative,oracle")

    p_cmp = sub.add_parser("compare", allow_abbrev=False, help="perturbative vs oracle on an h ladder")
    add_common(p_cmp, "--out", "--modes", "--channel", "--state", "--r", "--delta")
    p_cmp.add_argument("--u", type=float, help="duration parameter (default from config/scenario)")
    p_cmp.add_argument("--ladder", default="0.02,0.04,0.08", help="comma list of h values")

    p_val = sub.add_parser("validate", allow_abbrev=False, help="check the channel's invariants")
    add_common(p_val, "--out", "--h", "--modes", "--channel")

    p_ov = sub.add_parser("overlaps", allow_abbrev=False, help="build the overlap-series cache")
    add_common(p_ov)
    return parser


def pick(args, config: dict, flag: str, key: str, default):
    """The value of ``--flag`` if given, else config ``key``, else ``default``."""
    value = getattr(args, flag, None)
    return config.get(key, default) if value is None else value


def scenario_from(args, config: dict) -> CavityScenario:
    modes = (config.get("k", 1), config.get("k_prime", 2))
    if getattr(args, "modes", None):
        parts = args.modes.split(",")
        if len(parts) != 2:
            raise ValueError("--modes expects 'k,k_prime'")
        modes = (int(parts[0]), int(parts[1]))
    return CavityScenario(
        h=pick(args, config, "h", "h", 0.05),
        u=pick(args, config, "u", "u", 0.3),
        k=modes[0],
        k_prime=modes[1],
        n_max=pick(args, config, "nmax", "n_max", 10),
    )


def emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def load_channel(args):
    if not getattr(args, "channel", None):
        return None
    with open(args.channel, encoding="utf-8") as fh:
        return series_from_csv(fh.read())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (QuadratureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Execute a parsed command; bad input raises, a failed check returns 1."""
    config = read_config(args.config) if args.config else {}
    scenario = scenario_from(args, config)
    channel = load_channel(args)

    if args.command == "sweep":
        spec_kwargs = dict(
            scenario=scenario,
            families=tuple(args.state or FAMILIES),
            photons=pick(args, config, "photons", "N", 1.0),
            x=pick(args, config, "x", "x", 1.0),
            r=pick(args, config, "r", "r", None),
            delta=pick(args, config, "delta", "delta", None),
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            channel=channel,
        )
        grid = pick(args, config, "grid", "u_grid", None)
        if grid is not None:
            spec_kwargs["grid"] = parse_grid(grid)
        rows = run_sweep(SweepSpec(**spec_kwargs), cache_dir=args.cache)
        emit(rows_to_csv(rows), args.out)
        return 0

    if args.command == "compare":
        ladder = tuple(float(tok) for tok in args.ladder.split(","))
        spec = SweepSpec(
            scenario=scenario,
            families=tuple(args.state or FAMILIES),
            r=pick(args, config, "r", "r", 1.0),
            delta=pick(args, config, "delta", "delta", 0.0),
            channel=channel,
        )
        report = compare_methods(spec, h_ladder=ladder, cache_dir=args.cache)
        emit(comparison_to_csv(report), args.out)
        for family, slope in report.slopes.items():
            print(f"slope {family}: {slope:.3f}", file=sys.stderr)
        return 0 if report.passed else 1

    if args.command == "validate":
        report = validate(scenario, channel=channel, cache_dir=args.cache)
        text = "\n".join(report.lines()) + "\n"
        emit(text, args.out)
        if args.out is not None:
            print(text, end="")
        return 0 if report.passed else 1

    # "overlaps", the only verb the parser leaves
    if args.cache is None:
        raise ValueError("overlaps requires --cache")
    ov = load_or_compute_overlap_series(scenario.n_max, args.cache)
    path = series_cache_file(args.cache, scenario.n_max)
    print(f"{path}: n_max={ov.n_max} fit residual {ov.fit_residual:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
