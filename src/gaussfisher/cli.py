"""Command-line front end.

Verbs:

* ``sweep``    -- QFI over a duration grid for the selected probe families
* ``compare``  -- perturbative vs oracle on an acceleration ladder
* ``validate`` -- checks of the scenario's channel, or of an imported one,
  with measured residuals (exit 1 on failure)
* ``overlaps`` -- precompute and cache the overlap series

Every verb takes ``--config``, ``--nmax`` and ``--cache``; beyond those it
registers only the flags it reads, from one table, so ``overlaps`` takes no
others. :func:`channel_from` is the one place that picks the channel
provider: an imported ``--channel``, or the cavity scenario's channel. With
an imported channel the flags in ``CAVITY_FLAGS``, which only shape the
built-in cavity channel, are refused, as are the config keys in
``CAVITY_KEYS`` that set the same values, and the probed modes are checked
against the channel's own ``n_max``. Scenario parameters come from
``key = value`` config files (keys in ``CONFIG_KEYS``) and/or flags;
:func:`pick` resolves each value, and flags win. Everything is
dimensionless in ``(h, u)``, so no cavity length is asked for.

Output is UTF-8 CSV with LF endings and full-precision floats; identical
inputs and BLAS thread count give byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bogoliubov import series_from_csv
from .cavity import (
    CavityScenario,
    QuadratureError,
    load_or_compute_overlap_series,
    series_cache_file,
)
from .states import quadrature_indices
from .sweeps import (
    FAMILIES,
    CavityChannel,
    ImportedChannel,
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


#: flags that only shape the built-in cavity channel, per verb that also
#: takes ``--channel``; an imported channel leaves them unread (``validate``
#: checks only its identity residual, on no probed modes)
CAVITY_FLAGS = {
    "sweep": ("--nmax", "--cache", "--h"),
    "compare": ("--nmax", "--cache", "--u"),
    "validate": ("--nmax", "--cache", "--h", "--modes"),
}


#: config keys that set what ``CAVITY_FLAGS`` set, refused the same way
CAVITY_KEYS = {
    "sweep": ("n_max", "h"),
    "compare": ("n_max", "u"),
    "validate": ("n_max", "h"),
}


def finite(text: str, what: str, positive: bool = False) -> float:
    """``float(text)``, refusing NaN and infinities, and with ``positive``
    every value not above zero, by name."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} {text.strip()!r} is not finite")
    if positive and value <= 0.0:
        raise ValueError(f"{what} {text.strip()!r} must be positive")
    return value


def parse_grid(text: str) -> tuple:
    """Grid syntax: ``start:stop:step`` (inclusive stop) or comma values, all
    finite."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step or comma-separated")
        start, stop, step = (finite(p, "grid value") for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        n = int(round((stop - start) / step))
        return tuple(np.round(start + step * np.arange(n + 1), 12))
    return tuple(finite(tok, "grid value") for tok in text.split(",") if tok.strip())


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


def channel_from(args, config: dict):
    """``(modes, build)``: the probed modes, and a callable that builds the
    channel provider the verb reads.

    Every refusal comes first: ``CAVITY_FLAGS`` and ``CAVITY_KEYS`` with an
    imported ``--channel``, the file itself, the scenario, and the modes
    against the channel's ``n_max`` for every verb but ``overlaps``, which
    probes none. Only ``build`` reads or writes the overlap-series cache, so
    a verb calls it once its own input is checked.
    """
    imported = None
    if getattr(args, "channel", None):
        for flag in CAVITY_FLAGS[args.command]:
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"{flag} is not read with an imported --channel")
        for key in CAVITY_KEYS[args.command]:
            if key in config:
                raise ValueError(f"config key {key} is not read with an imported --channel")
        with open(args.channel, encoding="utf-8") as fh:
            imported = ImportedChannel(series_from_csv(fh.read()))
    modes = (config.get("k", 1), config.get("k_prime", 2))
    if getattr(args, "modes", None):
        parts = args.modes.split(",")
        if len(parts) != 2:
            raise ValueError("--modes expects 'k,k_prime'")
        modes = (int(parts[0]), int(parts[1]))
    # checked with an imported channel too, so a config h or u it reads no more stays valid
    scenario = CavityScenario(
        h=pick(args, config, "h", "h", 0.05),
        u=pick(args, config, "u", "u", 0.3),
        n_max=pick(args, config, "nmax", "n_max", 10),
    )
    if imported is not None:
        quadrature_indices(modes, imported.n_max)
        return modes, lambda: imported
    if args.command != "overlaps":  # the one verb that probes no modes
        quadrature_indices(modes, scenario.n_max)
    return modes, lambda: CavityChannel(scenario, load_or_compute_overlap_series(scenario.n_max, args.cache))


def emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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
    modes, channel = channel_from(args, config)

    if args.command == "sweep":
        spec_kwargs = dict(
            modes=modes,
            families=tuple(args.state or FAMILIES),
            photons=pick(args, config, "photons", "N", 1.0),
            x=pick(args, config, "x", "x", 1.0),
            r=pick(args, config, "r", "r", None),
            delta=pick(args, config, "delta", "delta", None),
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        )
        grid = pick(args, config, "grid", "u_grid", None)
        if grid is not None:
            spec_kwargs["grid"] = parse_grid(grid)
        spec = SweepSpec(**spec_kwargs)
        spec.probes()  # refuses a probe it cannot build before any overlap is read
        emit(rows_to_csv(run_sweep(spec, channel())), args.out)
        return 0

    if args.command == "compare":
        ladder = tuple(finite(tok, "ladder value", positive=True) for tok in args.ladder.split(","))
        spec = SweepSpec(
            modes=modes,
            families=tuple(args.state or FAMILIES),
            r=pick(args, config, "r", "r", 1.0),
            delta=pick(args, config, "delta", "delta", 0.0),
        )
        if len(set(ladder)) < 2:  # as compare_methods does, but before any overlap is read
            raise ValueError("compare needs at least two distinct h values on the ladder")
        spec.probes()  # likewise
        report = compare_methods(spec, channel(), h_ladder=ladder)
        emit(comparison_to_csv(report), args.out)
        for family, slope in report.slopes.items():
            print(f"slope {family}: {slope:.3f}", file=sys.stderr)
        return 0 if report.passed else 1

    if args.command == "validate":
        report = validate(channel(), modes)
        text = "\n".join(report.lines()) + "\n"
        emit(text, args.out)
        if args.out is not None:
            print(text, end="")
        return 0 if report.passed else 1

    # "overlaps", the only verb the parser leaves, and always a cavity
    if args.cache is None:
        raise ValueError("overlaps requires --cache")
    ov = channel().overlaps
    path = series_cache_file(args.cache, ov.n_max)
    print(f"{path}: n_max={ov.n_max} fit residual {ov.fit_residual:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
