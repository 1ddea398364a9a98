"""Command-line front end.

Verbs:

* ``sweep``    -- QFI over a duration grid for the selected probe families
* ``compare``  -- perturbative vs oracle on an acceleration ladder
* ``validate`` -- checks of the cavity channel, or of an imported one,
  with measured residuals (exit 1 on failure)
* ``overlaps`` -- precompute and cache the fitted overlap series

Every verb takes ``--config`` and ``--nmax``, and beyond those only the
flags it reads: ``--cache`` only ``sweep``, whose oracle completes the
fitted overlap series, and ``overlaps``. Each value input is one row of
``INPUTS``: the keyword of :class:`CavityChannel` or :class:`SweepSpec`
that reads it, its config keys, type and help. A flag wins over its config
keys, and the class holds every default. :func:`channel_from` is the one
place that picks the channel provider: an imported ``--channel``, or the
:class:`CavityChannel` of ``--h``, ``--u``, ``--nmax`` and ``--cache``,
which builds its overlap series only when an engine first reads the
channel, after the engine's own refusals, and reads or writes the cache
only for the oracle. With an imported channel the ``CAVITY_FLAGS``, which
only shape the cavity channel, are refused with their config keys, and the
probed modes are checked by the provider. Everything is dimensionless in
``(h, u)``, so no cavity length is asked for.

The parser is built once per process, on the first :func:`main` call, and
each call parses with its own shallow copy of it: a caller that runs many
commands in one process pays for the 38 flag definitions once.

Output is UTF-8 CSV with LF endings and full-precision floats; identical
inputs give byte-identical files at a fixed BLAS build. The oracle runs on
one BLAS thread, so its columns, ``compare`` and ``validate`` do not depend
on the thread count; the fitted overlap series, which ``overlaps`` writes
and the ``sweep`` oracle completes, is built at the environment's count and
can differ in its last bits. Between calls a process keeps one value per
store, by the one rule of :func:`bogoliubov._keep`: the fitted series it
built last without ``--cache`` (at the BLAS threading of that build), and
the reduced channels :meth:`CavityChannel.reduced` built last, one per
probed mode set, so a later call with the same key builds nothing and
gives the same bytes.
``ELEMENT_BUDGET`` bounds what a verb composes.
"""

from __future__ import annotations

import argparse
import copy
import functools
import math
import sys

import numpy as np

from .bogoliubov import series_from_csv
from .cavity import QuadratureError, load_or_compute_overlap_series, series_cache_file
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

#: every value input by flag: the class and keyword that read it, config keys,
#: type and help; a flag of two keys takes them as one comma list
INPUTS = {
    "--h": (CavityChannel, "h", ("h",), float, "acceleration parameter h = aL/c^2"),
    "--u": (CavityChannel, "u", ("u",), float, "duration parameter (default from config/scenario)"),
    "--nmax": (CavityChannel, "n_max", ("n_max",), int, "mode-ladder truncation"),
    "--modes": (SweepSpec, "modes", ("k", "k_prime"), int, "probed modes as 'k,k_prime' (default %d,%d)" % SweepSpec.modes),
    "--grid": (SweepSpec, "grid", ("u_grid",), str, "u grid 'start:stop:step' or comma list"),
    "--photons": (SweepSpec, "photons", ("N",), float, "mean photon number per probe mode"),
    "--x": (SweepSpec, "x", ("x",), float, "squeezing fraction of the energy budget"),
    "--r": (SweepSpec, "r", ("r",), float, "squeezing parameter (sweep: instead of the energy budget; compare: default 1)"),
    "--delta": (SweepSpec, "delta", ("delta",), float, "displacement parameter (sweep: with --r; compare: default 0)"),
}
CONFIG_KEYS = {key: kind for _, _, keys, kind, _ in INPUTS.values() for key in keys}


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
            try:
                values[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: key {key!r}: {exc}") from None
    return values


#: each verb's help and the flags it reads besides ``--config`` and ``--nmax``
_VERBS = {
    "sweep": ("QFI over a duration grid",
              ("--out", "--cache", "--h", "--modes", "--channel", "--state", "--r", "--delta", "--grid", "--x",
               "--photons", "--methods")),
    "compare": ("perturbative vs oracle on an h ladder",
                ("--out", "--modes", "--channel", "--state", "--r", "--delta", "--u", "--ladder")),
    "validate": ("check the channel's invariants", ("--out", "--h", "--modes", "--channel")),
    "overlaps": ("build the fitted overlap-series cache", ("--cache",)),
}

#: flags that only shape the built-in cavity channel, per verb that also
#: takes ``--channel``: ``--nmax``, and of its own flags ``--cache`` and those
#: that :class:`CavityChannel` reads. An imported channel leaves them, and the
#: config keys of those in ``INPUTS``, unread
CAVITY_FLAGS = {
    verb: ("--nmax", *(flag for flag in flags
                       if flag == "--cache" or flag in INPUTS and INPUTS[flag][0] is CavityChannel))
    for verb, (_, flags) in _VERBS.items() if "--channel" in flags
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


#: most points a ``start:stop:step`` grid may have: those of the default
#: grid 0:1:0.01 at a thousandth of its step
GRID_MAX_POINTS = 100_001
#: most elements a verb may compose: grid points x n_max for ``sweep``, whose
#: default grid peaked at 284 MiB at n_max 16000 (1.6e6 elements, about 14 KiB
#: per unit of n_max on 101 points), and n_max^2 for ``compare`` and
#: ``validate``, whose whole channel takes about 64 n_max^2 bytes. Checked
#: before anything is composed; what a process keeps of a sweep, its reduced
#: channels, does not grow with n_max
ELEMENT_BUDGET = 2_000_000


def _within_budget(elements: int, what: str) -> None:
    """Refuse ``elements`` above :data:`ELEMENT_BUDGET`, naming ``what``
    they count."""
    if elements > ELEMENT_BUDGET:
        raise ValueError(f"{what} = {elements} elements, above the budget of {ELEMENT_BUDGET}")


def parse_grid(text: str) -> tuple:
    """Grid syntax: ``start:stop:step`` (inclusive stop) or comma values, all
    finite. A range of more than ``GRID_MAX_POINTS`` points is refused
    before any of them is made."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step or comma-separated")
        start, stop, step = (finite(p, "grid value") for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        if stop < start:
            raise ValueError(f"grid {text!r} stops below its start")
        # the last point stays at or below stop, up to roundoff in the step;
        # the quotient can overflow to inf, which the bound refuses too
        n = (stop - start) / step + 1e-9
        if n >= GRID_MAX_POINTS:
            raise ValueError(f"grid {text!r} has {np.floor(n) + 1:.6g} points, above the bound of {GRID_MAX_POINTS}")
        return tuple(np.round(start + step * np.arange(math.floor(n) + 1), 12))
    return tuple(finite(tok, "grid value") for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: a shallow copy of the one :func:`_parser`
    builds per process, so that setting an attribute on it, such as a
    wrapped ``parse_args``, leaves the next call's parser as it was."""
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Every verb's subparser and flags, built on the first call (not at
    import) and shared by every later one; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="gaussfisher",
        description="Estimation precision (quantum Fisher information) for "
        "Gaussian states of a bosonic field under Bogoliubov channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--config": dict(help="key = value scenario file"),
        "--cache": dict(help="directory for the cached fitted overlap series"),
        "--out": dict(help="output CSV path (default: stdout)"),
        "--channel": dict(help="CSV file with an imported channel series"),
        "--state": dict(action="append", choices=FAMILIES, help="probe family (repeatable; default: all three)"),
        "--methods": dict(help="comma list: perturbative,oracle"),
        "--ladder": dict(help="comma list of h values (default: compare_methods')"),
    }
    for flag, (_, _, keys, kind, text) in INPUTS.items():
        options[flag] = dict(type=kind if len(keys) == 1 else str, help=text)
    # each verb registers only the flags it reads, and refuses abbreviations:
    # otherwise a flag it lacks, such as ``--h``, would match ``--help``
    for verb, (text, flags) in _VERBS.items():
        p = sub.add_parser(verb, allow_abbrev=False, help=text)
        for flag in ("--config", "--nmax") + flags:
            p.add_argument(flag, **options[flag])
    return parser


def given(args, config: dict, cls) -> dict:
    """The keywords of ``cls`` that a flag or its config keys gave, the flag
    first. A verb reads the config keys of the probe flags it takes, and all
    of the cavity channel's, which it builds whole."""
    values = {}
    for flag, (owner, keyword, keys, kind, _) in INPUTS.items():
        if owner is not cls or not (hasattr(args, flag[2:]) or owner is CavityChannel):
            continue
        value = getattr(args, flag[2:], None)
        if value is not None and len(keys) > 1:
            parts = value.split(",")
            if len(parts) != len(keys):
                raise ValueError(f"{flag} expects '{','.join(keys)}'")
            value = tuple(kind(part) for part in parts)
        elif value is None and any(key in config for key in keys):
            # a key left out keeps its element of the default
            value = config[keys[0]] if len(keys) == 1 else tuple(
                config.get(key, default) for key, default in zip(keys, getattr(cls, keyword)))
        if value is not None:
            values[keyword] = value
    return values


def channel_from(args, config: dict):
    """``(probe, channel)``: the :class:`SweepSpec` keywords that a flag or
    config key gave, and the channel provider.

    Every refusal of the channel's input comes here: ``CAVITY_FLAGS`` and
    their config keys with an imported ``--channel``, the file, the cavity's
    ``h``, ``u`` and ``n_max``, and the modes by the provider's
    ``check_modes`` (not for ``overlaps``, which probes none). Nothing here
    reads or writes the cache: a :class:`CavityChannel` does that when the
    oracle or ``overlaps`` first reads its fitted series, after the
    engine's own refusals.
    """
    imported = None
    if getattr(args, "channel", None) is not None:
        unread = CAVITY_FLAGS[args.command]
        for flag in unread:
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"{flag} is not read with an imported --channel")
        for key in (key for flag in unread if flag in INPUTS for key in INPUTS[flag][2]):
            if key in config:
                raise ValueError(f"config key {key} is not read with an imported --channel")
        with open(args.channel, encoding="utf-8") as fh:
            imported = ImportedChannel(series_from_csv(fh.read()))
    probe = given(args, config, SweepSpec)
    modes = probe.get("modes", SweepSpec.modes)
    # checked with an imported channel too, so a config h or u it reads no more stays valid
    cavity = CavityChannel(**given(args, config, CavityChannel), cache=getattr(args, "cache", None))
    channel = cavity if imported is None else imported
    if args.command != "overlaps":  # the one verb that probes no modes
        channel.check_modes(modes)
    return probe, channel


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
    except (QuadratureError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Execute a parsed command; bad input raises, a failed check returns 1."""
    config = read_config(args.config) if args.config else {}
    probe, channel = channel_from(args, config)
    if getattr(args, "state", None):
        probe["families"] = tuple(args.state)

    if args.command == "sweep":
        # r chooses (r, delta) over the energy budget; refuse the flags left unread
        for flag in ("--photons", "--x") if "r" in probe else ("--delta",):
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"{flag} is not read {'when' if 'r' in probe else 'unless'} r is given")
        if "grid" in probe:
            probe["grid"] = parse_grid(probe["grid"])
        if args.methods is not None:
            probe["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        spec = SweepSpec(**probe)
        _within_budget(len(spec.grid) * channel.n_max, f"grid points x n_max = {len(spec.grid)} x {channel.n_max}")
        emit(rows_to_csv(run_sweep(spec, channel)), args.out)
        return 0

    if args.command in ("compare", "validate"):
        _within_budget(channel.n_max**2, f"n_max x n_max = {channel.n_max} x {channel.n_max}")

    if args.command == "compare":
        ladder = {} if args.ladder is None else {
            "h_ladder": tuple(finite(tok, "ladder value", positive=True) for tok in args.ladder.split(","))}
        spec = SweepSpec(**{"r": 1.0, "delta": 0.0, **probe})
        report = compare_methods(spec, channel, **ladder)
        emit(comparison_to_csv(report), args.out)
        for family, slope in report.slopes.items():
            print(f"slope {family}: {slope:.3f}", file=sys.stderr)
        return 0 if report.passed else 1

    if args.command == "validate":
        report = validate(channel, probe.get("modes", SweepSpec.modes))
        text = "\n".join(report.lines()) + "\n"
        emit(text, args.out)
        if args.out is not None:
            print(text, end="")
        return 0 if report.passed else 1

    # "overlaps", the only verb the parser leaves, and always a cavity
    if args.cache is None:
        raise ValueError("overlaps requires --cache")
    ov = load_or_compute_overlap_series(channel.n_max, args.cache)
    path = series_cache_file(args.cache, ov.n_max)
    print(f"{path}: n_max={ov.n_max} fit residual {ov.fit_residual:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
