"""Benchmark workloads: seeded operation inputs and output checks.

Each workload is a stream of CLI operations for ``gaussfisher.cli.main``.
Inputs are drawn from the workload seed alone, so one seed always gives the
same operations. The module is plain Python (no numpy), so the orchestrator
that imports it stays light.

Two input streams exist per workload:

* ``cold_op(seed, j)`` -- the first operation of process ``j``;
* ``round_ops(seed, r)`` -- round ``r`` of the warm phase. A round is one
  operation for the sweeps, and one cold/warm pair per ``N`` on the ladder
  for ``channel-build``, so every complete round carries the same mix.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

FAMILIES = (
    "single_squeezed_displaced",
    "two_product_squeezed_displaced",
    "two_mode_squeezed",
)
SWEEP_COLUMNS = (
    "u",
    "family",
    "r",
    "delta",
    "qfi_perturbative",
    "e2",
    "c2",
    "residual_perturbative",
    "qfi_oracle",
    "residual_oracle",
    "negativity",
    "truncation_residual",
)
#: rows of the CLI's default duration grid 0:1:0.01
DEFAULT_GRID_POINTS = 101

#: |qfi - 4 (e2 + c2)| allowed per unit of max(1, |qfi|)
SPLIT_TOL = 1e-12
#: oracle Richardson residual allowed per unit of max(1, |qfi_oracle|); ten
#: times the worst seen over 645 rows at n_max 60 (u in [0.02, 0.98], all
#: families, photons 0.5..2, x 0..1), which was 1.05e-4 (x = 0)
ORACLE_RESIDUAL_BOUND = 1e-3
#: deviation from the committed reference values, per unit of max(1, |ref|).
#: The perturbative tolerance admits the planned fit replacement (QFI moves
#: by at most 2.6e-8); the oracle tolerance admits replacing fidelity
#: differencing by an exact route (a few 1e-6 at h = 0.05).
REFERENCE_TOL = {"qfi_perturbative": 1e-6, "qfi_oracle": 1e-4}

SIZES = {
    "full": {"nmax": 60, "ladder": (10, 30, 60, 90, 120), "processes": 8},
    "tiny": {"nmax": 10, "ladder": (10, 12), "processes": 2},
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; paths are filled in per worker directory."""

    verb: str
    nmax: int
    cache: str | None = None
    grid: tuple | None = None
    photons: float = 1.0
    x: float = 1.0
    methods: str = "perturbative"
    compare_uncached: bool = False

    @property
    def kind(self) -> str:
        """Operations of one kind cost the same; medians are taken per kind."""
        return f"{self.verb}-n{self.nmax}"

    @property
    def n_rows(self) -> int:
        points = DEFAULT_GRID_POINTS if self.grid is None else len(self.grid)
        return points * len(FAMILIES)

    def argv(self, workdir: str, cached: bool = True, out_name: str = "sweep.csv") -> list:
        argv = [self.verb, "--nmax", str(self.nmax)]
        if self.cache is not None and cached:
            argv += ["--cache", os.path.join(workdir, self.cache)]
        if self.verb == "sweep":
            if self.grid is not None:
                argv += ["--grid", ",".join(repr(u) for u in self.grid)]
            argv += [
                "--photons", repr(self.photons),
                "--x", repr(self.x),
                "--methods", self.methods,
                "--out", os.path.join(workdir, out_name),
            ]
        return argv


def _rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def _energy(rng: random.Random) -> dict:
    return {"photons": round(rng.uniform(0.5, 2.0), 6), "x": round(rng.uniform(0.0, 1.0), 6)}


class SweepPert:
    name = "sweep-pert"
    why = (
        "the paper's QFI(u) figure: 101 u x 3 families at n_max 60, perturbative "
        "route only; covariance orders and the trace-form QFI dominate"
    )

    def __init__(self, size: str = "full"):
        self.params = {"nmax": SIZES[size]["nmax"], "grid": "0:1:0.01 (CLI default)"}

    def _op(self, rng) -> Op:
        return Op("sweep", self.params["nmax"], **_energy(rng))

    def cold_op(self, seed: int, j: int) -> Op:
        return self._op(_rng(self.name, seed, "cold", j))

    def round_ops(self, seed: int, r: int) -> list:
        return [self._op(_rng(self.name, seed, "round", r))]


class SweepOracle(SweepPert):
    name = "sweep-oracle"
    why = (
        "the exact-route column: 2 seeded u x 3 families through the fidelity "
        "oracle at n_max 60; expm and family evaluation dominate"
    )

    def __init__(self, size: str = "full"):
        self.params = {"nmax": SIZES[size]["nmax"], "u_points": 2, "u_range": (0.02, 0.98)}

    def _op(self, rng) -> Op:
        energy = _energy(rng)
        grid = tuple(sorted(round(rng.uniform(0.02, 0.98), 6) for _ in range(2)))
        return Op("sweep", self.params["nmax"], grid=grid, methods="oracle", **energy)


class ChannelBuild:
    name = "channel-build"
    why = (
        "overlap quadrature, series fit and cache write then read, alternating, "
        "over n_max 10..120; channel construction dominates"
    )

    def __init__(self, size: str = "full"):
        self.params = {"ladder": SIZES[size]["ladder"]}

    def _ladder(self, seed: int, r: int) -> list:
        ladder = list(self.params["ladder"])
        _rng(self.name, seed, "order", r).shuffle(ladder)
        return ladder

    def cold_op(self, seed: int, j: int) -> Op:
        # process j builds a different N, so every N has a cold sample
        ladder = self._ladder(seed, -1)
        return Op("overlaps", ladder[j % len(ladder)], cache=f"cold-{j}")

    def round_ops(self, seed: int, r: int) -> list:
        ops = []
        for n in self._ladder(seed, r):
            rng = _rng(self.name, seed, f"round-{r}", n)
            cache = f"r{r}-n{n}"
            u = round(rng.uniform(0.02, 0.98), 6)
            ops.append(Op("overlaps", n, cache=cache))
            ops.append(Op("sweep", n, cache=cache, grid=(u,), compare_uncached=(r == 0), **_energy(rng)))
        return ops


WORKLOADS = {cls.name: cls for cls in (SweepPert, SweepOracle, ChannelBuild)}


def get(name: str, size: str = "full"):
    return WORKLOADS[name](size)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _floats(row: dict, columns) -> list:
    out = []
    for col in columns:
        value = float(row[col])
        if not math.isfinite(value):
            raise ValueError(f"{col} not finite: {row[col]!r}")
        out.append(value)
    return out


def check_sweep_csv(op: Op, text: str) -> list:
    """Problems found in one sweep's CSV (empty when it is correct)."""
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != SWEEP_COLUMNS:
        return [f"header {reader.fieldnames!r}"]
    rows = list(reader)
    if len(rows) != op.n_rows:
        return [f"{len(rows)} rows, expected {op.n_rows}"]
    problems = []
    pert = op.methods == "perturbative"
    empty = ("qfi_oracle", "residual_oracle") if pert else ("qfi_perturbative", "e2", "c2", "residual_perturbative")
    for i, row in enumerate(rows):
        where = f"row {i + 1}"
        if row["family"] != FAMILIES[i % len(FAMILIES)]:
            problems.append(f"{where}: family {row['family']!r}")
        if op.grid is not None and float(row["u"]) != op.grid[i // len(FAMILIES)]:
            problems.append(f"{where}: u {row['u']!r}")
        if any(row[col] != "" for col in empty):
            problems.append(f"{where}: columns {empty} should be empty")
        try:
            _floats(row, ("u", "r", "delta", "negativity", "truncation_residual"))
            if pert:
                q, e2, c2, _ = _floats(row, ("qfi_perturbative", "e2", "c2", "residual_perturbative"))
                if abs(q - 4.0 * (e2 + c2)) > SPLIT_TOL * max(1.0, abs(q)):
                    problems.append(f"{where}: qfi {q!r} != 4 (e2 + c2)")
            else:
                q, res = _floats(row, ("qfi_oracle", "residual_oracle"))
                if res > ORACLE_RESIDUAL_BOUND * max(1.0, abs(q)):
                    problems.append(f"{where}: oracle residual {res!r} above bound")
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return problems


def qfi_column(op: Op, text: str) -> tuple:
    col = "qfi_perturbative" if op.methods == "perturbative" else "qfi_oracle"
    return col, [float(row[col]) for row in csv.DictReader(io.StringIO(text))]


def check_reference(op: Op, text: str, expected: list) -> list:
    col, values = qfi_column(op, text)
    tol = REFERENCE_TOL[col]
    if len(values) != len(expected):
        return [f"reference: {len(values)} values, expected {len(expected)}"]
    return [
        f"reference: {col} row {i + 1} = {v!r}, expected {ref!r}"
        for i, (v, ref) in enumerate(zip(values, expected))
        if abs(v - ref) > tol * max(1.0, abs(ref))
    ]


def check_overlaps(op: Op, stdout: str, workdir: str) -> list:
    if not stdout.strip():
        return ["overlaps printed nothing"]
    cache = os.path.join(workdir, op.cache)
    if not os.path.isdir(cache) or not os.listdir(cache):
        return ["overlaps left an empty cache"]
    return []
