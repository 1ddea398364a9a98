"""Parameter sweeps, method comparisons, and the validation suite.

This is the engine behind the command-line front end: it turns a sweep
specification into rows of QFI values (one per grid point and probe family),
compares the perturbative and oracle routes on an acceleration ladder, and
checks the channel of a scenario, or an imported one, for the invariants it
must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import BogoliubovSeries, identity_residual
from .cavity import (
    CavityScenario,
    cavity_series,
    compose_one_segment,
    load_or_compute_overlap_series,
)
from .qfi import (
    energy_matched_params,
    negativity_first_order,
    perturbative_rows,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)

FAMILIES = (
    "single_squeezed_displaced",
    "two_product_squeezed_displaced",
    "two_mode_squeezed",
)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: a scenario, probe families, a grid, and an energy rule.

    The probe parameters come either from the energy budget ``(x, photons)``
    (squeezing fraction ``x``, mean photon number per probe mode) or directly
    from ``(r, delta)`` when ``r`` is not None. The grid holds duration
    values ``u`` for a cavity scenario, or channel-parameter values ``theta``
    when an imported series is swept.
    """

    scenario: CavityScenario = field(default_factory=CavityScenario)
    families: tuple = FAMILIES
    grid: tuple = tuple(np.round(np.arange(0.0, 1.0001, 0.01), 10))
    photons: float = 1.0
    x: float = 1.0
    r: float | None = None
    delta: float | None = None
    methods: tuple = ("perturbative",)
    channel: BogoliubovSeries | None = None

    def __post_init__(self):
        if not self.grid:
            raise ValueError("sweep grid must not be empty")
        if not self.families:
            raise ValueError("at least one state family must be requested")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown state family {fam!r}")
        for method in self.methods:
            if method not in ("perturbative", "oracle"):
                raise ValueError(f"unknown method {method!r}")
        if not self.methods:
            raise ValueError("at least one method must be requested")
        for name in ("photons", "r", "delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}={value!r} is not finite")
        if self.r is None and not 0.0 <= self.x <= 1.0:
            raise ValueError("x must lie in [0, 1]")

    def params_for(self, family: str) -> tuple[float, float]:
        if self.r is not None:
            return self.r, 0.0 if self.delta is None else self.delta
        x = 1.0 if family == "two_mode_squeezed" else self.x
        return energy_matched_params(
            family, self.photons, self.scenario.k, self.scenario.k_prime, x
        )

    def probes(self) -> list[tuple]:
        """``(family, r, delta, state, modes)`` for each requested family.

        The probe state lives on the first ``state.n_modes`` of the
        scenario's modes ``(k, k_prime)``.
        """
        out = []
        for family in self.families:
            r, delta = self.params_for(family)
            state = probe_state(family, r, delta)
            modes = (self.scenario.k, self.scenario.k_prime)[: state.n_modes]
            out.append((family, r, delta, state, modes))
        return out


@dataclass(frozen=True)
class SweepRow:
    """One grid point for one probe family; the fields are in ``SWEEP_COLUMNS`` order."""

    grid_value: float
    family: str
    r: float
    delta: float
    qfi_perturbative: float | None
    e2: float | None
    c2: float | None
    residual_perturbative: float | None
    qfi_oracle: float | None
    residual_oracle: float | None
    negativity: float
    truncation_residual: float


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


def run_sweep(spec: SweepSpec, cache_dir: str | None = None) -> list[SweepRow]:
    """Evaluate the requested methods on every grid point and family.

    The perturbative columns come from one pass over the whole grid: the
    cavity is composed once, on the rows the kernel reads, as a stack over
    the grid, and the kernel runs once per family on that stack. An imported
    channel does not depend on the grid value, so its perturbative columns
    are evaluated once per family and repeat down the grid. The oracle needs
    the whole channel at each grid point, and one oracle call there covers
    every family.

    Rows are ordered by grid index, then family order, regardless of how the
    work is executed; identical specs (and cache content) give identical
    output.
    """
    sc = spec.scenario
    probes = spec.probes()
    grid = tuple(float(g) for g in spec.grid)
    if spec.channel is not None:
        stack = spec.channel
    else:
        overlaps = load_or_compute_overlap_series(sc.n_max, cache_dir)
        # the rows the kernel reads for every probe, and k's row for the negativity
        read = {sc.k}.union(*(perturbative_rows(modes, sc.n_max) for *_, modes in probes))
        stack = compose_one_segment(overlaps, grid, sorted(read))

    def down_the_grid(values) -> list:
        # one value per grid point from a stack, or one value for all of them
        values = np.asarray(values)
        return values.tolist() if values.ndim else [values.item()] * len(grid)

    negativity = down_the_grid(negativity_first_order(stack, sc.k, sc.k_prime))
    perturbative = {}
    if "perturbative" in spec.methods:
        for family, _, _, state, modes in probes:
            result = qfi_perturbative(stack, modes, state)
            columns = (result.value, result.e2, result.c2, result.residual)
            perturbative[family] = list(zip(*map(down_the_grid, columns)))

    pairs = [(modes, state) for *_, state, modes in probes]
    if "oracle" in spec.methods and spec.channel is not None:
        # an imported series, and so its family, is the same down the grid
        states_at = probe_family(spec.channel, pairs)
    rows = []
    for i, g in enumerate(grid):
        oracle = [(None, None)] * len(probes)
        if "oracle" in spec.methods:
            theta = g
            if spec.channel is None:
                states_at, theta = probe_family(compose_one_segment(overlaps, g), pairs), sc.h
            results = qfi_oracle(states_at, theta, steps=(theta / 10.0, theta / 30.0, theta / 100.0))
            oracle = [(res.value, res.residual) for res in results]
        for (family, r, delta, _, _), (orc, res_o) in zip(probes, oracle):
            pert = e2 = c2 = res_p = None
            trunc = np.nan
            if family in perturbative:
                pert, e2, c2, res_p = perturbative[family][i]
                trunc = res_p
            if res_o is not None and np.isnan(trunc):
                trunc = res_o
            rows.append(
                SweepRow(g, family, r, delta, pert, e2, c2, res_p, orc, res_o, negativity[i], trunc)
            )
    return rows


def rows_to_csv(rows) -> str:
    """Render sweep rows as CSV: full-precision floats, LF endings."""
    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return repr(float(v))

    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(fmt(v) for v in vars(row).values()) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComparisonRow:
    family: str
    h: float
    qfi_perturbative: float
    qfi_oracle: float
    relative_deviation: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple
    slopes: dict

    @property
    def passed(self) -> bool:
        return all(s >= 0.8 for s in self.slopes.values())


def compare_methods(
    spec: SweepSpec,
    h_ladder=(0.02, 0.04, 0.08),
    cache_dir: str | None = None,
) -> ComparisonReport:
    """Perturbative vs oracle on an acceleration ladder, per family.

    The channel is the imported ``spec.channel`` or the scenario's at its
    duration ``spec.scenario.u``; the spec's grid and methods are not read.
    The perturbative value is the leading-order limit and does not depend on
    ``h``; the oracle is evaluated at each ``h`` on the ladder. The fitted
    log-log slope of the relative deviation measures the perturbative error
    order (linear for this channel).
    """
    if len(set(h_ladder)) < 2:
        raise ValueError("compare needs at least two distinct h values on the ladder")
    series = spec.channel if spec.channel is not None else cavity_series(spec.scenario, cache_dir)
    probes = spec.probes()
    perts = [qfi_perturbative(series, modes, state).value for *_, state, modes in probes]
    states_at = probe_family(series, [(modes, state) for *_, state, modes in probes])
    # one oracle call per rung, read by every family
    rungs = [qfi_oracle(states_at, float(h), steps=(h / 5.0, h / 15.0, h / 45.0)) for h in h_ladder]
    rows, slopes = [], {}
    for (family, *_), pert, results in zip(probes, perts, zip(*rungs)):
        devs = []
        for h, result in zip(h_ladder, results):
            orc = result.value
            devs.append(abs(pert - orc) / abs(orc) if orc != 0.0 else abs(pert - orc))
            rows.append(ComparisonRow(family, float(h), pert, orc, devs[-1]))
        if max(devs) < 1e-13:
            # both routes vanish identically (trivial channel): nothing left
            # to fit, the agreement is exact
            slopes[family] = float("inf")
        else:
            slopes[family] = float(np.polyfit(np.log(h_ladder), np.log(devs), 1)[0])
    return ComparisonReport(tuple(rows), slopes)


def comparison_to_csv(report: ComparisonReport) -> str:
    lines = ["family,h,qfi_perturbative,qfi_oracle,relative_deviation"]
    for row in report.rows:
        lines.append(
            f"{row.family},{float(row.h)!r},{float(row.qfi_perturbative)!r},"
            f"{float(row.qfi_oracle)!r},{float(row.relative_deviation)!r}"
        )
    for family, slope in report.slopes.items():
        lines.append(f"slope:{family},,,,{slope!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    bound: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}: measured {self.measured:.3e} vs bound {self.bound:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def validate(
    scenario: CavityScenario | None = None,
    channel: BogoliubovSeries | None = None,
    cache_dir: str | None = None,
) -> ValidationReport:
    """Check the channel and report measured residuals.

    With an imported ``channel`` its identity residual is checked (this is
    how corrupt coefficient files are caught); otherwise the scenario's
    cavity channel is built and checked: first-order structure, the identity
    residual at ``h`` and its cubic scaling, periodicity in ``u``, and the
    perturbative-vs-oracle slope.
    """
    checks = []

    def add(name, measured, bound, larger_is_fine=False):
        ok = measured >= bound if larger_is_fine else measured <= bound
        checks.append(Check(name, bool(ok), float(measured), float(bound)))

    if channel is not None:
        add("imported channel: identity residual", max(channel.unitarity_residuals()), 1e-6)
        return ValidationReport(tuple(checks))

    scenario = scenario or CavityScenario()
    # one overlap series serves the scenario's channel and its copy one period later
    overlaps = load_or_compute_overlap_series(scenario.n_max, cache_dir)
    series = compose_one_segment(overlaps, scenario.u)
    probes = (scenario.k, scenario.k_prime)

    add(
        "composed series: diagonal first order",
        max(np.max(np.abs(np.diag(series.alpha1))), np.max(np.abs(np.diag(series.beta1)))),
        1e-8,
    )
    first, _ = series.unitarity_residuals(modes=probes)
    add("composed series: first-order identity (probed modes)", first, 1e-8)

    add(
        "symplectic residual at h (probed modes)",
        identity_residual(*series.evaluate(scenario.h), probes),
        1e-3,
    )

    # evaluated identity residual must shrink like h^3 on the probed modes
    hs = (0.02, 0.04, 0.08)
    res = [identity_residual(*series.evaluate(h), probes, probes) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    add("evaluated identity residual: cubic scaling slope", slope, 2.7, larger_is_fine=True)

    # periodicity in the duration parameter
    shifted = compose_one_segment(overlaps, scenario.u + 1.0)
    drift = max(
        np.max(np.abs(shifted.alpha1 - series.alpha1)),
        np.max(np.abs(shifted.beta2 - series.beta2)),
    )
    add("composed series: periodicity in u", drift, 1e-9)

    # dual-path agreement at the scenario point
    report = compare_methods(SweepSpec(scenario=scenario, r=1.0, delta=0.0, channel=series))
    add("dual-path deviation slope", min(report.slopes.values()), 0.8, larger_is_fine=True)
    return ValidationReport(tuple(checks))
