"""Parameter sweeps, method comparisons, and the validation suite.

This is the engine behind the command-line front end: it turns a sweep
specification into rows of QFI values (one per grid point and probe family),
compares the perturbative and oracle routes on an acceleration ladder, and
checks a channel for the invariants it must satisfy.

The engines read a channel only through its provider's ``n_max``,
``orders``, ``oracle_points`` and ``checks``: :class:`CavityChannel` for the
moving cavity, whose grid holds durations, or :class:`ImportedChannel` for a
given series, whose grid holds values of its parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovSeries, identity_residual
from .cavity import CavityScenario, OverlapSeries, compose_one_segment
from .qfi import (
    FAMILIES,
    energy_matched_params,
    negativity_first_order,
    perturbative_rows,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)
from .states import quadrature_indices


@dataclass(frozen=True)
class CavityChannel:
    """The moving cavity's channel: the grid holds durations ``u``, and theta
    is the scenario's acceleration ``h``. ``overlaps`` is the overlap series
    at the scenario's ``n_max``, and sets the channel's."""

    scenario: CavityScenario
    overlaps: OverlapSeries

    @property
    def n_max(self) -> int:
        return self.overlaps.n_max

    def orders(self, grid=None, rows=None) -> BogoliubovSeries:
        """The series at the scenario's duration, or at each duration of
        ``grid`` as a stack, on the output ``rows`` (``None`` keeps all)."""
        return compose_one_segment(self.overlaps, self.scenario.u if grid is None else grid, rows)

    def oracle_points(self, grid, probes):
        """``(family, h)`` at each duration of ``grid``: the oracle's family
        of ``probes`` on the whole channel composed there."""
        for u in grid:
            yield probe_family(self.orders(u), probes), self.scenario.h

    def checks(self, modes) -> list[Check]:
        """First-order structure, the identity residual at ``h`` and its cubic
        scaling on the probed ``modes``, periodicity in ``u``, and the
        perturbative-vs-oracle slope."""
        series = self.orders()
        diagonal = max(np.max(np.abs(np.diag(series.alpha1))), np.max(np.abs(np.diag(series.beta1))))
        first, _ = series.unitarity_residuals(modes=modes)
        at_h = identity_residual(*series.evaluate(self.scenario.h), modes)
        # evaluated identity residual must shrink like h^3 on the probed modes
        hs = (0.02, 0.04, 0.08)
        res = [identity_residual(*series.evaluate(h), modes, modes) for h in hs]
        slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
        # periodicity in the duration parameter, from the same overlap series
        shifted = self.orders(self.scenario.u + 1.0)
        drift = max(np.max(np.abs(shifted.alpha1 - series.alpha1)),
                    np.max(np.abs(shifted.beta2 - series.beta2)))
        # dual-path agreement at the scenario point: the composed series is a
        # channel in theta = h on its own, so it is not composed again
        report = compare_methods(SweepSpec(modes=modes, r=1.0, delta=0.0), ImportedChannel(series))
        return [
            _check("composed series: diagonal first order", diagonal, 1e-8),
            _check("composed series: first-order identity (probed modes)", first, 1e-8),
            _check("symplectic residual at h (probed modes)", at_h, 1e-3),
            _check("evaluated identity residual: cubic scaling slope", slope, 2.7, larger_is_fine=True),
            _check("composed series: periodicity in u", drift, 1e-9),
            _check("dual-path deviation slope", min(report.slopes.values()), 0.8, larger_is_fine=True),
        ]


@dataclass(frozen=True)
class ImportedChannel:
    """A channel given by its series, such as one read from a file: the grid
    holds values of its parameter theta, and the series is the same at each."""

    series: BogoliubovSeries

    @property
    def n_max(self) -> int:
        return self.series.n_max

    def orders(self, grid=None, rows=None) -> BogoliubovSeries:
        """The one series, whatever the grid: its columns repeat down it."""
        return self.series

    def oracle_points(self, grid, probes):
        """``(family, theta)`` at each theta of ``grid``, with the oracle's
        family of ``probes`` built once."""
        family = probe_family(self.series, probes)
        for theta in grid:
            yield family, theta

    def checks(self, modes) -> list[Check]:
        """The identity residual on the probed ``modes``, the window a sweep
        reads: corrupt coefficients show there, the truncated ladder's edge does not."""
        return [_check("imported channel: identity residual", max(self.series.unitarity_residuals(modes)), 1e-6)]


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: probe families on two modes, a grid, and an energy rule.

    The probe parameters come either from the energy budget ``(x, photons)``
    (squeezing fraction ``x``, mean photon number per probe mode) or directly
    from ``(r, delta)`` when ``r`` is not None. A family without
    displacement takes none on either path, and a displacement that no
    requested family carries is refused. The grid holds what the channel is
    swept over: durations ``u`` for the cavity, values of theta for an
    imported series.
    """

    modes: tuple = (1, 2)
    families: tuple = tuple(FAMILIES)
    grid: tuple = tuple(np.round(np.arange(0.0, 1.0001, 0.01), 10))
    photons: float = 1.0
    x: float = 1.0
    r: float | None = None
    delta: float | None = None
    methods: tuple = ("perturbative",)

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
        displacement = self.x != 1.0 if self.r is None else bool(self.delta)
        if displacement and not any(FAMILIES[family][1] for family in self.families):
            raise ValueError("two-mode squeezed probes carry no displacement")

    def params_for(self, family: str) -> tuple[float, float]:
        _, displaced = FAMILIES[family]
        if self.r is not None:
            return self.r, 0.0 if self.delta is None or not displaced else self.delta
        return energy_matched_params(family, self.photons, *self.modes, self.x if displaced else 1.0)

    def probes(self) -> list[tuple]:
        """``(family, r, delta, state, modes)`` for each requested family; the
        probe state lives on the first ``state.n_modes`` of the spec's modes."""
        out = []
        for family in self.families:
            r, delta = self.params_for(family)
            state = probe_state(family, r, delta)
            out.append((family, r, delta, state, self.modes[: state.n_modes]))
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


def run_sweep(spec: SweepSpec, channel) -> list[SweepRow]:
    """Evaluate the requested methods on every grid point and family.

    The perturbative columns come from one pass over the whole grid: one
    ``channel.orders`` call gives the rows the kernel reads for the whole
    grid, and the kernel runs once per family on them. The cavity composes
    them as a stack over the grid; an imported series does not depend on
    the grid value, so its columns are evaluated once and repeat down the
    grid. The oracle reads the channel's family and theta at each grid
    point, and one oracle call there covers every family.

    Rows are ordered by grid index, then family order, regardless of how the
    work is executed; identical specs and channels give identical output.
    """
    k, k_prime = spec.modes
    quadrature_indices(spec.modes, channel.n_max)
    probes = spec.probes()
    grid = tuple(float(g) for g in spec.grid)
    # the rows the kernel reads for every probe, and k's row for the negativity
    read = {k}.union(*(perturbative_rows(modes, channel.n_max) for *_, modes in probes))
    stack = channel.orders(grid, sorted(read))

    def down_the_grid(values) -> list:
        # one value per grid point from a stack, or one value for all of them
        values = np.asarray(values)
        return values.tolist() if values.ndim else [values.item()] * len(grid)

    negativity = down_the_grid(negativity_first_order(stack, k, k_prime))
    perturbative = {}
    if "perturbative" in spec.methods:
        for family, _, _, state, modes in probes:
            result = qfi_perturbative(stack, modes, state)
            columns = (result.value, result.e2, result.c2, result.residual)
            perturbative[family] = list(zip(*map(down_the_grid, columns)))

    pairs = [(modes, state) for *_, state, modes in probes]
    points = channel.oracle_points(grid, pairs) if "oracle" in spec.methods else [None] * len(grid)
    rows = []
    for i, (g, point) in enumerate(zip(grid, points)):
        oracle = [(None, None)] * len(probes)
        if point is not None:
            family, theta = point
            results = qfi_oracle(family, theta, steps=(theta / 10.0, theta / 30.0, theta / 100.0))
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


def compare_methods(spec: SweepSpec, channel, h_ladder=(0.02, 0.04, 0.08)) -> ComparisonReport:
    """Perturbative vs oracle on an acceleration ladder, per family.

    The channel's series is ``channel.orders()``: the cavity's at its
    scenario's duration, or the imported series; the spec's grid and
    methods are not read. The perturbative value is the leading-order limit
    and does not depend on ``h``; the oracle is evaluated at each ``h`` on
    the ladder. The fitted log-log slope of the relative deviation measures
    the perturbative error order (linear for this channel).
    """
    if len(set(h_ladder)) < 2:
        raise ValueError("compare needs at least two distinct h values on the ladder")
    quadrature_indices(spec.modes, channel.n_max)
    series = channel.orders()
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


def _check(name: str, measured, bound: float, larger_is_fine: bool = False) -> Check:
    ok = measured >= bound if larger_is_fine else measured <= bound
    return Check(name, bool(ok), float(measured), float(bound))


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def validate(channel, modes=(1, 2)) -> ValidationReport:
    """Check the channel on the probed ``modes`` and report measured
    residuals: the checks are the provider's own ``checks(modes)``."""
    quadrature_indices(modes, channel.n_max)
    return ValidationReport(tuple(channel.checks(modes)))
