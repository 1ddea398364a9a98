"""Parameter sweeps, method comparisons, and the validation suite.

This is the engine behind the command-line front end: it turns a sweep
specification into rows of QFI values (one per grid point and probe family),
compares the perturbative and oracle routes on an acceleration ladder, and
checks a channel for the invariants it must satisfy.

The engines read a channel only through its provider's ``n_max``,
``check_modes``, ``orders``, ``reduced``, ``oracle_points`` and ``checks``:
:class:`CavityChannel` for the moving cavity, whose grid holds durations,
or :class:`ImportedChannel` for a given series, whose grid holds values of
its parameter. ``orders`` gives one whole channel, and ``reduced`` what
each probed mode set reads of the channel at every grid point; the
perturbative kernel takes ``(reduced channel, state)`` pairs of those.
"""

from __future__ import annotations

import itertools
import math
import types
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bogoliubov import BogoliubovSeries, _keep, _reduce, identity_residual
from .cavity import compose_one_segment, load_or_compute_overlap_series, taylor_overlaps
from .qfi import (
    FAMILIES,
    energy_matched_params,
    negativity_first_order,
    probe_family,
    probe_state,
    qfi_oracle,
    qfi_perturbative,
)
from .states import quadrature_indices


#: the reduced channels :meth:`CavityChannel.reduced` built last in this
#: process, by their key: one mapping at most, of ``4 (2m)^2`` reals per grid
#: point and mode set, whatever ``n_max``
_composed = {}


@dataclass(frozen=True)
class CavityChannel:
    """The moving cavity's channel: the grid holds durations ``u``, and theta
    is the acceleration ``h``.

    ``h`` is the dimensionless proper acceleration at the cavity center
    (natural units, ``h = a L / c^2``), ``u`` the dimensionless duration of
    the accelerated segment, and ``n_max`` the mode-ladder truncation; one
    unit of ``u`` is a full phase revolution of every mode, so everything
    downstream is periodic in ``u``.

    ``orders`` and ``reduced`` compose the exact overlap coefficients of
    :func:`taylor_overlaps`, so the perturbative columns, ``compare`` and
    ``validate`` read no quadrature and no fit, and a sweep no
    ``n_max x n_max`` matrix. ``oracle_points`` composes the fitted series,
    which it reads once per call by :func:`load_or_compute_overlap_series`,
    from ``cache`` or, without one, as the process keeps it.
    """

    h: float = 0.05
    u: float = 0.3
    n_max: int = 10
    cache: str | None = None

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max={self.n_max!r} must be an integer >= 1")
        if not 0.0 < self.h < 2.0:
            raise ValueError(
                f"h={self.h!r} out of range (0, 2): the left wall must stay "
                "outside the acceleration horizon"
            )
        if not math.isfinite(self.u):
            raise ValueError(f"duration parameter u={self.u!r} is not finite")
        if self.u < 0.0:
            raise ValueError("duration parameter u must be non-negative")

    def check_modes(self, modes) -> None:
        """Refuse probed ``modes`` outside ``1..n_max`` or repeated, and any
        mode above ``n_max/2``: a probe there has its spectator sums cut at
        the ladder's edge, where the QFI can come out negative."""
        quadrature_indices(modes, self.n_max)
        edge = max(modes)
        if 2 * edge > self.n_max:
            raise ValueError(
                f"mode {edge} lies above n_max/2 = {self.n_max / 2:g}, at the edge of the "
                f"mode ladder; probing it needs --nmax {2 * edge} or more"
            )

    def orders(self) -> BogoliubovSeries:
        """The whole series at the channel's duration."""
        return compose_one_segment(taylor_overlaps(self.n_max), self.u)

    def reduced(self, grid, mode_sets):
        """``{modes: ReducedChannel}`` for each mode tuple of ``mode_sets``,
        stacked over the durations of ``grid``: the union of their rows
        composed once, on those rows alone, and each set reduced from that
        stack, which is then dropped. The process keeps the mapping it built
        last, keyed on ``n_max``, the grid's bits and the mode sets, by
        :func:`bogoliubov._keep`, so a sweep that repeats a channel at other
        probes builds nothing."""
        u = np.asarray(grid, dtype=float)
        mode_sets = tuple(map(tuple, mode_sets))

        def build():
            rows = tuple(sorted(set().union(*mode_sets)))
            composed = compose_one_segment(taylor_overlaps(self.n_max, rows), u)
            return types.MappingProxyType({modes: _reduce(*composed, modes, rows) for modes in mode_sets})

        # the grid by its bits: -0.0 == 0.0 with equal hashes, yet they print apart
        return _keep(_composed, (self.n_max, u.shape, u.tobytes(), mode_sets), build)

    def oracle_points(self, grid, probes):
        """``(family, h)`` at each duration of ``grid``: the oracle's family
        of ``probes`` on the whole channel composed there from the fitted series."""
        overlaps = load_or_compute_overlap_series(self.n_max, self.cache)
        for u in grid:
            yield probe_family(compose_one_segment(overlaps, u), probes), self.h

    def checks(self, modes) -> list[Check]:
        """First-order structure, the identity residual at ``h`` and its cubic
        scaling on the probed ``modes``, periodicity in ``u``, and the
        perturbative-vs-oracle slope."""
        overlaps = taylor_overlaps(self.n_max)
        series = compose_one_segment(overlaps, self.u)
        diagonal = max(np.max(np.abs(np.diag(series.alpha1))), np.max(np.abs(np.diag(series.beta1))))
        # the dual-path check's probes reduce the probed modes once, and the
        # first-order identity reads that same reduction
        probes = SweepSpec(modes=modes, r=1.0, delta=0.0).probes()
        reduced = _probed(series, probes)
        first, _ = reduced[tuple(modes)].defects
        at_h = identity_residual(*series.evaluate(self.h), modes)
        # evaluated identity residual must shrink like h^3 on the probed modes
        hs = (0.02, 0.04, 0.08)
        res = [identity_residual(*series.evaluate(h), modes, modes) for h in hs]
        slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
        # periodicity in the duration parameter, from the same overlap series
        shifted = compose_one_segment(overlaps, self.u + 1.0)
        drift = max(np.max(np.abs(shifted.alpha1 - series.alpha1)),
                    np.max(np.abs(shifted.beta2 - series.beta2)))
        # dual-path agreement at the channel's point: the composed series is a
        # channel in theta = h on its own, so it is not composed again
        report = _compare(series, probes, reduced, H_LADDER)
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

    def check_modes(self, modes) -> None:
        """Refuse probed ``modes`` outside ``1..n_max`` or repeated. Every
        mode of the series may be probed: it may be a whole channel, and not
        a truncated ladder."""
        quadrature_indices(modes, self.n_max)

    def orders(self) -> BogoliubovSeries:
        """The one series: a sweep's columns repeat down its grid."""
        return self.series

    def reduced(self, grid, mode_sets):
        """``{modes: ReducedChannel}`` of the one series for each mode tuple of
        ``mode_sets``, whatever the grid."""
        return {tuple(modes): self.series.reduced(modes) for modes in mode_sets}

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
    """What to sweep: distinct probe families on two modes, a grid, and an
    energy rule.

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
        if np.shape(self.modes) != (2,):
            raise ValueError(f"modes={self.modes!r} must be a pair (k, k') of probed modes")
        if not self.grid:
            raise ValueError("sweep grid must not be empty")
        for value in self.grid:
            if not math.isfinite(value):
                raise ValueError(f"grid value {float(value)!r} is not finite")
        if not self.families:
            raise ValueError("at least one state family must be requested")
        for i, fam in enumerate(self.families):
            if fam not in FAMILIES:
                raise ValueError(f"unknown state family {fam!r}")
            if fam in self.families[:i]:
                raise ValueError(f"state family {fam!r} is requested more than once")
        for i, method in enumerate(self.methods):
            if method not in ("perturbative", "oracle"):
                raise ValueError(f"unknown method {method!r}")
            if method in self.methods[:i]:
                raise ValueError(f"method {method!r} is requested more than once")
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


class SweepRow(NamedTuple):
    """One grid point for one probe family; the fields name the CSV columns."""

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


#: the sweep CSV header: the row fields, with the grid value written as ``u``
SWEEP_COLUMNS = ("u", *SweepRow._fields[1:])


class SweepTable(Sequence):
    """The rows of a sweep, held as columns: what :func:`run_sweep` returns
    and :func:`rows_to_csv` writes.

    ``grid`` is the list of grid values, and ``families`` holds for each
    probe family its other cells in :class:`SweepRow` order, ``family`` to
    ``truncation_residual``: a list is a column down the grid, and any other
    value, ``None`` included, repeats at every grid point. One column object
    may fill several cells. Rows are ordered by grid index, then family, and
    each :class:`SweepRow` is built when it is read.
    """

    def __init__(self, grid: list, families: list):
        self.grid, self.families = grid, families

    def __len__(self) -> int:
        return len(self.grid) * len(self.families)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        i, j = divmod(range(len(self))[index], len(self.families))
        return SweepRow(self.grid[i], *(cells[i] if type(cells) is list else cells for cells in self.families[j]))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, SweepTable) else NotImplemented


def run_sweep(spec: SweepSpec, channel) -> SweepTable:
    """Evaluate the requested methods on every grid point and family.

    The perturbative columns come from one pass over the whole grid: one
    ``channel.reduced`` call gives the reduced channel of each probed mode
    set and of ``(k, k')``, whose ``|beta1_kk'|`` is the negativity, for the
    whole grid, and one kernel call takes each family's state with the
    reduced channel of its modes. Without the perturbative method only
    ``(k, k')`` is reduced. The cavity builds them as a stack over the
    grid; an imported series does not depend on the grid value, so its
    columns are evaluated once and repeat down the grid. The oracle reads
    the channel's family and theta at each grid point, and one oracle call
    there covers every family, on steps of ``|theta|`` over 10, 30 and 100;
    a theta of 0 is refused.

    The table's columns are the kernel's arrays as lists, or one value for a
    column that repeats; the families on one mode set share its residual
    column, which is also their truncation residual. Identical specs and
    channels give identical rows, ordered by grid index, then family order.
    """
    k, k_prime = spec.modes
    channel.check_modes(spec.modes)
    probes = spec.probes()
    grid = tuple(float(g) for g in spec.grid)
    pairs = [(tuple(modes), state) for *_, state, modes in probes]
    mode_sets = [(k, k_prime)] + [modes for modes, _ in pairs if "perturbative" in spec.methods]
    reduced = channel.reduced(grid, dict.fromkeys(mode_sets))

    def down_the_grid(values):
        # a stack's values as a list, or a single channel's one value for all of the grid
        return np.asarray(values).tolist()

    negativity = down_the_grid(negativity_first_order(reduced[k, k_prime]))
    perturbative = [(None,) * 4] * len(probes)
    if "perturbative" in spec.methods:
        residuals = {modes: down_the_grid(reduced[modes].residual) for modes in dict.fromkeys(mode_sets[1:])}
        perturbative = [(*map(down_the_grid, (res.value, res.e2, res.c2)), residuals[modes])
                        for (modes, _), res in zip(pairs, qfi_perturbative([(reduced[m], s) for m, s in pairs]))]

    oracle = [(None, None)] * len(probes)
    if "oracle" in spec.methods:
        at_points = []
        for g, (family, theta) in zip(grid, channel.oracle_points(grid, pairs)):
            if theta == 0.0:
                raise ValueError(f"the oracle cannot run at grid value {g!r}: theta is 0 there, "
                                 "and its finite-difference steps scale with |theta|")
            step = abs(theta)
            at_points.append(qfi_oracle(family, theta, steps=(step / 10.0, step / 30.0, step / 100.0)))
        oracle = [([res.value for res in column], [res.residual for res in column]) for column in zip(*at_points)]

    families = [(family, r, delta, pert, e2, c2, res_p, orc, res_o, negativity, res_o if res_p is None else res_p)
                for (family, r, delta, _, _), (pert, e2, c2, res_p), (orc, res_o) in zip(probes, perturbative, oracle)]
    return SweepTable(list(grid), families)


def _text(cells):
    """A cell's CSV text: ``repr(float(v))`` for a number, empty for
    ``None``, a string as it is; for a list of numbers, the list of their
    texts, from one ``repr`` of the list split on ``", "``: ``list.__repr__``
    calls ``float.__repr__``, and no float's repr holds ``", "``."""
    if type(cells) is list:
        return repr(list(map(float, cells)))[1:-1].split(", ") if cells else []
    return "" if cells is None else cells if isinstance(cells, str) else repr(float(cells))


def rows_to_csv(table: SweepTable) -> str:
    """Render a sweep table as CSV: each number as ``repr(float(v))`` at full
    precision, ``None`` as an empty cell, strings as they are, LF endings.

    A sweep repeats its grid, negativities, residuals and probe parameters
    down the families, so each distinct column object is formatted once per
    call, by :func:`_text`. That memo is keyed on identity, not on value:
    ``-0.0 == 0.0`` with equal hashes, yet they print apart. The table keeps
    every column alive for the call, so no two of them share an identity.
    """
    columns = [table.grid, *itertools.chain.from_iterable(table.families)]
    texts = {key: _text(cells) for key, cells in dict(zip(map(id, columns), columns)).items()}
    runs = []  # each family's lines down the grid
    for family in table.families:
        row = [texts[id(cells)] for cells in (table.grid, *family)]
        runs.append(map(",".join, zip(*(text if type(text) is list else itertools.repeat(text) for text in row))))
    return "\n".join([",".join(SWEEP_COLUMNS), *itertools.chain.from_iterable(zip(*runs))]) + "\n"


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


#: the acceleration ladder that :func:`compare_methods` reads by default
H_LADDER = (0.02, 0.04, 0.08)


def compare_methods(spec: SweepSpec, channel, h_ladder=H_LADDER) -> ComparisonReport:
    """Perturbative vs oracle on an acceleration ladder, per family.

    The channel's series is ``channel.orders()``: the cavity's at its
    duration, or the imported series; the spec's grid and
    methods are not read. The perturbative value is the leading-order limit
    and does not depend on ``h``; the oracle is evaluated at each ``h`` on
    the ladder. The fitted log-log slope of the relative deviation measures
    the perturbative error order (linear for this channel).
    """
    if len(set(h_ladder)) < 2:
        raise ValueError("compare needs at least two distinct h values on the ladder")
    for i, h in enumerate(h_ladder):
        if h in h_ladder[:i]:
            raise ValueError(f"ladder value {float(h)!r} is given more than once")
    channel.check_modes(spec.modes)
    probes = spec.probes()  # refuses a probe it cannot build before the channel is read
    series = channel.orders()
    return _compare(series, probes, _probed(series, probes), h_ladder)


def _probed(series: BogoliubovSeries, probes) -> dict:
    """``{modes: series.reduced(modes)}`` for each distinct mode set of ``probes``."""
    return {modes: series.reduced(modes) for modes in dict.fromkeys(tuple(modes) for *_, modes in probes)}


def _compare(series: BogoliubovSeries, probes, reduced: dict, h_ladder) -> ComparisonReport:
    """:func:`compare_methods`' report on ``series`` for ``probes``, with
    ``reduced`` the :func:`_probed` channels they read."""
    pairs = [(tuple(modes), state) for *_, state, modes in probes]
    perts = [result.value for result in qfi_perturbative([(reduced[modes], state) for modes, state in pairs])]
    states_at = probe_family(series, pairs)
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


def validate(channel, modes=SweepSpec.modes) -> ValidationReport:
    """Check the channel on the probed ``modes`` and report measured
    residuals: the checks are the provider's own ``checks(modes)``."""
    channel.check_modes(modes)
    return ValidationReport(tuple(channel.checks(modes)))
