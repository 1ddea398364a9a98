"""Outside-in tracer for the gaussfisher layers.

The program is not edited: while a tracer is installed, each boundary
function is replaced by a wrapper that records a span (name, start, end,
parent span) and is put back on ``uninstall``. The package imports names
with ``from .x import y``, so a function is replaced at every
``gaussfisher.*`` module attribute that refers to it, not only where it is
defined. Modules are resolved through ``importlib``: ``gaussfisher.fidelity``
as an attribute is the function, not the module.

Spans stay in memory; ``summary`` turns them into per-operation metrics and
``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

#: (span name, module, attribute, replace every gaussfisher reference)
BOUNDARIES = (
    ("cli.build_parser", "gaussfisher.cli", "build_parser", True),
    ("cli.emit", "gaussfisher.cli", "emit", True),
    ("sweeps.run_sweep", "gaussfisher.sweeps", "run_sweep", True),
    ("sweeps.rows_to_csv", "gaussfisher.sweeps", "rows_to_csv", True),
    # cavity calls np.polynomial.legendre.leggauss through the numpy module
    ("cavity.leggauss", "numpy.polynomial.legendre", "leggauss", False),
    ("cavity.rindler_overlaps", "gaussfisher.cavity", "rindler_overlaps", True),
    ("cavity.perturbative_overlaps", "gaussfisher.cavity", "perturbative_overlaps", True),
    ("cavity.load_or_compute_overlap_series", "gaussfisher.cavity", "load_or_compute_overlap_series", True),
    ("cavity.load_or_compute_overlaps", "gaussfisher.cavity", "load_or_compute_overlaps", True),
    ("cavity.compose_one_segment", "gaussfisher.cavity", "compose_one_segment", True),
    ("cavity.save_overlaps_csv", "gaussfisher.cavity", "save_overlaps_csv", True),
    ("cavity.load_overlaps_csv", "gaussfisher.cavity", "load_overlaps_csv", True),
    ("bogoliubov.covariance_series", "gaussfisher.bogoliubov", "covariance_series", True),
    ("bogoliubov.unitarity_residuals", "gaussfisher.bogoliubov", "BogoliubovSeries.unitarity_residuals", False),
    ("qfi.qfi_perturbative", "gaussfisher.qfi", "qfi_perturbative", True),
    ("qfi.probe_family", "gaussfisher.qfi", "probe_family", True),
    ("qfi.qfi_oracle", "gaussfisher.qfi", "qfi_oracle", True),
    # scipy.linalg.expm as called from qfi only (states imports it too)
    ("qfi.expm", "gaussfisher.qfi", "expm", False),
    ("fidelity.fidelity_one_mode", "gaussfisher.fidelity", "fidelity_one_mode", True),
    ("fidelity.fidelity_two_mode", "gaussfisher.fidelity", "fidelity_two_mode", True),
)
#: boundaries wrapped on objects returned by a traced call
RETURNED = {
    "cli.build_parser": "cli.parse_args",
    "qfi.probe_family": "qfi.family_eval",
}
SPAN_NAMES = tuple(b[0] for b in BOUNDARIES) + tuple(RETURNED.values())
LAYERS = ("cli", "sweeps", "cavity", "bogoliubov", "qfi", "fidelity")


def _resolve(module: str, attr: str):
    """(owner, attribute name) for a dotted attribute, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


def closed_form_first_orders(n: int) -> tuple:
    """Closed-form first-order overlaps ``sqrt(mn)(1 - (-1)^(m+n)) / (pi^2 (n -+ m)^3)``
    (rows ``m``, columns ``n``), independent of the package's own copy."""
    m = np.arange(1, n + 1)[:, None]
    k = np.arange(1, n + 1)[None, :]
    num = np.sqrt(m * k) * (1 - (-1.0) ** (m + k))
    diff = (k - m).astype(float) ** 3
    alpha1 = np.divide(num, np.pi**2 * diff, out=np.zeros((n, n)), where=diff != 0)
    beta1 = num / (np.pi**2 * (k + m).astype(float) ** 3)
    return alpha1, beta1


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self):
        self.spans = []      # [op index, name, start, end, parent span index]
        self.ops = []        # [op index, kind, wall seconds]
        self.absent = []
        self._stack = []
        self._op = -1
        self._patches = []
        self.quad_orders = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.files_read = set()
        self.files_written = set()
        self.csv_bytes = 0
        self.series = {}     # n_max -> last extracted OverlapSeries

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([self._op, name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2:4] = start, end
            return self._after(name, result, args, kwargs)

        return traced

    def _after(self, name, result, args, kwargs):
        if name in RETURNED:
            if name == "cli.build_parser":
                result.parse_args = self.wrap(RETURNED[name], result.parse_args)
            else:
                result = self.wrap(RETURNED[name], result)
        elif name == "cavity.rindler_overlaps":
            self.quad_orders.append(result.quad_order)
        elif name in ("cavity.perturbative_overlaps", "cavity.load_or_compute_overlap_series"):
            self.series[result.n_max] = result
        elif name == "cavity.save_overlaps_csv":
            path = os.path.abspath(args[0] if args else kwargs["path"])
            self.bytes_written += os.path.getsize(path)
            self.files_written.add(path)
        elif name == "cavity.load_overlaps_csv":
            path = os.path.abspath(args[0] if args else kwargs["path"])
            self.bytes_read += os.path.getsize(path)
            self.files_read.add(path)
        elif name == "sweeps.rows_to_csv":
            self.csv_bytes += len(result.encode("utf-8"))
        return result

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "gaussfisher" or key.startswith("gaussfisher.")]
        for name, module, attr, everywhere in BOUNDARIES:
            target = _resolve(module, attr)
            if target is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            owner, attr_name = target
            original = getattr(owner, attr_name)
            wrapper = self.wrap(name, original)
            places = {(id(owner), attr_name): owner}
            if everywhere:
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            places[(id(mod), key)] = mod
            for (_, key), holder in places.items():
                self._patches.append((holder, key, getattr(holder, key)))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- operations -------------------------------------------------------

    def run_op(self, kind: str, call):
        """Run ``call`` as one traced operation; returns its result and wall time."""
        self._op = len(self.ops)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            wall = time.perf_counter() - start
            self.ops.append([self._op, kind, wall])
            self._op = -1
        return result, wall

    def self_times(self) -> list:
        """Span duration minus the durations of its direct children."""
        selfs = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def unattributed(self) -> list:
        """Per operation: wall time not covered by any span."""
        covered = [0.0] * len(self.ops)
        for span, own in zip(self.spans, self.self_times()):
            if span[0] >= 0:
                covered[span[0]] += own
        return [wall - c for (_, _, wall), c in zip(self.ops, covered)]

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-operation layer metrics: ``name -> (value, unit)``."""
        n_ops = max(len(self.ops), 1)
        total_wall = sum(wall for _, _, wall in self.ops) or 1.0
        calls = dict.fromkeys(SPAN_NAMES, 0)
        selfs = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            if span[0] >= 0:
                calls[span[1]] += 1
                selfs[span[1]] += own
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / n_ops, "calls/op")
            out[f"{name}.self_s"] = (selfs[name] / n_ops, "s/op")
        for layer in LAYERS:
            share = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
            out[f"{layer}.share"] = (share / total_wall, "ratio")
        unattributed = sum(self.unattributed())
        out["trace.unattributed_s"] = (unattributed / n_ops, "s/op")
        out["trace.unattributed_share"] = (unattributed / total_wall, "ratio")

        orders = self.quad_orders
        out["cavity.rindler_overlaps.order_mean"] = (sum(orders) / len(orders) if orders else 0.0, "order")
        leg = calls["cavity.leggauss"]
        out["cavity.quadrature.useful_ratio"] = (calls["cavity.rindler_overlaps"] / leg if leg else 0.0, "ratio")
        written = self.files_written
        out["cavity.cache.hits"] = (calls["cavity.load_overlaps_csv"] / n_ops, "calls/op")
        out["cavity.cache.misses"] = (calls["cavity.save_overlaps_csv"] / n_ops, "calls/op")
        out["cavity.cache.bytes_read"] = (self.bytes_read / n_ops, "B/op")
        out["cavity.cache.bytes_written"] = (self.bytes_written / n_ops, "B/op")
        out["cavity.cache.read_s"] = (self._inclusive("cavity.load_overlaps_csv") / n_ops, "s/op")
        out["cavity.cache.write_s"] = (self._inclusive("cavity.save_overlaps_csv") / n_ops, "s/op")
        out["cavity.cache.useful_ratio"] = (
            len(written & self.files_read) / len(written) if written else 0.0,
            "ratio",
        )
        errs = self.series_errors()
        out["cavity.series.alpha1_err"] = (max((a for a, _ in errs.values()), default=0.0), "abs")
        out["cavity.series.beta1_err"] = (max((b for _, b in errs.values()), default=0.0), "abs")
        out["sweeps.rows_to_csv.bytes"] = (self.csv_bytes / n_ops, "B/op")
        return out

    def _inclusive(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def series_errors(self) -> dict:
        """n_max -> max |extracted - closed form| for alpha1 and beta1."""
        errs = {}
        for n, series in sorted(self.series.items()):
            alpha1, beta1 = closed_form_first_orders(n)
            errs[n] = (
                float(np.max(np.abs(series.alpha1 - alpha1))),
                float(np.max(np.abs(series.beta1 - beta1))),
            )
        return errs

    def dump(self, path: str) -> None:
        """Write spans, operations and unattributed remainders as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["op", "name", "start", "end", "parent", "self"],
                    "spans": [s + [own] for s, own in zip(self.spans, self.self_times())],
                    "ops": [
                        {"op": i, "kind": kind, "wall_s": wall, "unattributed_s": rest}
                        for (i, kind, wall), rest in zip(self.ops, self.unattributed())
                    ],
                    "absent": self.absent,
                },
                fh,
            )
