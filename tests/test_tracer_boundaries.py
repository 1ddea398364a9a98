"""The benchmark's tracer wraps named functions of the package, and a name it
cannot find is skipped without a word. Read here without changing it, its
boundary table must resolve, apart from the names it still lists after
their functions were deleted."""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

#: deleted from the package, still listed by the tracer: the covariance
#: orders are ``bogoliubov.ReducedChannel.covariance_orders`` now
KNOWN_ABSENT = {"cavity.load_or_compute_overlaps", "bogoliubov.covariance_series"}


def test_every_tracer_boundary_resolves():
    tracer = runpy.run_path(str(TRACER))
    resolve = tracer["_resolve"]
    absent = {name for name, module, attr, _ in tracer["BOUNDARIES"] if resolve(module, attr) is None}
    assert absent <= KNOWN_ABSENT
