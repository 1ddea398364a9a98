"""The oracle runs its linear algebra with every loaded OpenBLAS pool at one
thread, and gives each pool back its count afterwards; nothing else in the
package changes the threading. Its output bits do not depend on the count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaussfisher import qfi
from gaussfisher.bogoliubov import BogoliubovSeries
from gaussfisher.sweeps import CavityChannel, SweepSpec

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def pools():
    """The thread-count getters of the OpenBLAS pools the oracle resizes."""
    controls = qfi._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    return [get for get, _ in controls]


def oracle_inputs(n_max=60):
    """A whole cavity channel at ``n_max`` and the default probes on it."""
    series = CavityChannel(n_max=n_max).orders()
    return series, [(modes, state) for *_, state, modes in SweepSpec().probes()]


def test_oracle_linear_algebra_runs_on_one_thread_per_pool(pools, monkeypatch):
    series, probes = oracle_inputs()
    seen = []
    orders = BogoliubovSeries.symplectic_orders

    def recording_orders(self):
        seen.append(("generators", [get() for get in pools]))
        return orders(self)

    monkeypatch.setattr(BogoliubovSeries, "symplectic_orders", recording_orders)
    family = qfi.probe_family(series, probes)

    def recording_family(thetas):
        seen.append(("family", [get() for get in pools]))
        return family(thetas)

    qfi.qfi_oracle(recording_family, 0.05)
    assert seen == [("generators", [1] * len(pools)), ("family", [1] * len(pools))]


def test_oracle_gives_each_pool_its_count_back(pools):
    series, probes = oracle_inputs(n_max=10)
    before = [get() for get in pools]
    qfi.qfi_oracle(qfi.probe_family(series, probes), 0.05)
    assert [get() for get in pools] == before

    def failing_family(thetas):
        raise RuntimeError("family failed")

    with pytest.raises(RuntimeError, match="family failed"):
        qfi.qfi_oracle(failing_family, 0.05)
    assert [get() for get in pools] == before


def test_oracle_output_does_not_depend_on_the_pool_sizes(monkeypatch):
    series, probes = oracle_inputs()
    scoped = qfi.qfi_oracle(qfi.probe_family(series, probes), 0.05)
    # with nothing found, the oracle runs at the environment's threading
    monkeypatch.setattr(qfi, "_blas_thread_controls", lambda: ())
    unscoped = qfi.qfi_oracle(qfi.probe_family(series, probes), 0.05)
    # e2 and c2 are NaN on the oracle route, so compare the numbers it gives
    assert [(r.value, r.residual) for r in scoped] == [(r.value, r.residual) for r in unscoped]


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--nmax", "10", "--grid", "0.02369,0.3", "--methods", "oracle"], ["compare", "--nmax", "10"]],
)
def test_oracle_bytes_are_the_same_at_one_blas_thread_and_at_the_default(argv):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        run = subprocess.run([sys.executable, "-m", "gaussfisher.cli", *argv], env={**env, **threads},
                             capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
