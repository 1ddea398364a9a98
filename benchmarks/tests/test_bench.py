"""Tests of the benchmark itself (not of gaussfisher).

Run from the repository root::

    python3 -m pytest -q benchmarks/tests
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_runs = {}


def result(workload: str, seed: int, trace: int) -> tuple:
    key = (workload, seed, trace)
    if key not in _runs:
        lines = tiny_run(workload, seed, trace)
        _runs[key] = (json.loads(lines[-1]), lines[:-1])
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    res, report = result(workload, 1, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    units = {m["name"]: m["unit"] for m in spec}
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        # the human report names it too, with its unit
        assert any(line.split()[:1] == [name] and units[name] in line.split() for line in report)
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_other_seed_changes_inputs_not_metric_names():
    for name in workloads.WORKLOADS:
        wl = workloads.get(name)
        assert wl.round_ops(1, 0) != wl.round_ops(2, 0)
        assert wl.round_ops(1, 0) == workloads.get(name).round_ops(1, 0)
    for trace in (0, 1):
        names = {tuple(sorted(result("sweep-pert", seed, trace)[0]["metrics"])) for seed in (1, 2)}
        assert len(names) == 1


@pytest.fixture(scope="module")
def cli():
    from gaussfisher import cli

    return cli


def test_traced_self_times_fit_in_operation_wall_time(cli, tmp_path):
    tracer = tracing.Tracer()
    runner = worker.Runner(cli, str(tmp_path), 1, {})
    wl = workloads.get("channel-build", "tiny")
    tracer.install()
    try:
        runner.round(wl, 0, timed=tracer.run_op)
        runner.run(workloads.get("sweep-oracle", "tiny").cold_op(1, 0), timed=tracer.run_op)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.problems
    selfs = tracer.self_times()
    assert min(selfs) >= 0.0
    for (i, _, wall), rest in zip(tracer.ops, tracer.unattributed()):
        own = sum(s for span, s in zip(tracer.spans, selfs) if span[0] == i)
        assert own <= wall
        assert rest == pytest.approx(wall - own)
    called = {span[1] for span in tracer.spans}
    assert {"cavity.leggauss", "cavity.save_overlaps_csv", "cavity.load_overlaps_csv",
            "qfi.expm", "qfi.family_eval", "fidelity.fidelity_two_mode", "cli.parse_args"} <= called


def test_tracer_restores_originals_and_records_absent_names(cli, monkeypatch):
    from gaussfisher import qfi, sweeps

    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (("qfi.gone", "gaussfisher.qfi", "no_such_name", True),))
    original = qfi.qfi_oracle
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sweeps.qfi_oracle is not original and qfi.qfi_oracle is sweeps.qfi_oracle
    finally:
        tracer.uninstall()
    assert sweeps.qfi_oracle is original and qfi.qfi_oracle is original
    assert tracer.absent == ["qfi.gone"]


def test_closed_form_first_orders_match_the_test_suite_derivation():
    alpha1, beta1 = tracing.closed_form_first_orders(4)
    assert alpha1[0, 1] == pytest.approx(2**0.5 * 2 / (3.141592653589793**2 * 1))
    assert alpha1[1, 0] == pytest.approx(-alpha1[0, 1])
    assert alpha1[0, 2] == 0.0 and alpha1[2, 2] == 0.0
    assert beta1[0, 1] == pytest.approx(2**0.5 * 2 / (3.141592653589793**2 * 27))


def test_sweep_check_rejects_a_broken_split():
    op = workloads.Op("sweep", 10, grid=(0.5,))
    header = ",".join(workloads.SWEEP_COLUMNS)
    row = "0.5,{f},1.0,0.0,{q},0.25,0.25,1e-9,,,0.01,1e-9"
    good = "\n".join([header] + [row.format(f=f, q=2.0) for f in workloads.FAMILIES]) + "\n"
    bad = good.replace(",2.0,", ",2.5,", 1)
    assert workloads.check_sweep_csv(op, good) == []
    assert "4 (e2 + c2)" in workloads.check_sweep_csv(op, bad)[0]
