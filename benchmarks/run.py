"""gaussfisher benchmark: CLI workloads with end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload sweep-pert --seed 0 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``. Each operation is one call of
``gaussfisher.cli.main(argv)`` in-process, in a closed loop from one client:
an operation starts when the previous one ends. BLAS threading is left at
the environment default and recorded in the manifest.

``--trace 0`` starts fresh interpreters one after another. Each imports the
CLI, generates its inputs, runs one cold operation and then its share of
the warm rounds, so every metric samples the whole run. Reported, with
units:

* ``setup_s``     -- spawn to first-operation-ready, median over processes;
* ``cold_op_s``   -- first operation of a fresh process, median;
* ``op_p50_s``    -- median warm operation.

Where operations come in kinds of different cost (``channel-build``), each
median is the mean over kinds of the per-kind medians, so the mix cannot
move it across a gap.
* ``ops_per_s``   -- warm operations per second of operation time (1/mean);
* ``peak_rss_mb`` -- highest peak RSS of the processes, each of which ran
  only this workload.

``fail_ratio`` (failed / attempted operations) is printed in the report and
carried by the ``failed`` and ``attempted`` fields.

``--trace 1`` runs one process whose warm rounds alternate untraced and
traced, and reports the per-layer metrics of ``tracer.py`` plus
``trace.overhead`` (traced op_p50_s / untraced op_p50_s - 1).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A JSON record with the manifest
and raw samples is written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: every run must end well inside three minutes
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, index: int, processes: int, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--index", str(index), "--processes", str(processes),
        "--seconds", repr(args.seconds / processes), "--trace", str(args.trace),
        "--outdir", OUT,
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}.json")]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"worker {index} exited {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def kind_median(samples: list) -> float:
    """Median per operation kind, averaged over kinds."""
    kinds = {}
    for kind, wall in samples:
        kinds.setdefault(kind, []).append(wall)
    return statistics.fmean(statistics.median(v) for v in kinds.values())


def end_to_end(workers: list) -> tuple:
    samples = [s for w in workers for s in w["samples"]]
    warm = [wall for _, wall in samples]
    n = len(workers)
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "cold_op_s": (kind_median([(w["cold_kind"], w["cold_op_s"]) for w in workers]), "s"),
        "op_p50_s": (kind_median(samples), "s"),
        "ops_per_s": (len(warm) / sum(warm), "1/s"),
        "peak_rss_mb": (max(w["peak_rss_kb"] for w in workers) / 1024.0, "MB"),
    }
    counts = {
        "setup_s": f"n={n} processes",
        "cold_op_s": f"n={n} processes",
        "op_p50_s": f"n={len(warm)} ops, {len({k for k, _ in samples})} kinds",
        "ops_per_s": f"n={len(warm)} ops",
        "peak_rss_mb": f"max of {n} processes",
    }
    return metrics, counts


def per_layer(worker: dict) -> tuple:
    metrics = {k: tuple(v) for k, v in worker["layers"].items()}
    plain, traced = kind_median(worker["untraced"]), kind_median(worker["traced"])
    metrics["trace.overhead"] = (traced / plain - 1.0, "ratio")
    counts = {"trace.overhead": f"n={len(worker['traced'])} traced, {len(worker['untraced'])} untraced ops"}
    return metrics, counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gaussfisher benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                   help="'tiny' shrinks every workload for the benchmark's own tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "gaussfisher", "cli.py")):
        return fail("no gaussfisher sources under src/; run from a full checkout")
    os.makedirs(OUT, exist_ok=True)

    try:
        if args.trace:
            workers = [spawn(args, 0, 1, deadline)]
            metrics, counts = per_layer(workers[0])
        else:
            n = workloads.SIZES[args.size]["processes"]
            workers = [spawn(args, j, n, deadline) for j in range(n)]
            metrics, counts = end_to_end(workers)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [pr for w in workers for pr in w["problems"]]
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": git_commit(),
        "load": "closed loop, 1 client, 1 process",
        "fail_ratio": failed / attempted,
        "metrics": reported,
        "sample_counts": counts,
        "workers": workers,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    info = workers[-1]
    blas = "; ".join(f"{b['library']} {b.get('vendor', '?')} threads={b.get('threads', '?')}" for b in info["manifest"]["blas"])
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} commit={record['commit']}")
    print(f"# params {json.dumps(info['workload_params'])}; {record['load']}")
    print(f"# nproc={info['manifest']['nproc']} python={info['manifest']['python']} "
          f"numpy={info['manifest']['numpy']} scipy={info['manifest']['scipy']}; {blas}")
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:14.6g} {unit:9s} {counts.get(key, '')}")
    print(f"{'fail_ratio':45s} {record['fail_ratio']:14.6g} {'ratio':9s} {failed} of {attempted} ops failed")
    if args.trace:
        if info["absent"]:
            print(f"# absent boundaries: {', '.join(info['absent'])}")
        for n, (a1, b1) in info["series_errors"].items():
            print(f"# n_max {n}: alpha1_err {a1:.3e} beta1_err {b1:.3e}")
    for pr in problems[:10]:
        print(f"# FAILED {pr['op']}: {'; '.join(pr['problems'])}", file=sys.stderr)
    print(f"# record: {os.path.relpath(os.path.join(OUT, name), ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
