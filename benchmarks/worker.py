"""One benchmark process: import the CLI, run operations, report as JSON.

Started by ``run.py`` in a fresh interpreter, so its import and first
operation are what a one-shot CLI user pays. Process ``j`` of ``M`` then
runs warm rounds ``j, j + M, j + 2M, ...`` for ``--seconds``; with
``--trace 1`` its warm rounds alternate untraced and traced.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def monotonic() -> float:
    """System-wide clock, comparable with the parent's spawn time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Runs operations against ``cli.main`` and checks every output."""

    def __init__(self, cli, workdir: str, seed: int, reference: dict):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, argv: list) -> tuple:
        """(exit code or exception text, stdout text, wall seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a failed operation is counted, not fatal
                rc = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        if rc != 0 and err.getvalue().strip():
            rc = f"{rc} ({err.getvalue().strip().splitlines()[-1]})"
        return rc, out.getvalue(), wall

    def run(self, op: workloads.Op, ref_key: str | None = None, timed=None) -> float:
        """Run and check one operation; returns its wall time.

        ``timed`` wraps the call (the tracer uses it); checks run outside it.
        """
        argv = op.argv(self.workdir)
        if timed is None:
            rc, stdout, wall = self.call(argv)
        else:
            (rc, stdout, _), wall = timed(op.kind, lambda: self.call(argv))
        self.attempted += 1
        problems = [] if rc == 0 else [f"exit {rc}"]
        if not problems:
            problems = self.check(op, stdout, ref_key)
        if problems:
            self.failed += 1
            self.problems.append({"op": op.kind, "argv": argv, "problems": problems[:5]})
        return wall

    def check(self, op: workloads.Op, stdout: str, ref_key: str | None) -> list:
        if op.verb == "overlaps":
            return workloads.check_overlaps(op, stdout, self.workdir)
        with open(os.path.join(self.workdir, "sweep.csv"), encoding="utf-8") as fh:
            text = fh.read()
        problems = workloads.check_sweep_csv(op, text)
        expected = self.reference.get(ref_key) if ref_key else None
        if not problems and expected is not None:
            problems = workloads.check_reference(op, text, expected)
        if not problems and op.compare_uncached:
            rc, _, _ = self.call(op.argv(self.workdir, cached=False, out_name="uncached.csv"))
            with open(os.path.join(self.workdir, "uncached.csv"), encoding="utf-8") as fh:
                if rc != 0 or fh.read() != text:
                    problems = ["cached sweep CSV differs from the uncached run"]
        return problems

    def round(self, wl, r: int, timed=None) -> list:
        """Run warm round ``r``; returns (kind, wall) samples."""
        samples = []
        for i, op in enumerate(wl.round_ops(self.seed, r)):
            ref_key = f"round-{r}-{i}" if self.seed == workloads.DEFAULT_SEED else None
            samples.append((op.kind, self.run(op, ref_key, timed)))
        for name in os.listdir(self.workdir):
            path = os.path.join(self.workdir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
        return samples


def _is_blas(name: str) -> bool:
    name = name.lower()
    return name.startswith("lib") and ("blas" in name or "mkl" in name)


def blas_info() -> list:
    """BLAS libraries loaded in this process, with their effective thread count."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if _is_blas(os.path.basename(ln.split()[-1]))})
    except OSError:
        return []
    found = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                entry.update(vendor="OpenBLAS", threads=get_threads(), config=get_config().decode())
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def manifest() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_info(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    p.add_argument("--index", type=int, default=0, help="process index j")
    p.add_argument("--processes", type=int, default=1, help="process count M")
    p.add_argument("--seconds", type=float, default=10.0, help="warm-round budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--spans", help="where a trace run writes its spans")
    args = p.parse_args(argv)

    # set-up: import the CLI and generate the inputs of the first operation
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gaussfisher import cli

    wl = workloads.get(args.workload, args.size)
    first = wl.cold_op(args.seed, args.index)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.size, {}).get(args.workload, {})
    if args.seed != workloads.DEFAULT_SEED:
        reference = {}
    workdir = tempfile.mkdtemp(prefix=f"worker{args.index}-", dir=args.outdir)
    ready = monotonic()

    runner = Runner(cli, workdir, args.seed, reference)
    result = {"ready": ready, "cold_kind": first.kind}
    rounds = range(args.index, sys.maxsize, args.processes)
    try:
        result["cold_op_s"] = runner.run(first, f"cold-{args.index}")
        if args.trace:
            result.update(trace_rounds(runner, wl, rounds, args))
        else:
            samples, start = [], time.perf_counter()
            for r in rounds:
                if samples and time.perf_counter() - start >= args.seconds:
                    break
                samples += runner.round(wl, r)
            result["samples"] = samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        manifest=manifest(),
        workload_params=wl.params,
    )
    print(json.dumps(result))
    return 0


def trace_rounds(runner: Runner, wl, rounds, args) -> dict:
    """Alternate untraced and traced rounds, so drift hits both alike."""
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced, start = [], [], time.perf_counter()
    for i, r in enumerate(rounds):
        if i >= 2 and time.perf_counter() - start >= args.seconds:
            break
        if i % 2:
            tracer.install()
            try:
                traced += runner.round(wl, r, timed=tracer.run_op)
            finally:
                tracer.uninstall()
        else:
            plain += runner.round(wl, r)
    if args.spans:
        tracer.dump(args.spans)
    return {
        "untraced": plain,
        "traced": traced,
        "layers": tracer.summary(),
        "absent": tracer.absent,
        "series_errors": tracer.series_errors(),
    }


if __name__ == "__main__":
    sys.exit(main())
