"""Regenerate ``reference.json``: QFI columns of the default seed's sweeps.

Run from the repository root at a commit whose results are trusted::

    python3 benchmarks/make_reference.py

The benchmark compares the same operations against these values, within
``workloads.REFERENCE_TOL``, whenever it runs with the default seed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import worker
import workloads

SIZE = "full"


def main() -> int:
    sys.path.insert(0, os.path.join(worker.ROOT, "src"))
    from gaussfisher import cli

    seed = workloads.DEFAULT_SEED
    reference = {}
    with tempfile.TemporaryDirectory(dir=worker.HERE) as workdir:
        runner = worker.Runner(cli, workdir, seed, {})
        for name in sorted(workloads.WORKLOADS):
            wl = workloads.get(name, SIZE)
            keyed = [(f"cold-{j}", wl.cold_op(seed, j)) for j in range(workloads.SIZES[SIZE]["processes"])]
            keyed += [(f"round-0-{i}", op) for i, op in enumerate(wl.round_ops(seed, 0))]
            values = {}
            for key, op in keyed:
                if op.verb != "sweep":
                    continue
                if op.cache is not None:  # the sweep reads the cache its round builds
                    runner.run(workloads.Op("overlaps", op.nmax, cache=op.cache))
                runner.run(op)
                with open(os.path.join(workdir, "sweep.csv"), encoding="utf-8") as fh:
                    values[key] = workloads.qfi_column(op, fh.read())[1]
            reference[name] = values
        if runner.failed:
            print(json.dumps(runner.problems, indent=1), file=sys.stderr)
            return 1
    with open(os.path.join(worker.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({SIZE: reference}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
