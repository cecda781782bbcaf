#!/usr/bin/env python3
"""chaoscal desk-pipeline benchmark.

    python3 bench/run.py --workload desk_fit --seed 0 --seconds 10 --trace 0

Runs one workload through the public CLI entry point ``chaoscal.cli.main``
in-process, checks its outputs, and prints one JSON object as the last line
of standard output: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced pass with ``--trace 1``.  Metric names and units come
from ``BENCHMARK.json`` at the repository root.

    python3 bench/run.py --write-fixture

re-creates ``bench/desk_model.json`` from a ``desk_fit`` calibration.

The BLAS thread count is fixed here, before numpy is first imported, to the
number of CPUs this process may run on; the inherited settings are recorded.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fixture", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_fixture and not args.workload:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    threads = len(os.sched_getaffinity(0))
    inherited = {k: os.environ.get(k) for k in BLAS_VARS}
    for k in BLAS_VARS:
        os.environ[k] = str(threads)
    if not os.path.isfile(os.path.join(SRC, "chaoscal", "__init__.py")):
        print(f"error: no chaoscal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pipeline  # imports numpy: only after the BLAS settings above

    if args.write_fixture:
        return pipeline.write_fixture()
    return pipeline.run(args, threads, inherited)


if __name__ == "__main__":
    sys.exit(main())
