#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bursty --seed 1 --seconds 30 --trace 0

Prints a human-readable report and, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when an output
check failed and 2 when the program cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import sys

import bench_env
from workloads import WORKLOADS


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="adamls benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload (master) seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_env.pin_threads()
    try:
        bench_env.use_checkout_src()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
