"""Run one skewbounds benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the package is imported from
the checkout's src/ directory, never from an installed copy.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Workloads and metrics are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy is first imported; 1 is at most nproc
# on every machine and keeps timings free of thread scheduling noise.
BLAS_THREADS = 1
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("paper_reproduce", "chain_sweep", "gamma_large_d", "perm_search")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the benchmark itself to time set-up in a fresh interpreter
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "skewbounds" / "__init__.py").is_file():
        sys.stderr.write(f"error: no skewbounds source under {src}; run from a source checkout\n")
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import harness  # imports numpy and skewbounds

    return harness.main(args, root, started, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
