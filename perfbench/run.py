#!/usr/bin/env python3
"""Coupled-step benchmark of lagfsi.

    python3 perfbench/run.py --workload fsi3d-r4 [--seed 1] [--seconds 60] [--trace 0|1]

Run from the root of a lagfsi source tree; the package is imported from its
``src`` directory.  See README.md for what is measured.
"""

import os
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()  # --seconds counts from here

# One BLAS/OpenMP thread, set before anything imports numpy.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main():
    src = ROOT / "src"
    if not (src / "lagfsi" / "__init__.py").is_file():
        print(f"perfbench: no lagfsi sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:], ROOT, STARTED)


if __name__ == "__main__":
    sys.exit(main())
