#!/usr/bin/env python3
"""Benchmark of sdtwists: one command per workload and mode.

Run from the repository root:

    python3 bench/run.py --workload compact_d3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload built_d5_d6 --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-test

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones; both check the program's output against oracles.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the figures that are not metrics.  The exit code is 0 only when every check
passed.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdtwists"


def main() -> int:
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no program source at {PACKAGE}", file=sys.stderr)
        return 2
    # One worker process: sweeps read this when they start.
    os.environ["SDTWISTS_WORKERS"] = "1"
    sys.path.insert(1, str(PACKAGE.parent))
    import sdtwists

    if Path(sdtwists.__file__).resolve().parent != PACKAGE:
        print(f"error: sdtwists was imported from {sdtwists.__file__}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
