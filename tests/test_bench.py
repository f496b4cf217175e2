"""The benchmark's self-test, run from the repository root as documented in
bench/run.py: its traced public-call mirror must reproduce ``sweep`` and
``ev_generate`` record for record."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_has_no_mismatch():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "0 mismatched" in done.stdout
