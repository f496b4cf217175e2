"""The benchmark run from the repository root as documented in bench/run.py:
its self-test, whose traced public-call mirror must reproduce ``sweep`` and
``ev_generate`` record for record, and a short traced run of each workload,
which also probes the Frobenius scan and the witness search on the records
and counts the EV fields, none of which the self-test runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(*args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


def test_bench_self_test_has_no_mismatch():
    done = run_bench("--self-test")
    assert done.returncode == 0, done.stderr
    assert "0 mismatched" in done.stdout


@pytest.mark.parametrize("workload", ["compact_d3", "built_d5_d6", "ev_d6"])
def test_bench_traced_run_is_correct(workload):
    done = run_bench("--workload", workload, "--trace", "1", "--seconds", "0.5")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
