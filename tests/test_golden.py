"""Stored golden reports: every refactor must keep these bytes unchanged.

The scenarios are the five of acceptance criterion 14 plus six that reach
the certify pipeline, the family construction at d = 3, 5 and 8 (the
discriminant form h, its unit and the sign-grid flags) and two built-family
sweeps (the standard route, the transposition-witness search and the
bivariate discriminant).  ``sweep_d6`` factors its discriminants to a small
kernel bound and finds transposition witnesses above it, up to its trial
bound.
Each report is stored as JSON and as CSV under ``tests/golden``; the CSV
holds the records of the JSON, their keys as its columns.

Regenerate the files, after a change that is meant to alter reports, with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import functools
import io
from pathlib import Path

import pytest

from sdtwists.cli import RunConfig, _csv_cell, emit, run

GOLDEN_DIR = Path(__file__).parent / "golden"
FORMATS = ("json", "csv")

SCENARIOS = {
    "exponents": dict(mode="exponents", d_min=3, d_max=10),
    "sweep_cubic": dict(mode="sweep", curve=(0, -2), degree=3, box=8,
                        prime_budget=10, kernel_bound=3000),
    "density": dict(mode="density", form=(0, 1, 0), box=10_000, samples=5_000),
    "pair_signs": dict(mode="pair-signs", curve=(-16, 16), box=120, conductor=37,
                       root_number=-1, prime_budget=8, kernel_bound=1000),
    "ev": dict(mode="ev", curve=(1, 1), degree=6, scale=2, ev_count=25),
    "certify": dict(mode="certify", poly=(-1, -1, 0, 1)),
    "family_d3": dict(mode="family", curve=(1, 1), degree=3),
    "family_d5": dict(mode="family", curve=(1, 1), degree=5),
    "family_d8": dict(mode="family", curve=(1, 1), degree=8),
    "sweep_d5": dict(mode="sweep", curve=(1, 1), degree=5, box=3),
    "sweep_d6": dict(mode="sweep", curve=(1, 1), degree=6, box=3,
                     kernel_bound=300, trial_bound=3000),
}


@functools.cache
def _report(name: str) -> dict:
    return run(RunConfig(**SCENARIOS[name]))


def _reports(name: str) -> dict[str, str]:
    return {fmt: emit(_report(name), fmt) for fmt in FORMATS}


def _path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}.{fmt}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_golden(name):
    for fmt, text in _reports(name).items():
        expected = _path(name, fmt).read_text(encoding="utf-8")
        assert text == expected, f"{name}.{fmt} differs from the stored golden report"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_csv_rows_are_the_records(name):
    # The header is the records' keys, every record has exactly those keys
    # in that order, and each row holds the cells of one record's values.
    records = _report(name)["records"]
    header, *rows = csv.reader(io.StringIO(emit(_report(name), "csv")))
    assert records and header == list(records[0])
    assert [list(rec) for rec in records] == [header] * len(records)
    assert rows == [[_csv_cell(value) for value in rec.values()] for rec in records]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in sorted(SCENARIOS):
        for fmt, text in _reports(scenario).items():
            _path(scenario, fmt).write_text(text, encoding="utf-8")
            print(f"wrote {_path(scenario, fmt)}")
