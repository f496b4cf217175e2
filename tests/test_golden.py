"""Stored golden reports: every refactor must keep these bytes unchanged.

The scenarios are the five of acceptance criterion 14 plus three that reach
the certify pipeline, the family construction and a built-family sweep (the
standard route, the transposition-witness search and the bivariate
discriminant).  Each report is stored as JSON and as CSV under
``tests/golden``.

Regenerate the files, after a change that is meant to alter reports, with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from sdtwists.cli import RunConfig, emit, run

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
    "family_d5": dict(mode="family", curve=(1, 1), degree=5),
    "sweep_d5": dict(mode="sweep", curve=(1, 1), degree=5, box=3),
}


def _reports(name: str) -> dict[str, str]:
    report = run(RunConfig(**SCENARIOS[name]))
    return {fmt: emit(report, fmt) for fmt in FORMATS}


def _path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}.{fmt}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_golden(name):
    for fmt, text in _reports(name).items():
        expected = _path(name, fmt).read_text(encoding="utf-8")
        assert text == expected, f"{name}.{fmt} differs from the stored golden report"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in sorted(SCENARIOS):
        for fmt, text in _reports(scenario).items():
            _path(scenario, fmt).write_text(text, encoding="utf-8")
            print(f"wrote {_path(scenario, fmt)}")
