"""Machine-speed calibration that shares no code with the program.

The reference machine's speed drifts by up to 2x, over seconds and over
minutes. CPU time tracks wall time, so the drift is clock speed and
contention, not scheduling. The untraced run therefore times a fixed slice
of pure-Python work next to each measurement. A slice's time over the
reference time for the same rounds is the *slowness* at that moment. Time
metrics are divided by it and rates multiplied by it, which scales them to
the reference speed. The raw figures stay in the record's ``extra``.

The slice mixes what the program spends its time on: ``Fraction``
arithmetic, big-integer products and residues, and list transforms mod p.
It never calls ``sdtwists``, so a faster program does not move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Time of a slice of ROUNDS rounds on the reference machine (2 cores,
# CPython 3.11.7) in a quiet period.
REFERENCE_S = 0.122
ROUNDS = 10_000
_P = 1_000_003
_M127 = (1 << 127) - 1


def _work(rounds: int) -> int:
    check = 0
    n = 1
    row = list(range(1, 48))
    for i in range(1, rounds + 1):
        x = Fraction(i, 2 * i + 1) * Fraction(3, i + 7) + Fraction(i % 13, 17)
        check += x.numerator % 1000
        n = (n * 6364136223846793005 + i) % _M127
        row = [(a * b + i) % _P for a, b in zip(row, row[1:] + row[:1])]
    return check + n + sum(row)


def slice_seconds(rounds: int = ROUNDS) -> float:
    """Wall time of one calibration slice."""
    start = perf_counter()
    _work(rounds)
    return perf_counter() - start


def slowness(seconds: float, rounds: int = ROUNDS) -> float:
    """How many times slower than the reference a slice of that time ran."""
    return seconds / (REFERENCE_S * rounds / ROUNDS)
