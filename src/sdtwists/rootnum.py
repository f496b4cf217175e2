"""Kronecker symbols, relative root numbers and sign pairing.

For a degree-d field cut out by a candidate polynomial with discriminant
disc coprime to the curve conductor N, the relative root number is

    w_rel = w^(d-1) * sgn(disc) * (disc / N)

with (./.) the Kronecker symbol and w the curve's own global root number.
Conductor and global root number are caller-supplied inputs (transcribed
from standard curve tables); nothing here computes them.

Sign pairing groups candidates whose (u, v) agree modulo a power M of the
conductor, a computable surrogate for agreement of all completions at bad
primes, and pairs opposite discriminant signs inside a group.  Every
emitted pair is re-verified through the formula above; pairs that cannot be
verified are dropped, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .counting import FieldCandidate

_TAB2 = (0, 1, 0, -1, 0, -1, 0, 1)  # (2/n) by n mod 8


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), fully multiplicative in both arguments."""
    if a == 0 and n == 0:
        raise ValueError("(0/0) is undefined")
    if n == 0:
        return 1 if abs(a) == 1 else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            sign *= _TAB2[a % 8]
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            sign *= _TAB2[n % 8]
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


@dataclass(frozen=True)
class CurveArithData:
    conductor: int
    global_root_number: int

    def __post_init__(self):
        if self.conductor < 1:
            raise ValueError("conductor must be a positive integer")
        if self.global_root_number not in (-1, 1):
            raise ValueError("global root number must be +1 or -1")


@dataclass(frozen=True)
class RootReport:
    d: int
    disc: int
    gcd_ok: bool
    kronecker_value: int
    w_rel: Optional[int]  # None when gcd(disc, conductor) != 1


def relative_root_number(data: CurveArithData, d: int, disc: int) -> RootReport:
    """w_rel = w^(d-1) * sgn(disc) * (disc/N); undefined unless gcd(disc, N) = 1."""
    if disc == 0:
        raise ValueError("discriminant must be nonzero")
    n = data.conductor
    gcd_ok = math.gcd(disc, n) == 1
    kron = kronecker(disc, n)
    if not gcd_ok:
        return RootReport(d, disc, False, kron, None)
    sign = 1 if disc > 0 else -1
    w = data.global_root_number ** (d - 1) * sign * kron
    return RootReport(d, disc, True, kron, w)


@dataclass(frozen=True)
class SignPair:
    positive: FieldCandidate
    negative: FieldCandidate
    positive_report: RootReport
    negative_report: RootReport


def _is_conductor_power(m: int, n: int) -> bool:
    if n == 1:
        return m == 1
    if m < n:
        return False
    while m % n == 0:
        m //= n
    return m == 1


def sign_pairing(
    candidates: Sequence[FieldCandidate], modulus: int, data: CurveArithData
) -> list[SignPair]:
    """Opposite-discriminant-sign pairs within (u, v) residue classes mod M.

    M must be a positive power of the conductor.  Only eligible candidates
    (certified S_d fields with the point) are paired, and a pair is emitted
    only when both relative root numbers are defined and verified opposite.
    """
    if not _is_conductor_power(modulus, data.conductor):
        raise ValueError(f"{modulus} is not a positive power of the conductor {data.conductor}")
    groups: dict[tuple[int, int], list[FieldCandidate]] = {}
    for cand in candidates:
        if cand.eligible:
            groups.setdefault((cand.u % modulus, cand.v % modulus), []).append(cand)

    pairs: list[SignPair] = []
    for key in sorted(groups):
        members = groups[key]
        pos = sorted((c for c in members if c.disc > 0), key=lambda c: (abs(c.disc), c.u, c.v))
        neg = sorted((c for c in members if c.disc < 0), key=lambda c: (abs(c.disc), c.u, c.v))
        for cp, cn in zip(pos, neg):
            rp = relative_root_number(data, cp.poly.degree, cp.disc)
            rn = relative_root_number(data, cn.poly.degree, cn.disc)
            if rp.w_rel is not None and rn.w_rel is not None and rp.w_rel == -rn.w_rel:
                pairs.append(SignPair(cp, cn, rp, rn))
    return pairs


def cubic_twist_residues(conductor: int, symbol: int = -1) -> list[int]:
    """Residues t mod N with (disc_class(t), N) = 1 and Kronecker value `symbol`,
    where disc_class(t) = -t^3 (27 t + 4), the discriminant class of the
    cubic family attached to a model with f == x^3 mod N.

    Used as a sweep congruence preset (u, v) == (t0, 1) mod N to pin the
    Kronecker factor of the relative root number across a whole sweep.
    """
    if symbol not in (-1, 1):
        raise ValueError("symbol must be +1 or -1")
    out = []
    for t in range(conductor):
        value = -(t**3) * (27 * t + 4)
        if math.gcd(value, conductor) != 1:
            continue
        if kronecker(value, conductor) == symbol:
            out.append(t)
    return out
