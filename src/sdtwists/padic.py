"""p-adic valuations, Newton polygons and mod-p cycle types.

The Newton polygon of sum(a_i x^i) at p is the lower convex hull of the
points (i, v_p(a_i)).  Sign convention, used everywhere in this package:
a segment of slope s carries roots of valuation -s, with multiplicity equal
to the segment's horizontal length.  A segment of slope m/n in lowest terms
and horizontal length exactly n, with every other slope's denominator
coprime to n, certifies an n-cycle in the Galois group of the polynomial.

Cycle types of Frobenius elements come from distinct-degree factorization
of the reduction mod p; primes where the reduction degenerates (leading
coefficient or squarefreeness lost) are reported as bad rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .polyarith import Poly
from .primes import is_prime, valuation_int

INFINITY = math.inf


def valuation(r: Union[Fraction, int], p: int) -> Union[int, float]:
    """v_p(r); +infinity for r = 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r = Fraction(r)
    if r == 0:
        return INFINITY
    return valuation_int(r.numerator, p) - valuation_int(r.denominator, p)


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (i, v_p(a_i)) over the finite-valuation points."""

    prime: int
    points: tuple[tuple[int, Fraction], ...]
    segments: tuple[tuple[Fraction, int], ...]  # (slope, horizontal length)
    degree: int

    @property
    def spans_constant_term(self) -> bool:
        return bool(self.points) and self.points[0][0] == 0

    def root_valuations(self) -> tuple[tuple[Fraction, int], ...]:
        """(valuation, multiplicity) pairs; valuation = -slope."""
        return tuple((-s, l) for s, l in self.segments)


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored descending; parts sum to the degree."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))
        if any(p < 1 for p in self.parts):
            raise ValueError("cycle type parts must be positive")

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.parts)) + "]"


def n_cycle_type(n: int, degree: int) -> CycleType:
    """Cycle type of a single n-cycle inside S_degree."""
    if not 1 <= n <= degree:
        raise ValueError("cycle length out of range")
    return CycleType((n,) + (1,) * (degree - n))


def newton_polygon(f: Poly, p: int) -> NewtonPolygon:
    """Newton polygon of f at p; coefficients of valuation +infinity are skipped."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not f:
        raise ValueError("Newton polygon of the zero polynomial")
    pts = [
        (i, Fraction(valuation(c, p)))
        for i, c in enumerate(f.coeffs)
        if c
    ]
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle vertex unless slopes strictly increase through it
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = tuple(
        ((y2 - y1) / Fraction(x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return NewtonPolygon(prime=p, points=tuple(pts), segments=segments, degree=f.degree)


def cycle_certificate(polygon: NewtonPolygon) -> list[CycleType]:
    """Cycle facts the polygon certifies for the Galois group.

    A segment of slope m/n (lowest terms, n >= 2) whose horizontal length is
    exactly n, with every other slope's denominator coprime to n, yields an
    n-cycle.  When two segments share a slope denominator neither fires.
    Integer slopes certify nothing.  Empty when the constant term vanishes
    (the hull then misses part of the polynomial).
    """
    if not polygon.spans_constant_term:
        return []
    d = polygon.degree
    out: list[CycleType] = []
    for idx, (slope, length) in enumerate(polygon.segments):
        n = slope.denominator
        if n < 2 or length != n:
            continue
        others = [s for j, (s, _) in enumerate(polygon.segments) if j != idx]
        if all(math.gcd(s.denominator, n) == 1 for s in others):
            out.append(n_cycle_type(n, d))
    return out


# ---------------------------------------------------------------------------
# Dense F_p[x] kernels (coefficients are ints, constant first).
#
# Distinct-degree factorization needs x^(p^k) modulo the polynomial f for
# k = 1, 2, ...  x^p comes from one square-and-shift powering; each later
# power is the previous one pushed through the Frobenius matrix, whose rows
# are x^(i p) mod f, since (sum h_i x^i)^p = sum h_i x^(i p) over F_p (von zur
# Gathen and Shoup, "Computing Frobenius maps and factoring polynomials",
# 1992).  Products are accumulated in plain ints and reduced mod p once per
# coefficient.
# ---------------------------------------------------------------------------


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pdeg(a: list[int]) -> int:
    return len(a) - 1


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b over F_p (the empty list when both are zero)."""
    a, b = _ptrim([c % p for c in a]), _ptrim([c % p for c in b])
    while b:
        db = _pdeg(b)
        inv = pow(b[-1], -1, p)
        while len(a) > db:  # a <- a mod b
            c = a.pop() * inv % p
            k = len(a) - db
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % p
            _ptrim(a)
        a, b = b, a
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pdiv_exact(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    db = _pdeg(b)
    inv = pow(b[-1], -1, p)
    out = [0] * (_pdeg(a) - db + 1)
    while a and _pdeg(a) >= db:
        c = a[-1] * inv % p
        k = _pdeg(a) - db
        out[k] = c
        for j, cb in enumerate(b):
            a[j + k] = (a[j + k] - c * cb) % p
        _ptrim(a)
    if a:
        raise ArithmeticError("inexact division mod p")
    return _ptrim(out)


def _mulmod(a: list[int], b: list[int], red: list[int], p: int) -> list[int]:
    """a * b modulo (f, p), where f is monic of degree n = len(red) with
    x^n == sum(red[j] x^j); a, b and the result have length n."""
    n = len(red)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                prod[k] += ai * bj
    for top in range(2 * n - 2, n - 1, -1):
        c = prod[top] % p
        if c:
            for k, rj in enumerate(red, top - n):
                prod[k] += c * rj
    return [c % p for c in prod[:n]]


def _x_power(e: int, red: list[int], p: int) -> list[int]:
    """x^e modulo (f, p) for e >= 1 and deg f = len(red) >= 2."""
    r = [0, 1] + [0] * (len(red) - 2)
    for bit in bin(e)[3:]:
        r = _mulmod(r, r, red, p)
        if bit == "1":  # multiply by x: shift up and fold the top term back
            top = r[-1]
            r = [(c + top * rj) % p for c, rj in zip([0] + r[:-1], red)]
    return r


def distinct_degree_pattern(f: list[int], p: int) -> list[int]:
    """Degrees (with multiplicity, ascending) of the irreducible factors of a
    monic squarefree f over F_p, by distinct-degree factorization (f reduced
    mod p, constant first)."""
    n = _pdeg(f)
    if n == 1:
        return [1]
    red = [-c % p for c in f[:-1]]
    xp = _x_power(p, red, p)
    rows: list[list[int]] = []  # Frobenius matrix, built on first use
    h = xp  # x^(p^k) mod f
    g = f  # the part of f not yet split off
    out: list[int] = []
    k = 1
    while 2 * k <= _pdeg(g):
        if k > 1:
            if not rows:
                rows = [[1] + [0] * (n - 1), xp]
                while len(rows) < n:
                    rows.append(_mulmod(rows[-1], xp, red, p))
            acc = [0] * n
            for hi, row in zip(h, rows):
                if hi:
                    for j, rj in enumerate(row):
                        acc[j] += hi * rj
            h = [c % p for c in acc]
        gk = _pgcd(g, [h[0], h[1] - 1] + h[2:], p)  # gcd(g, x^(p^k) - x)
        if _pdeg(gk) > 0:
            out.extend([k] * (_pdeg(gk) // k))
            g = _pdiv_exact(g, gk, p)
        k += 1
    if _pdeg(g) > 0:
        out.append(_pdeg(g))
    return sorted(out)


def reduce_poly_mod(f: Poly, p: int) -> list[int]:
    """Coefficients of f mod p; raises if a denominator is divisible by p."""
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise ValueError(f"coefficient denominator divisible by {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return _ptrim(out)


def good_prime_cycle_type(coeffs: list[int], p: int) -> CycleType:
    """Cycle type of Frobenius at p for the integer polynomial ``coeffs``
    (constant first) when p is a good prime for it.

    The caller vouches that p is prime, does not divide the leading
    coefficient and leaves the reduction squarefree; none of that is
    rechecked here.
    """
    inv = pow(coeffs[-1], -1, p)
    return CycleType(tuple(distinct_degree_pattern([c * inv % p for c in coeffs], p)))


def frobenius_cycle_type(f: Poly, p: int) -> Optional[CycleType]:
    """Cycle type of Frobenius at p, or None when p is a bad prime.

    Bad means the reduction mod p drops degree or is not squarefree; either
    way the factorization pattern would not reflect a Galois element.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.degree < 1:
        raise ValueError("degree >= 1 required")
    fbar = reduce_poly_mod(f, p)
    if _pdeg(fbar) != f.degree:
        return None  # leading coefficient vanished
    deriv = [i * c for i, c in enumerate(fbar)][1:]
    if _pdeg(_pgcd(fbar, deriv, p)) != 0:
        return None  # not squarefree mod p
    return good_prime_cycle_type(fbar, p)
