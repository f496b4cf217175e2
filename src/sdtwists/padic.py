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
A caller that holds the exact discriminant may pass the parity of Frobenius
(``frobenius_parity``, by Stickelberger's theorem); the factorization then
stops as soon as the factor degrees found so far and that parity leave one
possible pattern, so an odd cubic or a quadratic needs no F_p arithmetic.
``frobenius_cycle_type`` has no discriminant and runs the full loop.

Below ``ROOT_PRIME_BOUND`` (256) the first step of the loop, splitting off
the linear factors, is a root count on packed integers alone: f is
evaluated at every a in F_p at once, as one sum of n + 1 packed integers
whose 64-bit slots hold a^i mod p; one Barrett step (P. Barrett, CRYPTO
'86) reduces every slot mod p; adding 2^63 - 1 to every slot then sets a
slot's top bit exactly when its value is nonzero, and the popcount of the
top bits is p minus the number of roots.  The step is exact while every
slot value times magic fits in 64 bits (``_barrett_constants``), which
p < 256 keeps for every degree up to 67,376 (``_barrett``).  A cached
table keyed by (degree, roots, parity) then names the one cycle type the
count leaves, if any, as a ``CycleType`` shared by every caller: with the
parity, a polynomial of degree at most 5, or a sextic with a root mod p, is
settled there without a monic reduction or the loop.  The roots themselves are listed only when a later step must
divide them out, and any other polynomial computes x^p only modulo what is
left then.  The columns a^i mod p do not depend on the polynomial, so their
table is keyed by the prime alone and grown to the largest degree asked;
column i >= p is column i - (p - 1) again, and shares its object, so one
entry per prime serves every degree, and for degrees up to 8 the whole
table stays near 0.5 MB.  Larger primes keep the x^p powering for the first
step.

The later steps work in F_p[x]/(g), g what is left of f, with elements
packed into integers too, one coefficient per slot of a multiple of 64
bits: a product is one integer multiplication, a fold of the slots above
deg g back from the top, and one Barrett step that reduces every slot mod p
at once.  The slot width and the Barrett constants follow, per ring, from a
bound on every slot value that reaches that step (``_Ring``), so the ring is
exact at every prime and degree.  x^p is one square-and-shift powering;
x^(p^k) for k >= 2 is h(x^p) for h = x^(p^(k-1)), by Horner in the ring,
since h(x)^p = h(x^p) over F_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import mul
from typing import Iterator, Optional, Union

from .polyarith import Poly
from .primes import is_prime, valuation_int

INFINITY = math.inf

# Primes below this bound count roots by the packed evaluation of
# ``_values_mod``: one sum of 64-bit slots, one Barrett step and a popcount;
# see the module docstring.  Every degree up to 67,376 passes the exact
# Barrett condition below this bound.
ROOT_PRIME_BOUND = 256


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


@lru_cache(maxsize=None)
def _cycle_type(pattern: tuple[int, ...]) -> CycleType:
    """The one ``CycleType`` this module returns for an ascending pattern, so
    that equal patterns share an object and skip the sort and checks."""
    return CycleType(pattern)


def n_cycle_type(n: int, degree: int) -> CycleType:
    """Cycle type of a single n-cycle inside S_degree."""
    if not 1 <= n <= degree:
        raise ValueError("cycle length out of range")
    return _cycle_type((1,) * (degree - n) + (n,))


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
# Distinct-degree factorization needs x^(p^k) modulo the polynomial g for
# k = 1, 2, ...  They are computed in ``_Ring``, F_p[x]/(g) on packed
# integers: slot j holds the coefficient of x^j, a product is one integer
# multiplication whose top slots are folded back one at a time through the
# packed row of x^n mod g, and one Barrett step then reduces all slots mod
# p.  No slot value reaching that step exceeds 2n(p - 1)^2 (the derivation
# is on ``_Ring``), and the slot width and shift are chosen from that bound.
# x^p comes from one square-and-shift powering (``_x_power``, the only place
# that computes x^e); each later power is the previous one composed with
# x^p, since (sum h_i x^i)^p = sum h_i x^(i p) over F_p (von zur Gathen and
# Shoup, "Computing Frobenius maps and factoring polynomials", 1992).  Below
# ROOT_PRIME_BOUND the linear factors are counted instead, from one packed
# evaluation at every point of F_p, and the roots are read off that
# evaluation only when they must be divided out.
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


def _barrett_constants(bound: int, p: int) -> tuple[int, int]:
    """(shift, magic) of the Barrett step (P. Barrett, CRYPTO '86) that
    reduces every s in [0, bound] mod p as s - floor(s * magic / 2^shift) * p.

    With 2^shift >= bound * p and magic = ceil(2^shift / p),
    floor(s * magic / 2^shift) = floor(s / p) for every s <= bound: the
    error s * (magic * p - 2^shift) / (p * 2^shift) is below 1/p, too little
    to cross the next multiple of 1/p.  A packed caller reduces all slots
    at once, which is exact when each slot also holds bound * magic, so that
    no slot of the product with magic carries into the next.
    """
    shift = (bound * p - 1).bit_length()
    return shift, -(-(1 << shift) // p)


def _repeat(value: int, width: int, count: int) -> int:
    """The packed integer with ``value`` in each of ``count`` slots of
    ``width`` bits (a multiple of 8)."""
    return int.from_bytes(value.to_bytes(width // 8, "little") * count, "little")


class _Ring:
    """F_p[x]/(g) for a monic g of degree n >= 2 over F_p (constant first).

    An element is a packed integer whose slot j, ``width`` bits wide, holds
    the coefficient of x^j.  A product is one integer multiplication; the
    slots above n - 1 are then folded back one per step, from the highest in
    use, as (its value mod p) times the packed row of x^n == sum(red[j] x^j),
    shifted into place; and one Barrett step reduces every slot mod p at once.

    Bound: with both operands reduced, but for an unreduced constant slot
    below 2p - 1 in one of them (Horner in ``compose`` adds a coefficient
    after each product), slot n - 1 of the product is at most
    (2p - 2)(p - 1) + (n - 1)(p - 1)^2 = (n + 1)(p - 1)^2, and the n - 1
    folds add at most (p - 1)^2 each, so no slot exceeds
    ``bound`` = 2n(p - 1)^2.  A square times x (``_x_power``) has reduced
    operands, slots at most n(p - 1)^2 and n folds, within the same bound.
    The Barrett constants come from ``_barrett_constants`` for that bound,
    and the width, a multiple of 64 bits, holds bound * magic, so no slot
    carries into the next at any step.
    """

    __slots__ = ("p", "n", "width", "bound", "_shift", "_magic", "_quotient_mask", "_folds")

    def __init__(self, g: list[int], p: int):
        n = _pdeg(g)
        self.p, self.n = p, n
        self.bound = 2 * n * (p - 1) ** 2
        self._shift, self._magic = _barrett_constants(self.bound, p)
        self.width = w = -(-(self.bound * self._magic).bit_length() // 64) * 64
        self._quotient_mask = _repeat((1 << (w - self._shift)) - 1, w, n)
        red = self.pack([-c % p for c in g[:-1]])
        # (position of slot t, the slots below it, x^t == red * x^(t - n)) from t = 2n - 1 down to n
        self._folds = [
            (t * w, (1 << t * w) - 1, red << (t - n) * w) for t in range(2 * n - 1, n - 1, -1)
        ]

    def pack(self, coeffs: list[int]) -> int:
        """The packed integer with these slot values, each below 2^width."""
        packed = 0
        for c in reversed(coeffs):
            packed = packed << self.width | c
        return packed

    def coeffs(self, packed: int) -> list[int]:
        """The n coefficients of an element, reduced mod p."""
        w, p = self.width, self.p
        slot = (1 << w) - 1
        return [(packed >> (j * w) & slot) % p for j in range(self.n)]

    def reduce(self, packed: int) -> int:
        """Every slot mod p by one Barrett step, for slots at most ``bound``."""
        quotients = (packed * self._magic >> self._shift) & self._quotient_mask
        return packed - quotients * self.p

    def mul(self, a: int, b: int, by_x: bool = False) -> int:
        """a * b, times x as well when ``by_x``, reduced."""
        p, w = self.p, self.width
        prod = a * b << w if by_x else a * b
        top = (prod.bit_length() - 1) // w  # the highest slot in use
        for position, below, row in self._folds[2 * self.n - 1 - top :]:
            prod = (prod & below) + (prod >> position) % p * row
        return self.reduce(prod)

    def compose(self, h: list[int], y: int) -> list[int]:
        """The coefficients of h(y), by Horner, for h reduced mod p."""
        acc = h[-1]
        for c in reversed(h[:-1]):
            acc = self.mul(acc, y) + c
        return self.coeffs(acc)


def _x_power(e: int, ring: _Ring) -> int:
    """x^e in ``ring`` for e >= 1, by squaring and shifting."""
    r = 1 << ring.width
    for bit in bin(e)[3:]:
        r = ring.mul(r, r, bit == "1")
    return r


# Slot a (bits 64a to 64a + 63) of the packed column i holds a^i mod p, so
# for coefficients c_i in [0, p) the sum of c_i * column_i holds f(a) in
# slot a, at most bound = (n + 1)(p - 1)^2.  One Barrett step
# (``_barrett_constants``) reduces every slot mod p exactly when
# bound * magic < 2^64, since then no slot of the product with magic
# carries into the next.  Each reduced slot is below p, so adding 2^63 - 1
# to it carries into its top bit exactly when it is nonzero, and the
# popcount of the top bits is p minus the number of roots.
_SLOT_BITS = 64
_COLUMNS: dict[int, list[int]] = {}  # p -> packed columns for i = 0, 1, ...


def _power_columns(p: int, count: int) -> list[int]:
    """The first ``count`` packed columns of p, kept for the process; column
    i >= p is column i - (p - 1), since a^(p - 1) = 1 for a != 0."""
    cols = _COLUMNS.setdefault(p, [])
    for i in range(len(cols), count):
        cols.append(
            cols[i - (p - 1)]
            if i >= p
            else int.from_bytes(
                b"".join(pow(a, i, p).to_bytes(_SLOT_BITS // 8, "little") for a in range(p)),
                "little",
            )
        )
    return cols


@lru_cache(maxsize=None)
def _barrett(p: int, count: int) -> Optional[tuple[int, int, int]]:
    """(shift, magic, quotient mask) of the Barrett step for the values of a
    polynomial with ``count`` coefficients in [0, p), or None when the exact
    condition above fails; the mask keeps the 64 - shift quotient bits at
    the bottom of every slot."""
    bound = count * (p - 1) ** 2
    shift, magic = _barrett_constants(bound, p)
    if (bound * magic).bit_length() > _SLOT_BITS:
        return None
    return shift, magic, _repeat((1 << (_SLOT_BITS - shift)) - 1, _SLOT_BITS, p)


@lru_cache(maxsize=None)
def _top_bits(p: int) -> tuple[int, int]:
    """(2^63 - 1, 2^63) repeated over the p slots."""
    top = 1 << _SLOT_BITS - 1
    return _repeat(top - 1, _SLOT_BITS, p), _repeat(top, _SLOT_BITS, p)


def _values_mod(f: list[int], p: int) -> Optional[int]:
    """f(a) mod p in slot a for every a in F_p, packed, for f reduced mod p
    (constant first); None when the Barrett step would not be exact."""
    barrett = _barrett(p, len(f))
    if barrett is None:
        return None
    shift, magic, quotient_mask = barrett
    packed = sum(map(mul, f, _power_columns(p, len(f))))
    return packed - (packed * magic >> shift & quotient_mask) * p


def _root_count(values: int, p: int) -> int:
    """The number of zero slots of ``values`` = ``_values_mod(f, p)``: adding
    2^63 - 1 sets the top bit of exactly the nonzero slots below p."""
    offset, tops = _top_bits(p)
    return p - (values + offset & tops).bit_count()


def _roots_mod(f: list[int], p: int, values: Optional[int] = None) -> list[int]:
    """The roots in F_p of f (reduced mod p, constant first), ascending, read
    off ``values`` = ``_values_mod(f, p)``, evaluated here when not given;
    raises ValueError when f is past the exact Barrett condition at p."""
    if values is None:
        values = _values_mod(f, p)
        if values is None:
            raise ValueError(f"degree {_pdeg(f)} is past the exact root count at {p}")
    offset, tops = _top_bits(p)
    zeros = (values + offset & tops) ^ tops
    roots = []
    while zeros:
        low = zeros & -zeros
        roots.append(low.bit_length() // _SLOT_BITS - 1)
        zeros ^= low
    return roots


def _partitions(m: int, least: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into parts >= least, each as an ascending tuple."""
    if m == 0:
        yield ()
        return
    for first in range(least, m // 2 + 1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest
    if m >= least:
        yield (m,)


@lru_cache(maxsize=None)
def _sole_partition(m: int, least: int, parity: Optional[int]) -> Optional[tuple[int, ...]]:
    """The only partition of m into parts >= least with (m - number of
    parts) = parity mod 2 (any parity when None); None when there are none
    or several."""
    fits = (q for q in _partitions(m, least) if parity is None or (m - len(q)) % 2 == parity)
    found = list(islice(fits, 2))
    return found[0] if len(found) == 1 else None


@lru_cache(maxsize=None)
def _settled(n: int, roots: Optional[int], parity: Optional[int]) -> Optional[CycleType]:
    """The cycle type of a squarefree polynomial of degree n over F_p with
    ``roots`` roots there (None when they are not counted yet) whose
    Frobenius has the given parity (either when None), if one pattern fits:
    the stop rule of ``good_prime_cycle_type`` at step 1, or at step 2 after
    the root count.  None when several fit, and also when none does, so that
    the loop is left to report the contradiction."""
    if roots is None:
        sole = _sole_partition(n, 1, parity)
    else:
        rest = _sole_partition(n - roots, 2, parity)
        sole = None if rest is None else (1,) * roots + rest
    return None if sole is None else _cycle_type(sole)


def distinct_degree_pattern(f: list[int], p: int, parity: Optional[int] = None) -> list[int]:
    """Degrees (with multiplicity, ascending) of the irreducible factors of a
    squarefree f of full degree over F_p (f reduced mod p, constant first),
    by the distinct-degree factorization of ``good_prime_cycle_type``."""
    return sorted(good_prime_cycle_type(f, p, parity).parts)


def reduce_poly_mod(f: Poly, p: int) -> list[int]:
    """Coefficients of f mod p; raises if a denominator is divisible by p."""
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise ValueError(f"coefficient denominator divisible by {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return _ptrim(out)


def frobenius_parity(disc: int, p: int) -> int:
    """Parity of Frobenius at a good prime p as a permutation of the roots,
    (degree - number of factors mod p) mod 2, from the integer discriminant.

    Stickelberger's theorem (R. G. Swan, "Factorization of polynomials over
    finite fields", Pacific J. Math. 12, 1962): for an integral polynomial
    with p dividing neither its leading coefficient nor disc, the parity is
    odd exactly when disc is not a square mod p for odd p, and exactly when
    disc == 5 mod 8 for p = 2.
    """
    if p == 2:
        return int(disc % 8 == 5)
    return int(pow(disc % p, (p - 1) // 2, p) != 1)


def good_prime_cycle_type(
    coeffs: list[int], p: int, parity: Optional[int] = None
) -> CycleType:
    """Cycle type of Frobenius at p for the integer polynomial ``coeffs``
    (constant first) when p is a good prime for it, by distinct-degree
    factorization of its reduction mod p.

    The caller vouches that p is prime, does not divide the leading
    coefficient and leaves the reduction squarefree, and that ``parity``,
    when given, is the parity of Frobenius (see ``frobenius_parity``); none
    of that is rechecked here.

    Step k splits off the factors of degree k, so the rest of f has factors
    of degree > k only.  The loop stops once the rest has a single possible
    pattern: without ``parity`` when it is irreducible (2k > its degree);
    with ``parity`` = (deg f - number of factors) mod 2 when one partition
    of the rest's degree into parts > k has the parity still owed.  At step
    1, and at step 2 after the root count, that rule is read off
    ``_settled``, before the monic reduction.  Below ROOT_PRIME_BOUND step 1
    counts the roots from the packed values of f, and lists them to divide
    them out only when a later step needs the rest.  The first step that
    needs x^(p^k) builds the ring F_p[x]/(g0), g0 the monic rest of f then,
    and powers x^p in it once; each later step composes the previous power
    with x^p instead of powering again.  Equal patterns return one shared
    ``CycleType``.
    """
    n = len(coeffs) - 1
    settled = _settled(n, None, parity)
    if settled is not None:
        return settled
    f = [c % p for c in coeffs]
    values = _values_mod(f, p) if p < ROOT_PRIME_BOUND else None
    out: list[int] = []  # the factor degrees split off
    k = 1
    if values is not None:
        out = [1] * _root_count(values, p)
        settled = _settled(n, len(out), parity)
        if settled is not None:
            return settled
        k = 2
    inv = pow(f[-1], -1, p)
    g = [c * inv % p for c in f]  # monic f without the factors split off
    ring: Optional[_Ring] = None  # F_p[x]/(g0), g0 = g when x^p is first needed
    xp = 0  # x^p in ring
    h: list[int] = []  # x^(p^k) mod g0
    while True:
        if 2 * k > n - sum(out):
            raise ArithmeticError(f"parity {parity} contradicts the factorization mod {p}")
        if ring is None:
            if out:  # the counted roots
                for r in _roots_mod(f, p, values):
                    g = _pdiv_exact(g, [-r % p, 1], p)
            ring = _Ring(g, p)
            xp = _x_power(p, ring)
            h = ring.coeffs(xp)
        if k > 1:
            h = ring.compose(h, xp)  # h(x)^p = h(x^p) over F_p
        gk = _pgcd(g, [h[0], h[1] - 1] + h[2:], p)  # gcd(g, x^(p^k) - x)
        if _pdeg(gk) > 0:
            out.extend([k] * (_pdeg(gk) // k))
            g = _pdiv_exact(g, gk, p)
        k += 1
        owed = None if parity is None else (parity - sum(out) + len(out)) % 2
        sole = _sole_partition(n - sum(out), k, owed)
        if sole is not None:
            return _cycle_type(tuple(sorted(out + list(sole))))


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
