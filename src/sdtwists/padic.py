"""p-adic valuations, Newton polygons and mod-p cycle types.

The Newton polygon of sum(a_i x^i) at p is the lower convex hull of the
points (i, v_p(a_i)).  Sign convention, used everywhere in this package:
a segment of slope s carries roots of valuation -s, with multiplicity equal
to the segment's horizontal length.  A segment of slope m/n in lowest terms
and horizontal length exactly n, with every other slope's denominator
coprime to n, certifies an n-cycle in the Galois group of the polynomial.

The cycle type of Frobenius at a good prime p lists the degrees of the
irreducible factors of f mod p, n = deg f; primes where the reduction
degenerates (leading coefficient or squarefreeness lost) are reported as
bad rather than raised.  One rule counts the factors: N_k, the number of
roots of f in F_(p^k), is the sum of d * c_d over the d dividing k, c_d
being the number of factors of degree d, so step k = 1, 2, ... reads
c_k = (N_k - sum of d * c_d over the d < k dividing k) / k.  The loop stops
at the first step whose counts leave one pattern.  A caller that holds the
exact discriminant may pass the parity of Frobenius (``frobenius_parity``,
by Stickelberger's theorem), and the counts then need only leave one
pattern of that parity, so an odd cubic or a quadratic needs no F_p
arithmetic; ``frobenius_cycle_type`` has no discriminant and runs the full
loop.  Each prime, degree and parity has one cached plan (``_settle_plan``)
with that stop rule (``_StopRule``).  The counts have four sources:

- Below ``ROOT_PRIME_BOUND`` (256), N_1 is a root count on packed integers
  alone (``_RootPlan``): f is evaluated at every a in F_p at once, as one
  sum of n + 1 packed integers whose w-bit slots hold a^i mod p; one
  Barrett step (P. Barrett, CRYPTO '86) reduces every slot mod p; adding
  2^(w - 1) - 1 to every slot then sets a slot's top bit exactly when its
  value is nonzero, and the popcount of the top bits is p - N_1.  The step
  is exact while every slot value times magic fits in w bits
  (``_barrett_constants``), so w is the fewest whole bytes that hold it, 8
  to 40 bits for degrees up to 8 below 256, and at most 64 bits for every
  degree up to 67,376.  The columns a^i mod p do not depend on f, so they
  are kept per prime, slot width and length (``_point_columns``).
- Below ``PAIR_PRIME_BOUND`` (31), where that root count leaves the pattern
  open, c_2 is a root count too, over F_(p^2): each irreducible quadratic
  factor has its two roots a +- b*w outside F_p, w^2 = nu for a non-residue
  nu (w^2 = w + 1 at p = 2), so exactly one root among the points a + b*w
  with b = 1, ..., (p - 1)/2 (the single point w at p = 2).  The same
  ``_RootPlan`` evaluates f at all of them as two packed sums, one per
  coordinate, each reduced by one Barrett step with the bound and
  constants of the F_p count, and a point is a root when both coordinates
  vanish; F_p is the case b = 0.
- Every later N_k comes from the Frobenius matrix Q, whose column j is
  x^(jp) mod f (E. R. Berlekamp, "Factoring polynomials over large finite
  fields", Math. Comp. 24, 1970), computed once per prime in F_p[x]/(f) on
  packed integers (``_Ring``): x^p by one square-and-shift powering
  (``_x_power``), each later column as the one before times x^p.  When
  p > n, N_k = trace(Q^k) mod p: F_p[x]/(f) is the product of the fields
  F_(p^d) over f's factors of degree d, Frobenius^k fixes all d elements
  of a normal basis of each when d divides k and none otherwise, and their
  sum is at most n < p.  trace(Q^2) is the sum of Q_ij Q_ji, and only a
  pattern still open then forms Q^(k - 1), one packed matrix-vector
  product per column, for k >= 3.
- When p <= n that trace is known only mod p, so
  N_k = deg gcd(f, x^(p^k) - x), with x^(p^k) read off Q as Q times
  x^(p^(k - 1)).

With the parity, a polynomial of degree at most 5, or a sextic with a root
mod p, is settled at k = 1 without the ring, and a sextic without a root
at k = 2: below PAIR_PRIME_BOUND by the pair count, with no ring at all,
and from there on by trace(Q^2).  Below PAIR_PRIME_BOUND only degree 7 and
up, or a count without the parity, goes on to the ring, from k = 3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import itemgetter, mul
from typing import Iterator, Optional, Union

from .polyarith import Poly
from .primes import is_prime, valuation_int

INFINITY = math.inf

# Primes below this bound read N_1 off the packed root count of
# ``_root_plan`` (module docstring).
ROOT_PRIME_BOUND = 256
# Primes below this bound read c_2 off the packed count at the pair points
# of F_(p^2) (module docstring) where the root count leaves the pattern
# open.  Per rootless sextic (CPython 3.11, one core), that count against
# the ring and trace(Q^2) took 1.1 against 19 us at p = 2, 7.5 against 22
# at p = 19, 19.5 against 22 at p = 29, 21.5 against 22 at p = 31 and 28
# against 22 at p = 37: the bound is the crossover.
PAIR_PRIME_BOUND = 31


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


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored descending; parts sum to the degree.
    ``label`` is its ``str`` and ``_hash`` its hash, each computed once."""

    parts: tuple[int, ...]
    label: str = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(sorted(self.parts, reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError("cycle type parts must be positive")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "label", "[" + ",".join(map(str, parts)) + "]")
        object.__setattr__(self, "_hash", hash((parts,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return self.label


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
    pts = [  # p is proved prime once, above, not once per coefficient
        (i, Fraction(valuation_int(c.numerator, p) - valuation_int(c.denominator, p)))
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
# Dense F_p[x] kernels (coefficients are ints, constant first), the packed
# ring F_p[x]/(f) and the root count that give N_k (module docstring).
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


@lru_cache(maxsize=None)
def _ring_layout(
    p: int, n: int
) -> tuple[int, int, int, int, int, tuple[tuple[int, int, int], ...]]:
    """(bound, shift, magic, width, quotient mask, folds) of every ``_Ring``
    of degree n at p: all of it but the packed row of its modulus.  folds
    holds (position of slot t, mask of the slots below it, position of slot
    t - n) for t from 2n - 1 down to n."""
    bound = 2 * n * (p - 1) ** 2
    shift, magic = _barrett_constants(bound, p)
    w = -(-(bound * magic).bit_length() // 64) * 64
    folds = tuple((t * w, (1 << t * w) - 1, (t - n) * w) for t in range(2 * n - 1, n - 1, -1))
    return bound, shift, magic, w, _repeat((1 << (w - shift)) - 1, w, n), folds


class _Ring:
    """F_p[x]/(g) for g the monic multiple of f, of degree n >= 2 over F_p
    (f reduced mod p, constant first).

    An element is a packed integer whose slot j, ``width`` bits wide, holds
    the coefficient of x^j.  A product is one integer multiplication; the
    slots above n - 1 are then folded back one per step, from the highest in
    use, as (its value mod p) times the packed row of x^n == sum(red[j] x^j),
    shifted into place; and one Barrett step reduces every slot mod p at once.

    Bound: a product of reduced operands, times x or not, holds at most
    n(p - 1)^2 in any slot, since no slot sums more than n products of two
    coefficients.  Slot j receives the fold of each slot t in use with
    n <= t <= j + n, at most n of them, and each adds at most (p - 1)^2.
    So no slot exceeds ``bound`` = 2n(p - 1)^2, and a matrix-vector product
    (``apply``), at most n(p - 1)^2 in any slot, stays within it too.  The
    Barrett constants come from ``_barrett_constants`` for that bound, and
    the width, a multiple of 64 bits, holds bound * magic, so no slot
    carries into the next at any step.  All of that depends on p and n
    alone and comes from ``_ring_layout``.
    """

    __slots__ = ("p", "n", "width", "bound", "_shift", "_magic", "_quotient_mask", "_folds")

    def __init__(self, f: list[int], p: int):
        n = _pdeg(f)
        self.p, self.n = p, n
        self.bound, self._shift, self._magic, self.width, self._quotient_mask, folds = _ring_layout(
            p, n
        )
        minus_inv = p - pow(f[-1], -1, p)  # x^n == -(f - lc(f) x^n) / lc(f)
        red = self.pack([c * minus_inv % p for c in f[:-1]])
        # (position of slot t, the slots below it, x^t == red * x^(t - n)) from t = 2n - 1 down to n
        self._folds = [(position, below, red << offset) for position, below, offset in folds]

    def pack(self, coeffs: list[int]) -> int:
        """The packed integer with these slot values, each below 2^width."""
        packed = 0
        for c in reversed(coeffs):
            packed = packed << self.width | c
        return packed

    def coeffs(self, *elements: int) -> list[int]:
        """The n coefficients of each of these reduced elements, one element
        after another."""
        size = self.width // 8
        data = b"".join([e.to_bytes(self.n * size, "little") for e in elements])
        if size == 8 and sys.byteorder == "little":
            return memoryview(data).cast("Q").tolist()
        return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]

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

    def apply(self, columns: list[int], v: list[int]) -> int:
        """The matrix with these packed columns, reduced, times the vector v
        of coefficients below p: sum(v[j] * columns[j]), reduced."""
        return self.reduce(sum(map(mul, v, columns)))


def _x_power(e: int, ring: _Ring) -> int:
    """x^e in ``ring`` for e >= 1, by squaring and shifting: from x, one
    squaring per lower bit of e, times x as well when the bit is 1."""
    r = ring.mul(1 << ring.width, 1)
    for i in range(e.bit_length() - 2, -1, -1):
        r = ring.mul(r, r, bool(e >> i & 1))
    return r


# The widest root-count slot (module docstring).
_ROOT_SLOT_BITS = 64


@lru_cache(maxsize=None)
def _point_columns(
    p: int, width: int, count: int, pairs: bool
) -> tuple[int, tuple[int, ...], Optional[tuple[int, ...]]]:
    """The number of points of a ``_RootPlan`` and the first ``count``
    packed columns of both coordinates of z^i, with ``width``-bit slots, for
    z over them: F_p, or, with ``pairs``, one point of each conjugate pair
    of F_(p^2) outside F_p, z = a + b*w with w^2 = nu, a non-residue mod p,
    and b = 1, ..., (p - 1)/2 at odd p (the conjugate of a + b*w is
    a - b*w), the single point w with w^2 = w + 1 at p = 2.  On F_p slot a
    of column i holds a^i mod p, and the second coordinates, all 0, are
    None and not built.  Past the order of the unit group (p - 1, or
    p^2 - 1 for pairs), column i is column i - order, since z^order = 1 for
    z != 0 and 0^i = 0 for i >= 1, and shares its object.  The table is
    cached per ``count``, so each count rebuilds the columns below it; past
    the order that is only a copy of references."""
    t = nu = 0
    if not pairs:
        order, points = p - 1, [(a, 0) for a in range(p)]
    elif p == 2:
        order, t, nu, points = 3, 1, 1, [(0, 1)]
    else:
        order, nu = p * p - 1, next(a for a in range(2, p) if pow(a, p >> 1, p) == p - 1)
        points = [(a, b) for b in range(1, p // 2 + 1) for a in range(p)]
    size = width // 8

    def packed(coordinates) -> int:
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in coordinates), "little")

    powers = [(1, 0)] * len(points)  # z^i, as (x, y) for x + y*w
    xs, ys = [], []
    for i in range(count):
        if i > order:
            xs.append(xs[i - order])
            if pairs:
                ys.append(ys[i - order])
            continue
        xs.append(packed(x for x, _ in powers))
        if pairs:
            ys.append(packed(y for _, y in powers))
        powers = [  # (x + y*w)(a + b*w), w^2 = nu + t*w
            ((x * a + y * b * nu) % p, (x * b + y * a + y * b * t) % p)
            for (x, y), (a, b) in zip(powers, points)
        ]
    return len(points), tuple(xs), tuple(ys) if pairs else None


class _RootPlan:
    """The roots of every polynomial over F_p with ``count`` coefficients
    among a set of points of F_(p^2): the packed columns, the Barrett
    constants and the top-bit masks at the slot width ``width`` above.  The
    points are F_p itself, or, with ``pairs``, one point of each conjugate
    pair outside F_p (``_point_columns``), where f is evaluated as two packed
    sums, one per coordinate; F_p is the case of second coordinates 0."""

    __slots__ = (
        "p", "width", "size", "columns", "_second_columns", "_shift", "_magic", "_quotient_mask",
        "_offset", "_tops",
    )

    def __init__(self, p: int, width: int, shift: int, magic: int, count: int, pairs: bool = False):
        self.p, self.width, self._shift, self._magic = p, width, shift, magic
        self.size, self.columns, self._second_columns = _point_columns(p, width, count, pairs)
        self._quotient_mask = _repeat((1 << (width - shift)) - 1, width, self.size)
        top = 1 << width - 1
        self._offset, self._tops = _repeat(top - 1, width, self.size), _repeat(top, width, self.size)

    def values(self, f: list[int], columns: Optional[tuple[int, ...]] = None) -> int:
        """f(z) mod p in the slot of every point z, packed, for f reduced mod
        p (constant first) with ``count`` coefficients: on F_p the value
        itself, in slot a for z = a; at the pair points its first
        coordinate, or the coordinate whose ``columns`` are given."""
        packed = sum(map(mul, f, self.columns if columns is None else columns))
        return packed - (packed * self._magic >> self._shift & self._quotient_mask) * self.p

    def roots(self, f: list[int]) -> int:
        """The number of roots of f among the points: adding 2^(w - 1) - 1
        sets the top bit of exactly the nonzero slots of a coordinate, and a
        point is a root when neither coordinate has it set."""
        nonzero = self.values(f) + self._offset
        if self._second_columns is not None:
            nonzero |= self.values(f, self._second_columns) + self._offset
        return self.size - (nonzero & self._tops).bit_count()


def _root_plan(p: int, count: int, pairs: bool = False) -> Optional[_RootPlan]:
    """The ``_RootPlan`` of p for polynomials with ``count`` coefficients,
    at the points of F_p or, with ``pairs``, at the pair points, or None
    when no slot of at most _ROOT_SLOT_BITS bits makes the Barrett step
    exact.  Either coordinate of a point sums at most count * (p - 1)^2."""
    bound = count * (p - 1) ** 2
    shift, magic = _barrett_constants(bound, p)
    width = -(-(bound * magic).bit_length() // 8) * 8
    if width > _ROOT_SLOT_BITS:
        return None
    return _RootPlan(p, width, shift, magic, count, pairs)


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


class _StopRule(dict):
    """(c_1, ..., c_k) -> the cycle type of a squarefree polynomial of degree
    n over F_p with c_d factors of degree d <= k and a Frobenius of this
    parity (either when None), if one pattern fits, else None; filled on
    first use.  Counts that none fits raise ArithmeticError."""

    __slots__ = ("n", "parity")

    def __init__(self, n: int, parity: Optional[int]):
        super().__init__()
        self.n, self.parity = n, parity

    def __missing__(self, counts: tuple[int, ...]) -> Optional[CycleType]:
        found = [d for d, c in enumerate(counts, 1) for _ in range(c)]
        rest = self.n - sum(found)
        owed = None if self.parity is None else (self.parity - sum(found) + len(found)) % 2
        sole = _sole_partition(rest, len(counts) + 1, owed)
        if sole is None and rest < 2 * len(counts) + 2:  # the rest is [rest] or (), of the wrong parity
            raise ArithmeticError(f"parity {self.parity} contradicts the factor counts {counts}")
        self[counts] = settled = None if sole is None else _cycle_type(tuple(found) + sole)
        return settled


@lru_cache(maxsize=None)
def _settle_plan(p: int, n: int, parity: Optional[int]) -> tuple:
    """(the cycle type the parity alone leaves, if any; else the packed
    counts of p, the ``_RootPlan`` of c_1 if p < ROOT_PRIME_BOUND and then
    that of c_2 if p < PAIR_PRIME_BOUND and a root count can leave the
    pattern open; the ``_StopRule``).  After r roots the other parts are at
    least 2 and sum to n - r, and one pattern fits when n - r < 4, or with
    the parity when n - r < 6 ([4] and [2, 2], [5] and [2, 3] differ in
    parity).  The plan keeps the cutoffs it was built under until
    ``cache_clear``."""
    stop = _StopRule(n, parity)
    settled = stop[()]
    counters: tuple[_RootPlan, ...] = ()
    if settled is None and p < ROOT_PRIME_BOUND:
        roots = _root_plan(p, n + 1)
        if roots is not None:
            pairs = p < PAIR_PRIME_BOUND and n >= (4 if parity is None else 6)
            counters = (roots, _root_plan(p, n + 1, True)) if pairs else (roots,)
    return settled, counters, stop


def _frobenius_columns(ring: _Ring) -> list[int]:
    """The packed columns x^(jp), j < n, of the Frobenius matrix of ``ring``:
    one powering and n - 2 products."""
    xp = _x_power(ring.p, ring)
    columns = [1, xp]
    for _ in range(ring.n - 2):
        columns.append(ring.mul(columns[-1], xp))
    return columns


@lru_cache(maxsize=None)
def _transpose(n: int) -> itemgetter:
    """Reads an n x n matrix, flat column by column, as its transpose."""
    return itemgetter(*[i * n + j for j in range(n) for i in range(n)])


def _root_counts(f: list[int], ring: _Ring, columns: list[int], first: int) -> Iterator[int]:
    """N_k, the number of roots of f in F_(p^k), for k = first, first + 1,
    ... (first is 1, 2 or 3), from the Frobenius matrix Q with these
    columns: deg gcd(f, x^(p^k) - x) when p <= n, else trace(Q^k) mod p
    (module docstring)."""
    p, n = ring.p, ring.n
    if p <= n:
        h = ring.coeffs(columns[1])  # x^(p^k), k = 1
        for _ in range(first - 1):
            h = ring.coeffs(ring.apply(columns, h))
        while True:
            yield _pdeg(_pgcd(f, [h[0], h[1] - 1] + h[2:], p))
            h = ring.coeffs(ring.apply(columns, h))
    matrix = ring.coeffs(*columns)  # Q, column by column: matrix[j * n + i] = Q_ij
    if first == 1:
        yield sum(matrix[:: n + 1]) % p
    transpose = _transpose(n)
    power, k = matrix, 2  # Q^(k - 1), column by column
    while True:
        if k >= first:
            yield sum(map(mul, matrix, transpose(power))) % p  # sum of Q_ij (Q^(k - 1))_ji
        power = ring.coeffs(*[ring.apply(columns, power[j : j + n]) for j in range(0, n * n, n)])
        k += 1


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
    disc == 5 mod 8 for p = 2.  So disc may be given by its residue mod p,
    or mod 8 at p = 2.
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

    Step k reads c_k, the number of factors of degree k, as
    (N_k - sum of d * c_d over the d < k dividing k) / k, N_k being the
    number of roots of f in F_(p^k), and the loop stops at the first step
    whose counts, with ``parity`` = (deg f - number of factors) mod 2 when it
    is given, leave one pattern, as the cached plan of p, deg f and the
    parity says (``_settle_plan``); step 0 reads the parity alone.  Below
    ROOT_PRIME_BOUND, c_1 is the packed root count, and below
    PAIR_PRIME_BOUND c_2 the packed count at the pair points of F_(p^2).
    The first step that needs more builds the ring on f and its Frobenius
    matrix Q once, and reads each later N_k off Q (``_root_counts``).
    Equal patterns return one shared ``CycleType``.
    """
    n = len(coeffs) - 1
    settled, counters, stop = _settle_plan(p, n, parity)
    if settled is not None:
        return settled
    f = [c % p for c in coeffs]
    counts = []  # counts[d - 1] = c_d
    for counter in counters:
        counts.append(counter.roots(f))
        settled = stop[tuple(counts)]
        if settled is not None:
            return settled
    ring = _Ring(f, p)
    for total in _root_counts(f, ring, _frobenius_columns(ring), len(counts) + 1):
        k = len(counts) + 1
        found = sum(d * counts[d - 1] for d in range(1, k // 2 + 1) if k % d == 0)
        counts.append((total - found) // k)
        settled = stop[tuple(counts)]
        if settled is not None:
            return settled


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
