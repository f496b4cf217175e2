"""Exact polynomial arithmetic over Q, over Z, over Q[t] and over Z[t].

One dense polynomial class carries every ring operation.  ``Poly`` stores
``fractions.Fraction`` coefficients from the constant term up, so equality
tests and every ring operation are exact.  ``IntPoly`` is the same class over
Z, and ``BivarPoly`` and ``IntBivarPoly`` the same class over the coefficient
rings Q[t] and Z[t]: their x-coefficients are ``Poly`` or ``IntPoly`` values
in t.  The ring operations, the derivative among them, keep the class they
are called on.

Resultants run by fraction-free subresultant elimination (W. S. Brown, ACM
TOMS 4, 1978), written once with ordinary ring operators plus the exact
coefficient division the ring names (``_exact_div``), so it runs unchanged
over Z and over Z[t].  The whole chain, its pseudo-remainder included, runs
on plain coefficient lists in either ring and builds no polynomial between
steps.  ``resultant`` and ``discriminant`` of rational polynomials clear
the denominators once and eliminate over Z;
``discriminant_in_t`` clears once (``clear_bivar``) and eliminates over Z[t],
which is how discriminants of the twist families are obtained as exact
polynomials in t.  Naive Sylvester determinants exist only in the test suite
as an oracle.

Zero and constant polynomials are rejected with ``ValueError`` wherever the
operation is undefined; nothing silently returns 0.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

Coefficient = Union[Fraction, int]


def _frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"rational coefficient expected, got {type(c).__name__}")


def _exact_div(a, b):
    """a / b in Z or Q[t] where b is known to divide a; a nonzero remainder
    raises ``ArithmeticError``, since it would mean the elimination lost
    exactness."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact coefficient division in elimination")
    return q


class Poly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies x**i.

    The ring operations below, the derivative among them, are written for
    any coefficient ring: a subclass names its ring by ``_coerce`` (which
    turns an int or a coefficient into a ring element), ``_zero`` and
    ``_exact_div``.  A result whose coefficients are ring elements already,
    as when both operands are of one class, is built by ``_of`` without
    coercing them again.  Everything after them (division, evaluation,
    normal forms) needs the field Q.
    """

    __slots__ = ("coeffs",)

    _coerce = staticmethod(_frac)
    _zero = Fraction(0)
    _exact_div = staticmethod(_exact_div)

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        coerce = self._coerce
        cs = [coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, cs: list) -> "Poly":
        """The polynomial of this class with the coefficients cs, already in
        its ring (a ring operation's result), trimmed in place: no
        coefficient passes through ``_coerce`` again."""
        while cs and not cs[-1]:
            cs.pop()
        out = object.__new__(cls)
        out.coeffs = tuple(cs)
        return out

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._zero

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._of(out) if type(other) is type(self) else type(self)(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return self._of([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._of([])
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return self._of(out) if type(other) is type(self) else type(self)(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self._of([self._coerce(1)])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by the ring element c."""
        c = self._coerce(c)
        return self._of([c * a for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return self._of([self._zero] * k + list(self.coeffs))

    def derivative(self) -> "Poly":
        return self._of([self._coerce(i) * c for i, c in enumerate(self.coeffs)][1:])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        da, db = self.degree, other.degree
        if da < db:
            return Poly(), self
        rem = list(self.coeffs)
        quo = [Fraction(0)] * (da - db + 1)
        inv = 1 / _frac(other.lead)
        for k in range(da - db, -1, -1):
            c = rem[db + k] * inv
            if c:
                quo[k] = c
                for j, oc in enumerate(other.coeffs):
                    rem[j + k] -= c * oc
        return Poly(quo), Poly(rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x0: Coefficient) -> Fraction:
        x0 = _frac(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def reverse(self) -> "Poly":
        """Reciprocal polynomial x**deg * self(1/x)."""
        return Poly(tuple(reversed(self.coeffs)))

    # -- normal forms --------------------------------------------------------

    def monic(self) -> "Poly":
        if not self:
            raise ValueError("cannot make zero polynomial monic")
        return self.scale(1 / self.lead)

    def content(self) -> Fraction:
        """Positive rational c with self = c * primitive integral polynomial."""
        if not self:
            raise ValueError("content of zero polynomial")
        num = 0
        den = 1
        for c in self.coeffs:
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """Integral polynomial with coprime coefficients; sign preserved."""
        return self.scale(1 / self.content())

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = f"{mag}"
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def binary_form_value(coeffs: Sequence[int], e: int, u: int, v: int) -> int:
    """sum(coeffs[j] * u^j * v^(e - j)): the integer polynomial in t with
    these coefficients (constant first, degree <= e) read as a binary form
    of degree e, at (u, v)."""
    acc = 0
    vp = v ** (e + 1 - len(coeffs))
    for c in reversed(coeffs):
        acc = acc * u + c * vp
        vp *= v
    return acc


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q; gcd(0, 0) = 0."""
    while b:
        a, b = b, a % b
    return a.monic() if a else a


class IntPoly(Poly):
    """Polynomial with ``int`` coefficients: ``Poly`` over the ring Z, in
    which ``resultant`` and ``discriminant`` eliminate."""

    __slots__ = ()

    _coerce = staticmethod(operator.index)  # TypeError on a Fraction
    _zero = 0

    def monic(self) -> Poly:
        """The monic ``Poly`` over Q: dividing by the lead leaves Z, as
        ``divmod`` and ``reverse`` do."""
        return Poly(self.coeffs).monic()

    def primitive(self) -> "IntPoly":
        """Coprime integer coefficients; sign preserved."""
        c = self.content().numerator
        return IntPoly([a // c for a in self.coeffs])


class BivarPoly(Poly):
    """Polynomial in x whose coefficients are ``Poly`` values in t."""

    __slots__ = ()

    _zero = Poly()

    @staticmethod
    def _coerce(c) -> Poly:
        return c if isinstance(c, Poly) else Poly([c])

    @property
    def xcoeffs(self) -> tuple[Poly, ...]:
        return self.coeffs

    def eval_t(self, t0: Coefficient) -> Poly:
        """Specialize t, leaving a univariate polynomial in x."""
        t0 = _frac(t0)
        return Poly([c(t0) for c in self.coeffs])

    def __str__(self) -> str:
        return "[" + ", ".join(f"({c})" for c in self.coeffs) + "]"


class IntBivarPoly(Poly):
    """Polynomial in x whose coefficients are ``IntPoly`` values in t."""

    __slots__ = ()

    _zero = IntPoly()

    @staticmethod
    def _coerce(c) -> IntPoly:
        return c if isinstance(c, IntPoly) else IntPoly([c])

    @staticmethod
    def _exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
        """a / b in Z[t] where b is known to divide a: long division with
        integer ``divmod``; any remainder raises ``ArithmeticError``."""
        rem, db, lb = list(a.coeffs), b.degree, b.lead
        quo = [0] * max(len(rem) - db, 0)
        for k in reversed(range(len(quo))):
            quo[k], rem[k + db] = divmod(rem[k + db], lb)  # the remainder stays
            for j, c in enumerate(b.coeffs[:-1]):
                rem[k + j] -= quo[k] * c
        if any(rem):
            raise ArithmeticError("inexact coefficient division in elimination")
        return IntPoly._of(quo)


# ---------------------------------------------------------------------------
# Fraction-free subresultant elimination, shared by both coefficient rings.
# ---------------------------------------------------------------------------


def _pseudo_rem(a: Sequence, b: Sequence) -> list:
    """Pseudo-remainder of coefficient lists (constant first, trimmed, b
    nonempty): lead(b)**max(deg a - deg b + 1, 0) * a reduced mod b, as a
    trimmed list in the coefficients' ring.

    Each step drops the leading coefficient c of the running remainder and
    takes lead(b) times the rest minus c * b shifted into place, in one pass
    over the list, then trims.  A dividend of lower degree than b comes
    back as a copy.
    """
    db = len(b) - 1
    r = list(a)
    e = len(r) - db  # deg a - deg b + 1
    lb = b[-1]
    while len(r) > db:
        e -= 1
        c = r.pop()
        k = len(r) - db  # c * b is shifted by x^k
        r = [lb * x for x in r[:k]] + [lb * x - c * y for x, y in zip(r[k:], b)]
        while r and not r[-1]:
            r.pop()
    if e > 0:
        f = lb**e
        r = [f * x for x in r]
    return r


def _resultant_core(a, b):
    """Resultant of two nonzero polynomials via the subresultant sequence.

    Works over either coefficient ring, Z (``IntPoly``) or Z[t]
    (``IntBivarPoly``); the whole chain runs on the coefficient lists, and
    its intermediate divisions (the ring's ``_exact_div``) are exact by the
    subresultant theory.
    """
    div = a._exact_div
    one, zero = a._coerce(1), a._zero
    a, b = a.coeffs, b.coeffs
    sign = 1
    if len(a) < len(b):
        if not len(a) & 1 and not len(b) & 1:  # both degrees odd
            sign = -sign
        a, b = b, a
    if len(b) == 1:
        res = b[0] ** (len(a) - 1)
        return -res if sign < 0 else res
    g = h = one
    while True:
        delta = len(a) - len(b)
        if not len(a) & 1 and not len(b) & 1:
            sign = -sign
        rem = _pseudo_rem(a, b)
        a = b
        divisor = g * h**delta
        b = rem if divisor == one else [div(c, divisor) for c in rem]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = div(g**delta, h ** (delta - 1))
        if not b:
            return zero  # shared factor: resultant vanishes
        if len(b) == 1:
            break
    da = len(a) - 1
    res = div(b[0] ** da, h ** (da - 1))
    return -res if sign < 0 else res


def _discriminant(f):
    """(-1)**(n(n-1)/2) / lc(f) * Res(f, f') over either coefficient ring."""
    n = f.degree
    disc = f._exact_div(_resultant_core(f, f.derivative()), f.lead)
    return -disc if (n * (n - 1) // 2) % 2 else disc


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def clear_denominators(f: Poly) -> tuple[IntPoly, int]:
    """(F, m): F = m * f with integer coefficients, m the lcm of the
    denominators of f; an ``IntPoly`` comes back as it is, with m = 1."""
    if isinstance(f, IntPoly):
        return f, 1
    m = math.lcm(*(c.denominator for c in f.coeffs))
    return IntPoly([c.numerator * (m // c.denominator) for c in f.coeffs]), m


def clear_bivar(p: BivarPoly) -> tuple[IntBivarPoly, int]:
    """(F, L): F = L * p over Z[t], L the lcm of the denominators in p."""
    den = math.lcm(*(c.denominator for xc in p.coeffs for c in xc.coeffs))
    cleared = [[c.numerator * (den // c.denominator) for c in xc.coeffs] for xc in p.coeffs]
    return IntBivarPoly(map(IntPoly, cleared)), den


def _primitive_int(coeffs: Sequence[int]) -> tuple[list[int], int]:
    """(prim, c) with coeffs = c * prim for integers coeffs (constant first,
    last one nonzero): c is their gcd with the sign of the last, so prim has
    coprime coefficients and a positive lead."""
    c = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        c = -c
    return [x // c for x in coeffs], c


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g); equals the Sylvester determinant of f and g.

    Runs over Z: Res(F/a, G/b) = Res(F, G) / (a^deg g * b^deg f).
    """
    if not f or not g:
        raise ValueError("resultant requires nonzero polynomials")
    (fi, a), (gi, b) = clear_denominators(f), clear_denominators(g)
    return Fraction(_resultant_core(fi, gi), a**g.degree * b**f.degree)


def discriminant(f: Poly) -> Fraction:
    """(-1)**(n(n-1)/2) / lc(f) * Res(f, f'); zero iff f has a repeated root.

    Runs over Z: disc(F/m) = disc(F) / m^(2n-2).
    """
    if f.degree < 1:
        raise ValueError("discriminant requires degree >= 1")
    fi, m = clear_denominators(f)
    return Fraction(_discriminant(fi), m ** (2 * f.degree - 2))


def discriminant_in_t(p: BivarPoly) -> Poly:
    """Discriminant of p taken in x, returned as an exact polynomial in t.

    Runs over Z[t]: disc_x(F/L) = disc_x(F) / L^(2d-2) for (F, L) = clear_bivar(p).
    """
    if p.degree < 1:
        raise ValueError("discriminant requires x-degree >= 1")
    f, den = clear_bivar(p)
    m = den ** (2 * f.degree - 2)
    return Poly([Fraction(c, m) for c in _discriminant(f).coeffs])


def squarefree_decompose(h: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition h = c * prod(factor**mult), factors pairwise coprime.

    Factors come back primitive with integer coefficients and positive
    leading coefficient, in increasing multiplicity; the rational unit c is
    whatever remains (recoverable as h divided by the product).  h is
    squarefull exactly when no returned factor has multiplicity one.
    """
    if not h:
        raise ValueError("cannot decompose the zero polynomial")
    if h.degree == 0:
        return []
    f = h.monic()
    a = poly_gcd(f, f.derivative())
    out: list[tuple[Poly, int]] = []
    if a.degree == 0:
        out.append((_normalize_factor(f), 1))
        return out
    b = f // a
    c = f.derivative() // a
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((_normalize_factor(a), i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


def _normalize_factor(f: Poly) -> Poly:
    g = f.primitive()
    return -g if g.lead < 0 else g


def descartes_sign_changes(f: Poly) -> int:
    """Sign changes over consecutive nonzero coefficients (positive-root bound)."""
    if not f:
        raise ValueError("zero polynomial")
    signs = [1 if c > 0 else -1 for c in f.coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_real_roots(f: Poly) -> int:
    """Number of distinct real roots of a squarefree f, by Sturm's theorem."""
    if f.degree < 1:
        raise ValueError("Sturm count requires degree >= 1")
    if poly_gcd(f, f.derivative()).degree != 0:
        raise ValueError("Sturm count requires a squarefree polynomial")
    chain = [f, f.derivative()]
    while chain[-1]:
        r = chain[-2] % chain[-1]
        if not r:
            break
        chain.append(-r)

    def changes(at_plus_infinity: bool) -> int:
        signs = []
        for g in chain:
            if not g:
                continue
            s = 1 if g.lead > 0 else -1
            if not at_plus_infinity and g.degree % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return changes(False) - changes(True)


def reduce_mod(f: Poly, p: Poly) -> Poly:
    """Remainder of f on division by p; degree < deg p."""
    if p.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    return f % p
