"""Exact polynomial arithmetic over Q and over Q[t].

One dense polynomial class carries every ring operation.  ``Poly`` stores
``fractions.Fraction`` coefficients from the constant term up, so equality
tests and every ring operation are exact.  ``BivarPoly`` is the same class
over the coefficient ring Q[t]: its x-coefficients are ``Poly`` values in t,
and it adds only what is particular to that ring (specializing t and the
x-derivative).

Resultants run by fraction-free subresultant elimination, written once with
ordinary ring operators plus one exact coefficient division, so it runs
unchanged over Q and over Q[t]; the latter is how discriminants of the twist
families are obtained as exact polynomials in t.  Naive Sylvester
determinants exist only in the test suite as an oracle.

Zero and constant polynomials are rejected with ``ValueError`` wherever the
operation is undefined; nothing silently returns 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Coefficient = Union[Fraction, int]


def _frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"rational coefficient expected, got {type(c).__name__}")


class Poly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies x**i.

    The ring operations below are written for any coefficient ring: a
    subclass names its ring by ``_coerce`` (which turns an int or a
    coefficient into a ring element) and ``_zero``.  Everything after them
    (division, evaluation, normal forms) needs the field Q.
    """

    __slots__ = ("coeffs",)

    _coerce = staticmethod(_frac)
    _zero = Fraction(0)

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        coerce = self._coerce
        cs = [coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

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
        return type(self)(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return type(self)([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)()
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return type(self)(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = type(self)([1])
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
        return type(self)([c * a for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return type(self)((self._zero,) * k + self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        da, db = self.degree, other.degree
        if da < db:
            return Poly(), self
        rem = list(self.coeffs)
        quo = [Fraction(0)] * (da - db + 1)
        inv = 1 / other.lead
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

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x0: Coefficient) -> Fraction:
        x0 = _frac(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def compose_linear(self, a: Coefficient, b: Coefficient) -> "Poly":
        """Return self(a*x + b)."""
        lin = Poly([b, a])
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * lin + Poly([c])
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


X = Poly([0, 1])


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

    def derivative_x(self) -> "BivarPoly":
        return BivarPoly([c.scale(i) for i, c in enumerate(self.coeffs)][1:])

    def eval_t(self, t0: Coefficient) -> Poly:
        """Specialize t, leaving a univariate polynomial in x."""
        t0 = _frac(t0)
        return Poly([c(t0) for c in self.coeffs])

    def __str__(self) -> str:
        return "[" + ", ".join(f"({c})" for c in self.coeffs) + "]"


# ---------------------------------------------------------------------------
# Fraction-free subresultant elimination, shared by both coefficient rings.
# ---------------------------------------------------------------------------


def _exact_div(a, b):
    """a / b for coefficients where b is known to divide a.

    Division in Q; in Q[t] a nonzero remainder raises ``ArithmeticError``,
    since it would mean the elimination lost exactness.
    """
    if not isinstance(b, Poly):
        return a / b
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact coefficient division in elimination")
    return q


def _pseudo_rem(a, b):
    """Pseudo-remainder: lead(b)**(deg a - deg b + 1) * a reduced mod b."""
    db = b.degree
    lb = b.lead
    r = a
    e = a.degree - db + 1
    while r and r.degree >= db:
        e -= 1
        r = r.scale(lb) - b.shift(r.degree - db).scale(r.lead)
    if e:
        r = r.scale(lb**e)
    return r


def _resultant_core(a, b):
    """Resultant of two nonzero polynomials via the subresultant sequence.

    Works over either coefficient ring; intermediate divisions are exact by
    the subresultant theory.
    """
    sign = 1
    if a.degree < b.degree:
        if (a.degree & 1) and (b.degree & 1):
            sign = -sign
        a, b = b, a
    if b.degree == 0:
        res = b.lead**a.degree
        return -res if sign < 0 else res
    g = h = a._coerce(1)
    while True:
        delta = a.degree - b.degree
        if (a.degree & 1) and (b.degree & 1):
            sign = -sign
        rem = _pseudo_rem(a, b)
        a = b
        divisor = g * h**delta
        b = type(rem)([_exact_div(c, divisor) for c in rem.coeffs])
        g = a.lead
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_div(g**delta, h ** (delta - 1))
        if not b:
            return a._zero  # shared factor: resultant vanishes
        if b.degree == 0:
            break
    da = a.degree
    res = _exact_div(b.lead**da, h ** (da - 1))
    return -res if sign < 0 else res


def _discriminant(f, df):
    """(-1)**(n(n-1)/2) / lc(f) * Res(f, f') over either coefficient ring."""
    n = f.degree
    disc = _exact_div(_resultant_core(f, df), f.lead)
    return -disc if (n * (n - 1) // 2) % 2 else disc


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g); equals the Sylvester determinant of f and g."""
    if not f or not g:
        raise ValueError("resultant requires nonzero polynomials")
    return _resultant_core(f, g)


def discriminant(f: Poly) -> Fraction:
    """(-1)**(n(n-1)/2) / lc(f) * Res(f, f'); zero iff f has a repeated root."""
    if f.degree < 1:
        raise ValueError("discriminant requires degree >= 1")
    return _discriminant(f, f.derivative())


def discriminant_in_t(p: BivarPoly) -> Poly:
    """Discriminant of p taken in x, returned as an exact polynomial in t."""
    if p.degree < 1:
        raise ValueError("discriminant requires x-degree >= 1")
    return _discriminant(p, p.derivative_x())


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
