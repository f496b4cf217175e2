"""Normalized Weierstrass models, twist families and the induced point.

Given a nonsingular curve y^2 = x^3 + ax + b over Q and a degree d >= 3,
``build_model`` produces an isomorphic model y^2 = f(x) = x^3 + Bx^2 + Cx + D
together with three auxiliary primes p1 < p2 < p3 avoiding
6 * d * (d-3) * (4a^3 + 27b^2) such that

  (i)   B, C, D lie in Z[1/p1],
  (ii)  v_p2(D) = 1 and v_p2(C) = 0,
  (iii) f == (x + a0)^3 mod p3 for the requested shift a0, and
  (iv)  |B - 3*alpha|, |C - 3*alpha^2|, |D - alpha^3| < epsilon.

The construction follows the shift / p3-rescale / p1-power-rescale steps:
find a simple root r of the curve polynomial mod p2 and lift it so the
shifted constant term is exactly divisible by p2; substitute
x -> (x + s)/p3^2 with the matching p3^6 rescale to force the cubic
congruence; finally x -> p1^(2k) (x + u) with p1^(-6k), choosing the
smallest admissible k that meets the epsilon box.

The twist family attached to the model is

    P(x, t) = t^2 x^d - f(x)          d even
    P(x, t) = x^(d-3) f(x) - t^2      d odd, d >= 5
    P(x, t) = f(x) - (x + t)^2        d = 3

with the induced y-coordinate t*x^(d/2), t*x^((3-d)/2), x + t respectively:
for each specialization t = u/v the pair (x, y) is a point on the curve over
Q[x]/(P(x, u/v)).

A sweep works on ``IntegerFamily``, the family with its denominators cleared
once into integer binary forms in (u, v): specializations, their
discriminants, the point check and Frobenius cycle types are read off those
forms in integer arithmetic.  ``specialize`` and ``verify_new_point`` run on
the same code for a single pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .padic import CycleType, good_prime_cycle_type, reduce_poly_mod, valuation
from .polyarith import (
    BivarPoly,
    Poly,
    binary_form_value,
    discriminant,
    discriminant_in_t,
    squarefree_decompose,
)
from .primes import multiplicative_order, primes, valuation_int

PARITY_CUBIC = "d=3"
PARITY_EVEN = "even"
PARITY_ODD = "odd>=5"

SIGN_GRID_DENOMINATOR = 64


@dataclass(frozen=True)
class WeierstrassModel:
    B: Fraction
    C: Fraction
    D: Fraction
    p1: int
    p2: int
    p3: int
    shift_target: int
    alpha: Fraction
    epsilon: Fraction
    forced_modulus: Optional[int] = None  # extra congruence f == x^3 mod this

    @property
    def f(self) -> Poly:
        return Poly([self.D, self.C, self.B, 1])


@dataclass(frozen=True)
class ModelCheck:
    denominators_at_p1: bool
    unit_divisibility: bool  # v_p2(D) = 1 and v_p2(C) = 0
    cubic_congruence: bool  # f == (x + shift)^3 mod p3
    epsilon_box: bool
    forced_congruence: Optional[bool] = None

    def all_ok(self) -> bool:
        forced = self.forced_congruence in (None, True)
        return (
            self.denominators_at_p1
            and self.unit_divisibility
            and self.cubic_congruence
            and self.epsilon_box
            and forced
        )


@dataclass(frozen=True)
class TwistFamily:
    d: int
    parity_case: str
    model: WeierstrassModel
    P: BivarPoly
    point_num: BivarPoly  # y numerator, in x and t
    point_den: BivarPoly  # y denominator
    identity_sign: int  # point_num^2 - f*point_den^2 == identity_sign * P


@dataclass(frozen=True)
class DiscriminantForm:
    t_power: int
    h: Poly  # monic
    unit: Fraction  # disc = unit * t^t_power * h(t)
    degree_h: int
    simple_factor: Optional[Poly]  # multiplicity-one factor, not t
    grid_positive: bool
    grid_negative: bool

    @property
    def non_squarefull(self) -> bool:
        return self.simple_factor is not None or any(
            m == 1 and g.degree >= 1 for g, m in squarefree_decompose(self.h)
        )

    @property
    def both_signs_on_unit_interval(self) -> bool:
        return self.grid_positive and self.grid_negative


def _exclusion_base(a: int, b: int, d: int, forced: Optional[int]) -> int:
    disc_g = -4 * a**3 - 27 * b**2
    if disc_g == 0:
        raise ValueError("curve is singular")
    n = 6 * d * abs(disc_g)
    if d != 3:
        n *= d - 3
    if forced:
        n *= forced
    return n


def _admissible_primes(excluded: int):
    for p in primes():
        if excluded % p:
            yield p


def build_model(
    curve: tuple[int, int],
    shift_target: int,
    alpha: Fraction | int,
    epsilon: Fraction | int,
    d: int,
    force_cubic_mod: Optional[int] = None,
    max_prime: int = 1000,
    max_k: int = 400,
) -> WeierstrassModel:
    """Construct a model satisfying properties (i)-(iv); deterministic.

    ``force_cubic_mod`` additionally demands f == x^3 modulo that integer
    (used to pin the discriminant class against a conductor); it requires
    shift_target = 0 and alpha = 0.
    """
    a, b = curve
    alpha = Fraction(alpha)
    epsilon = Fraction(epsilon)
    if d < 3:
        raise ValueError("degree must be at least 3")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if force_cubic_mod is not None:
        if force_cubic_mod < 2:
            raise ValueError("forced modulus must be >= 2")
        if shift_target != 0 or alpha != 0:
            raise ValueError("forced cubic congruence needs shift_target = 0 and alpha = 0")
    excluded = _exclusion_base(a, b, d, force_cubic_mod)
    g = Poly([b, a, 0, 1])
    gp = g.derivative()

    # p2 and a simple root of g mod p2, lifted so v_p2(g(r)) = 1.
    p2 = r = None
    for p in _admissible_primes(excluded):
        if p > max_prime:
            raise ValueError(
                f"no admissible p2 with a simple root below {max_prime} "
                f"(curve {curve}, d={d})"
            )
        for r0 in range(p):
            if g(r0) % p == 0 and gp(r0) % p != 0:
                p2, r = p, r0
                break
        if p2:
            break
    assert p2 is not None and r is not None
    for j in range(4):
        cand = r + j * p2
        val = g(cand)
        if val != 0 and valuation_int(int(val), p2) == 1:
            r = cand
            break
    else:
        raise ValueError(f"could not lift the root {r} mod {p2} to exact divisibility")

    f_cur = g.compose_linear(1, r)  # (x + r)^3 + a(x + r) + b

    if force_cubic_mod:
        n = force_cubic_mod
        f_cur = f_cur.compose_linear(Fraction(1, n**2), 0).scale(n**6)

    # p3 congruence step: x -> (x + s)/p3^2, rescaled by p3^6.
    gen = _admissible_primes(excluded * p2)
    p3 = next(gen)
    if shift_target:
        p2bar = pow(p2, -1, p3**2)
        s = shift_target * p2**2 * p2bar**2
    else:
        s = 0
    f_cur = f_cur.compose_linear(Fraction(1, p3**2), Fraction(s, p3**2)).scale(p3**6)
    if not f_cur.is_integral():
        raise AssertionError("p3 rescale left non-integral coefficients")

    gen = _admissible_primes(excluded * p2 * p3)
    p1 = next(gen)

    # u in Z[1/p1], divisible by p2^2 p3, with u^i within epsilon/4 of alpha^i.
    quarter = epsilon / 4
    if alpha == 0:
        u = Fraction(0)
    else:
        base = p2**2 * p3
        u = None
        for j in range(1, 500):
            scale = Fraction(p1) ** j
            m = math.floor(alpha * scale / base + Fraction(1, 2))
            cand = Fraction(m * base, p1**j)
            if all(abs(cand**i - alpha**i) < quarter for i in (1, 2, 3)):
                u = cand
                break
        if u is None:
            raise ValueError("could not approximate alpha inside Z[1/p1]")

    k_step = multiplicative_order(p1 * p1 % p3, p3) if shift_target else 1
    for k in range(k_step, max_k + 1, k_step):
        q = Fraction(1, p1 ** (2 * k))
        f_try = f_cur.compose_linear(p1 ** (2 * k), p1 ** (2 * k) * u).scale(q**3)
        model = WeierstrassModel(
            B=f_try.coeff(2),
            C=f_try.coeff(1),
            D=f_try.coeff(0),
            p1=p1,
            p2=p2,
            p3=p3,
            shift_target=shift_target,
            alpha=alpha,
            epsilon=epsilon,
            forced_modulus=force_cubic_mod,
        )
        if verify_model(model).all_ok():
            return model
    raise ValueError(
        f"no admissible rescale exponent k <= {max_k} met the epsilon box "
        f"(curve {curve}, d={d}, epsilon={epsilon})"
    )


def verify_model(model: WeierstrassModel) -> ModelCheck:
    """Check properties (i)-(iv) exactly."""
    p1, p2, p3 = model.p1, model.p2, model.p3
    denoms_ok = True
    for c in (model.B, model.C, model.D):
        den = c.denominator
        while den % p1 == 0:
            den //= p1
        if den != 1:
            denoms_ok = False

    div_ok = valuation(model.D, p2) == 1 and valuation(model.C, p2) == 0

    a0 = model.shift_target
    target = Poly([a0, 1]) ** 3
    diff = model.f - target
    cubic_ok = _zero_mod(diff, p3)

    al, eps = model.alpha, model.epsilon
    box_ok = (
        abs(model.B - 3 * al) < eps
        and abs(model.C - 3 * al**2) < eps
        and abs(model.D - al**3) < eps
    )

    forced_ok = None
    if model.forced_modulus:
        forced_ok = _zero_mod(Poly([model.D, model.C, model.B]), model.forced_modulus)

    return ModelCheck(denoms_ok, div_ok, cubic_ok, box_ok, forced_ok)


def _zero_mod(f: Poly, n: int) -> bool:
    """Whether every coefficient of f is 0 mod n (False if one is not n-integral)."""
    try:
        return not reduce_poly_mod(f, n)
    except ValueError:
        return False


def twist_polynomial(model: WeierstrassModel, d: int) -> TwistFamily:
    """The twist family and its induced point for the given degree."""
    if d < 3:
        raise ValueError("degree must be at least 3")
    f = model.f
    f_biv = BivarPoly([Poly([c]) for c in f.coeffs])
    t = Poly([0, 1])
    if d == 3:
        parity = PARITY_CUBIC
        # f(x) - (x + t)^2
        P = f_biv - BivarPoly([t * t, t.scale(2), Poly([1])])
        point_num = BivarPoly([t, Poly([1])])  # x + t
        point_den = BivarPoly([Poly([1])])
        sign = -1
    elif d % 2 == 0:
        parity = PARITY_EVEN
        xc = [-c for c in f.coeffs] + [Poly()] * (d - 4) + [t * t]
        P = BivarPoly(xc)
        point_num = BivarPoly([Poly()] * (d // 2) + [t])  # t x^(d/2)
        point_den = BivarPoly([Poly([1])])
        sign = 1
    else:
        parity = PARITY_ODD
        P = BivarPoly([Poly([c]) for c in f.shift(d - 3).coeffs]) - BivarPoly([t * t])
        point_num = BivarPoly([t])
        point_den = BivarPoly([Poly()] * ((d - 3) // 2) + [Poly([1])])  # x^((d-3)/2)
        sign = -1
    identity = point_num * point_num - f_biv * point_den * point_den
    expected = P if sign == 1 else -P
    if identity != expected:
        raise AssertionError("point identity failed for the constructed family")
    return TwistFamily(d, parity, model, P, point_num, point_den, sign)


def disc_form(family: TwistFamily) -> DiscriminantForm:
    """Discriminant of the family in x as unit * t^t_power * h(t), h monic.

    Checks the exact t-power and the degree of h (6, or 4 when d = 3),
    locates a multiplicity-one factor of h other than t, and evaluates the
    discriminant on the grid {k/64 : |k| <= 64} to exhibit both signs.
    """
    d = family.d
    disc = discriminant_in_t(family.P)
    expected_power = 0 if d == 3 else 2 * d - 8
    expected_deg_h = 4 if d == 3 else 6

    t_val = next((i for i, c in enumerate(disc.coeffs) if c), None)
    if t_val is None:
        raise ValueError("discriminant of the family vanishes identically")
    if d != 3 and t_val != expected_power:
        raise ValueError(
            f"t-power {t_val} differs from {expected_power}; model construction bug"
        )
    h_raw = Poly(disc.coeffs[expected_power:])
    if h_raw.degree != expected_deg_h:
        raise ValueError(
            f"deg h = {h_raw.degree}, expected {expected_deg_h}; model construction bug"
        )
    unit = h_raw.lead
    h = h_raw.monic()

    simple = None
    for factor, mult in squarefree_decompose(h):
        if mult != 1:
            continue
        reduced = factor
        if reduced.coeff(0) == 0:
            reduced = reduced // Poly([0, 1])
        if reduced.degree >= 1:
            simple = reduced
            break

    pos = neg = False
    for k in range(-SIGN_GRID_DENOMINATOR, SIGN_GRID_DENOMINATOR + 1):
        value = disc(Fraction(k, SIGN_GRID_DENOMINATOR))
        if value > 0:
            pos = True
        elif value < 0:
            neg = True
        if pos and neg:
            break

    return DiscriminantForm(
        t_power=expected_power,
        h=h,
        unit=unit,
        degree_h=h.degree,
        simple_factor=simple,
        grid_positive=pos,
        grid_negative=neg,
    )


def build_family(
    curve: tuple[int, int],
    d: int,
    epsilon: Fraction | int = Fraction(1, 2),
    force_cubic_mod: Optional[int] = None,
    max_prime: int = 1000,
) -> tuple[WeierstrassModel, TwistFamily, DiscriminantForm]:
    """Model + family + verified discriminant form, shrinking epsilon on failure.

    The shift and alpha targets are fixed by parity: 0 for d = 3, +1 for odd
    d >= 5 and -1 for even d, which is what makes h keep a unit factor and
    change sign on |t| <= 1.
    """
    if d == 3 or force_cubic_mod is not None:
        shift, alpha = 0, Fraction(0)
    elif d % 2 == 1:
        shift, alpha = 1, Fraction(1)
    else:
        shift, alpha = -1, Fraction(-1)
    eps = Fraction(epsilon)
    last_error = None
    for _ in range(12):
        model = build_model(
            curve, shift, alpha, eps, d,
            force_cubic_mod=force_cubic_mod, max_prime=max_prime,
        )
        family = twist_polynomial(model, d)
        try:
            form = disc_form(family)
        except ValueError as exc:
            last_error = exc
            eps /= 4
            continue
        if form.non_squarefull and form.both_signs_on_unit_interval:
            return model, family, form
        eps /= 4
    raise ValueError(f"no epsilon produced a sign-changing non-squarefull form: {last_error}")


# ---------------------------------------------------------------------------
# Integer forms: specialization, discriminant, point check and Frobenius
# cycle types read off P in integer arithmetic.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Forms:
    """x-coefficients of den * B(x, t) for a ``BivarPoly`` B, each an integer
    polynomial in t (constant first) read as a binary form of degree e, the
    largest t-degree in B, so that values(u, v)[i] = den * v^e * B_i(u/v)."""

    coeffs: tuple[tuple[int, ...], ...]
    den: int
    e: int

    @classmethod
    def of(cls, b: BivarPoly) -> "_Forms":
        den = math.lcm(*(c.denominator for xc in b.xcoeffs for c in xc.coeffs))
        return cls(
            coeffs=tuple(
                tuple(c.numerator * (den // c.denominator) for c in xc.coeffs)
                for xc in b.xcoeffs
            ),
            den=den,
            e=max(0, *(xc.degree for xc in b.xcoeffs)),
        )

    def values(self, u: int, v: int) -> list[int]:
        return [binary_form_value(c, self.e, u, v) for c in self.coeffs]


def _specialize(forms: _Forms, u: int, v: int) -> tuple[Poly, Fraction]:
    """(spec, lam): spec primitive integral with positive lead and
    B(x, u/v) = lam * spec, for the forms of B."""
    if v == 0:
        raise ValueError("v must be nonzero")
    if math.gcd(u, v) != 1:
        raise ValueError(f"({u}, {v}) is not a coprime pair")
    values = forms.values(u, v)  # den * v^e * B(x, u/v)
    while values and not values[-1]:
        values.pop()
    if not values:
        raise ValueError("specialization vanished identically")
    content = math.gcd(*values)
    if values[-1] < 0:
        content = -content
    spec = Poly([c // content for c in values])
    return spec, Fraction(content, forms.den * v**forms.e)


def _divides(b: list[int], a: list[int]) -> bool:
    """Whether the integer polynomial b (degree >= 1, constant first) divides
    a over Q: the pseudo-remainder of a by b vanishes."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and not r[-1]:
        r.pop()
    while len(r) > db:
        c = r.pop()  # r <- lb * r - c * x^k * b, whose top term cancels
        k = len(r) - db
        r = [lb * x for x in r]
        for j, bj in enumerate(b[:-1]):
            r[k + j] -= c * bj
        while r and not r[-1]:
            r.pop()
    return not r


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


class IntegerFamily:
    """A twist family in integer arithmetic, built once per sweep.

    Denominators are cleared once: L*P(x, t) = sum_i A_i(t) x^i with A_i in
    Z[t], read as binary forms A_i(u, v) of degree e = max deg A_i, and the
    point's numerator F, denominator G and the curve's f likewise.  Then
    ``specialize`` evaluates the forms at (u, v) and divides by the content;
    ``discriminant`` reads disc(spec) off Disc_t = discriminant_in_t(P),
    computed on first use, as Disc_t(u/v) / lam^(2d-2) when spec keeps
    degree d (the subresultant otherwise); ``point_holds`` decides F^2 -
    f*G^2 == 0 mod spec by an integer pseudo-remainder; and ``cycle_type``
    reads the Frobenius cycle type at a good prime p with p not dividing
    v*L off a table keyed by (p, u/v mod p), filled by the first pair with
    that key.  All of this state lives in the object, so nothing carries
    over from one sweep to the next.
    """

    def __init__(self, family: TwistFamily):
        self.family = family
        self.d = family.d
        self._P = _Forms.of(family.P)
        self._F = _Forms.of(family.point_num)
        self._G = _Forms.of(family.point_den)
        f = family.model.f.coeffs
        self._f_den = math.lcm(*(c.denominator for c in f))
        self._f = [c.numerator * (self._f_den // c.denominator) for c in f]
        self._disc: Optional[tuple[tuple[int, ...], int]] = None
        self._cycle_types: dict[tuple[int, int], CycleType] = {}

    def specialize(self, u: int, v: int) -> tuple[Poly, Fraction]:
        """(spec, lam) with spec = ``specialize(family, u, v)`` and
        P(x, u/v) = lam * spec."""
        return _specialize(self._P, u, v)

    def discriminant(self, spec: Poly, lam: Fraction, u: int, v: int) -> int:
        """disc(spec) for (spec, lam) = ``self.specialize(u, v)``.

        disc(lam * spec) = lam^(2d-2) disc(spec) when spec has degree d, and
        disc(P(x, u/v)) = Disc_t(u/v).  With Disc_t(u/v) = D(u, v) / (M v^K)
        for the integer binary form D of degree K = e(2d-2) and the
        denominator M of Disc_t, disc(spec) is an exact quotient of integers;
        a remainder raises ``ArithmeticError``.
        """
        d = self.d
        if spec.degree != d:
            return int(discriminant(spec))
        if self._disc is None:
            disc_t = discriminant_in_t(self.family.P)
            m = math.lcm(*(c.denominator for c in disc_t.coeffs))
            self._disc = tuple(c.numerator * (m // c.denominator) for c in disc_t.coeffs), m
        coeffs, m = self._disc
        k = self._P.e * (2 * d - 2)
        num = binary_form_value(coeffs, k, u, v) * lam.denominator ** (2 * d - 2)
        den = m * v**k * lam.numerator ** (2 * d - 2)
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError("family discriminant is not divisible at this specialization")
        return q

    def point_holds(self, spec: Poly, u: int, v: int) -> bool:
        """Whether y = F(x, u/v)/G(x, u/v) satisfies y^2 = f(x) modulo spec."""
        if spec.degree < 1:
            raise ValueError("specialized polynomial must have degree >= 1")
        if v == 0:
            raise ValueError("v must be nonzero")
        den = math.lcm(*(c.denominator for c in spec.coeffs))
        modulus = [c.numerator * (den // c.denominator) for c in spec.coeffs]
        # F = Fi/a, G = Gi/b and f = fi/f_den with integral Fi, Gi, fi, so
        # F^2 - f*G^2 is Fi^2 * b^2 * f_den - fi * Gi^2 * a^2 up to a unit.
        Fi, Gi = self._F.values(u, v), self._G.values(u, v)
        a = self._F.den * v**self._F.e
        b = self._G.den * v**self._G.e
        lhs = [c * b * b * self._f_den for c in _mul(Fi, Fi)]
        rhs = [c * a * a for c in _mul(self._f, _mul(Gi, Gi))]
        return _divides(modulus, [x - y for x, y in zip_longest(lhs, rhs, fillvalue=0)])

    def cycle_type(self, spec: list[int], p: int, u: int, v: int) -> CycleType:
        """Cycle type of Frobenius at p for spec = ``self.specialize(u, v)``
        (integer coefficients, constant first); the caller has decided that p
        is good for spec, i.e. divides neither lc(spec) nor disc(spec).

        For p not dividing v*L, spec mod p is a nonzero multiple of P(x, t)
        mod p at t = u/v mod p whenever the latter keeps degree d, so the two
        share their factor degrees, and P(x, t) mod p is then squarefree
        because spec is.  Such patterns are kept in a table keyed by (p, t)
        and read from there by every later pair with the same t mod p.  Every
        other case factors spec mod p directly.
        """
        if v % p == 0 or self._P.den % p == 0:
            return good_prime_cycle_type(spec, p)
        t = u * pow(v, -1, p) % p
        key = (p, t)
        ct = self._cycle_types.get(key)
        if ct is None:
            ct = good_prime_cycle_type(spec, p)
            if binary_form_value(self._P.coeffs[-1], self._P.e, t, 1) % p:
                self._cycle_types[key] = ct  # P(x, t) mod p has degree d
        return ct


def specialize(family: TwistFamily, u: int, v: int) -> Poly:
    """P(x, u/v) cleared to a primitive integral polynomial, positive lead.

    Evaluated from the integer forms of P, as in a sweep (``IntegerFamily``);
    ValueError when v = 0, gcd(u, v) != 1 or the specialization vanishes.
    """
    return _specialize(_Forms.of(family.P), u, v)[0]


def verify_new_point(p_spec: Poly, family: TwistFamily, u: int, v: int) -> bool:
    """Whether y = F(x,t0)/G(x,t0) satisfies y^2 = f(x) modulo p_spec, at
    t0 = u/v; decided in integers as in a sweep (``IntegerFamily``)."""
    return IntegerFamily(family).point_holds(p_spec, u, v)
