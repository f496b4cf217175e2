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
smallest admissible k that meets the epsilon box.  All of it runs on
integers: f is kept as an integer numerator over a power of p1, and
(i)-(iv) are decided on that numerator; only the model returned holds
``Fraction`` values.

The twist family attached to the model is

    P(x, t) = t^2 x^d - f(x)          d even
    P(x, t) = x^(d-3) f(x) - t^2      d odd, d >= 5
    P(x, t) = f(x) - (x + t)^2        d = 3

with the induced y-coordinate t*x^(d/2), t*x^((3-d)/2), x + t respectively:
for each specialization t = u/v the pair (x, y) is a point on the curve over
Q[x]/(P(x, u/v)).

A family keeps its integer view, cleared once: P and the point's numerator
and denominator as integer binary forms in (u, v) (``TwistFamily.forms`` and
``TwistFamily.point_forms``) and P's discriminant in x as an integer
polynomial in t, eliminated over Z[t] from P's forms
(``TwistFamily.disc_t``).  ``disc_form``, ``specialize`` and a sweep read
only those, in integer arithmetic, and every specialization is an
``IntPoly``, primitive with positive lead.  A sweep runs on the family
itself: ``TwistFamily.specialization`` gives the specialization with its
scale and ``TwistFamily.discriminant_at`` its discriminant off Disc_t.  The
Galois evidence reads the specialization alone, so the family keeps
nothing of a sweep.  The point needs no check per pair, since the family
identity is checked once, over Z[t], on the same forms.
``verify_new_point`` accepts any polynomial as the modulus, so it evaluates
the point's forms at (u, v) and tests F^2 - f*G^2 by the integer
pseudo-remainder of ``polyarith``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Optional, Sequence

from .padic import _pdeg, _pgcd
from .polyarith import (
    BivarPoly,
    IntBivarPoly,
    IntPoly,
    Poly,
    _discriminant,
    _primitive_int,
    _pseudo_rem,
    binary_form_value,
    clear_bivar,
    clear_denominators,
    squarefree_decompose,
)
from .primes import multiplicative_order, primes, valuation_int

# The least degree of a model, of a twist family and so of a sweep.
MIN_DEGREE = 3

PARITY_CUBIC = "d=3"
PARITY_EVEN = "even"
PARITY_ODD = "odd>=5"

SIGN_GRID_DENOMINATOR = 64
# Its numerators k, the ends first and then outward from 0: a built family
# has one sign at t = +-1 and the other near t = 0.
_SIGN_GRID = sorted(
    range(-SIGN_GRID_DENOMINATOR, SIGN_GRID_DENOMINATOR + 1),
    key=lambda k: (abs(k) < SIGN_GRID_DENOMINATOR, abs(k)),
)

# Search limits of ``build_model``.
MAX_PRIME = 1000
MAX_K = 400

# Primes ``disc_form`` tries for a squarefree reduction of h before Yun over Q.
SQUAREFREE_PRIMES = 16


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

    @cached_property
    def f_cleared(self) -> tuple[IntPoly, int]:
        """(F, m) = clear_denominators(f), computed once per model."""
        return clear_denominators(self.f)


@dataclass(frozen=True)
class ModelCheck:
    denominators_at_p1: bool
    unit_divisibility: bool  # v_p2(D) = 1 and v_p2(C) = 0
    cubic_congruence: bool  # f == (x + shift)^3 mod p3
    epsilon_box: bool
    forced_congruence: Optional[bool] = None

    def all_ok(self) -> bool:
        flags = (self.denominators_at_p1, self.unit_divisibility, self.cubic_congruence)
        return all(flags) and self.epsilon_box and self.forced_congruence in (None, True)


@dataclass(frozen=True)
class TwistFamily:
    d: int
    parity_case: str
    model: WeierstrassModel
    P: BivarPoly
    point_num: BivarPoly  # y numerator, in x and t
    point_den: BivarPoly  # y denominator
    identity_sign: int  # point_num^2 - f*point_den^2 == identity_sign * P

    @cached_property
    def identity_holds(self) -> bool:
        """Whether point_num^2 - f*point_den^2 == identity_sign * P in Q[t][x],
        computed once per family: where it holds, the point lies on the
        curve over Q[x]/(P(x, u/v)) at every specialization.  Decided over
        Z[t] for point_num = N/a, point_den = G/b (``point_forms``), f = F/m
        and P = Q/L, as L*(m*b^2*N^2 - a^2*F*G^2) == identity_sign*a^2*b^2*m*Q."""
        q, f, m = self.forms, *self.model.f_cleared
        num, den = self.point_forms
        n, a, g, b = num.poly, num.den, den.poly, den.den
        lhs = (n * n).scale(m * b * b) - IntBivarPoly(f.coeffs) * (g * g).scale(a * a)
        return lhs.scale(q.den) == q.poly.scale(self.identity_sign * a * a * b * b * m)

    @cached_property
    def disc_t(self) -> tuple[IntPoly, int]:
        """(D, m) = clear_denominators(discriminant_in_t(P)), computed once per
        family from D' = disc_x(L*P) over Z[t] on ``forms``: with M = L^(2d-2)
        and g = gcd(M, content of D'), (D, m) = (D'/g, M/g) and m > 0."""
        forms = self.forms
        disc, big_m = _discriminant(forms.poly), forms.den ** (2 * forms.poly.degree - 2)
        g = math.gcd(big_m, *disc.coeffs)
        return IntPoly([c // g for c in disc.coeffs]), big_m // g

    @cached_property
    def forms(self) -> "_Forms":
        """``_Forms.of(P)``: P's integer binary forms, built once per family."""
        return _Forms.of(self.P)

    @cached_property
    def point_forms(self) -> tuple["_Forms", "_Forms"]:
        """The integer forms of point_num and point_den, built once per family."""
        return _Forms.of(self.point_num), _Forms.of(self.point_den)

    def specialization(self, u: int, v: int) -> tuple[IntPoly, tuple[int, int]]:
        """(spec, lam): spec a primitive ``IntPoly`` with positive lead and
        P(x, u/v) = (c / w) * spec for lam = (c, w), the content c of the
        values of ``forms`` at (u, v) and w = L * v^e; the pair is not
        reduced to lowest terms.  ValueError when v = 0, gcd(u, v) != 1 or
        the specialization vanishes."""
        if v == 0:
            raise ValueError("v must be nonzero")
        if math.gcd(u, v) != 1:
            raise ValueError(f"({u}, {v}) is not a coprime pair")
        forms = self.forms
        values = forms.values(u, v)  # L * v^e * P(x, u/v)
        while values and not values[-1]:
            values.pop()
        if not values:
            raise ValueError("specialization vanished identically")
        spec, content = _primitive_int(values)
        return IntPoly(spec), (content, forms.den * v**forms.e)

    def discriminant_at(self, spec: IntPoly, lam: tuple[int, int], u: int, v: int) -> int:
        """disc(spec) for (spec, lam) = ``self.specialization(u, v)``.

        disc(lam * spec) = lam^(2d-2) disc(spec) when spec has degree d, and
        disc(P(x, u/v)) = Disc_t(u/v).  With Disc_t(u/v) = D(u, v) / (m v^K)
        for D of ``disc_t`` read as a binary form of degree K = e(2d-2),
        disc(spec) is an exact quotient of integers; a remainder raises
        ``ArithmeticError``.  A spec of lower degree takes the subresultant.
        """
        d = self.d
        if spec.degree != d:
            return _discriminant(spec)
        disc_t, m = self.disc_t
        k = self.forms.e * (2 * d - 2)
        lam_num, lam_den = lam
        num = binary_form_value(disc_t.coeffs, k, u, v) * lam_den ** (2 * d - 2)
        den = m * v**k * lam_num ** (2 * d - 2)
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError("family discriminant is not divisible at this specialization")
        return q


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
    return 6 * d * abs(disc_g) * (d - 3 or 1) * (forced or 1)


def _admissible_primes(excluded: int):
    for p in primes():
        if excluded % p:
            yield p


def _compose(coeffs: Sequence[int], a: int, b: int, den: int) -> list[int]:
    """Integer coefficients (constant first) of den^n * f((a*x + b)/den) for
    the integer polynomial f = ``coeffs`` of degree n, by Horner's rule."""
    acc, scale = [coeffs[-1]], 1
    for c in reversed(coeffs[:-1]):
        scale *= den
        tail = [a * hi + b * lo for hi, lo in zip(acc, acc[1:])]
        acc = [b * acc[0] + c * scale, *tail, a * acc[-1]]
    return acc


def build_model(
    curve: tuple[int, int],
    shift_target: int,
    alpha: Fraction | int,
    epsilon: Fraction | int,
    d: int,
    force_cubic_mod: Optional[int] = None,
) -> WeierstrassModel:
    """Construct a model satisfying properties (i)-(iv); deterministic.

    p2 is searched among the admissible primes up to ``MAX_PRIME`` (1000)
    and the rescale exponent k up to ``MAX_K`` (400); ValueError when either
    search comes up empty.

    The root search is Horner's rule mod p2, and each substitution
    x -> (a*x + b)/den maps integer coefficients to integer coefficients
    (``_compose``): f stays integral through the p3 rescale, and the k-th
    p1-power rescale is its numerator over p1^(6k + 3j), u = U/p1^j, which
    ``_check`` decides.  Only the model returned is built in ``Fraction``.

    ``force_cubic_mod`` additionally demands f == x^3 modulo that integer
    (used to pin the discriminant class against a conductor); it requires
    shift_target = 0 and alpha = 0.
    """
    a, b = curve
    alpha = Fraction(alpha)
    epsilon = Fraction(epsilon)
    if d < MIN_DEGREE:
        raise ValueError(f"degree must be at least {MIN_DEGREE}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if force_cubic_mod is not None:
        if force_cubic_mod < 2:
            raise ValueError("forced modulus must be >= 2")
        if shift_target != 0 or alpha != 0:
            raise ValueError("forced cubic congruence needs shift_target = 0 and alpha = 0")
    excluded = _exclusion_base(a, b, d, force_cubic_mod)

    # p2 and a simple root of g mod p2, lifted so v_p2(g(r)) = 1.
    for p2 in _admissible_primes(excluded):
        if p2 > MAX_PRIME:
            raise ValueError(
                f"no admissible p2 with a simple root below {MAX_PRIME} "
                f"(curve {curve}, d={d})"
            )
        roots = [x for x in range(p2) if (x * (x * x + a) + b) % p2 == 0 and (3 * x * x + a) % p2]
        if roots:
            break
    for r in range(roots[0], roots[0] + 4 * p2, p2):
        value = r * (r * r + a) + b
        if value and valuation_int(value, p2) == 1:
            break
    else:
        raise ValueError(f"could not lift the root {roots[0]} mod {p2} to exact divisibility")

    f = _compose([b, a, 0, 1], 1, r, 1)  # g(x + r)
    if force_cubic_mod:
        f = _compose(f, 1, 0, force_cubic_mod**2)

    # p3 congruence step: x -> (x + s)/p3^2, rescaled by p3^6.
    p3 = next(_admissible_primes(excluded * p2))
    f = _compose(f, 1, shift_target * (p2 * pow(p2, -1, p3**2)) ** 2, p3**2)
    p1 = next(_admissible_primes(excluded * p2 * p3))

    # u = U/w, w = p1^j, with p2^2 p3 | U and u^i within epsilon/4 of alpha^i.
    an, ad, en, ed = alpha.numerator, alpha.denominator, epsilon.numerator, epsilon.denominator
    U, w = 0, 1
    if alpha:
        base = p2**2 * p3
        for j in range(1, 500):
            w = p1**j
            U = (2 * an * w + ad * base) // (2 * ad * base) * base
            x, y = U * ad, an * w  # u = x/(w ad) and alpha = y/(w ad)
            if all(4 * ed * abs(x**i - y**i) < en * (w * ad) ** i for i in (1, 2, 3)):
                break
        else:
            raise ValueError("could not approximate alpha inside Z[1/p1]")

    spec = WeierstrassModel(0, 0, 0, p1, p2, p3, shift_target, alpha, epsilon, force_cubic_mod)
    k_step = multiplicative_order(p1 * p1 % p3, p3) if shift_target else 1
    for k in range(k_step, MAX_K + 1, k_step):
        q = p1 ** (2 * k)
        num, den = _compose(f, q * w, q * U, w), (q * w) ** 3  # f(q(x + u)) / q^3
        if _check(num, den, spec).all_ok():
            B, C, D = (Fraction(c, den) for c in num[2::-1])
            return replace(spec, B=B, C=C, D=D)
    raise ValueError(
        f"no admissible rescale exponent k <= {MAX_K} met the epsilon box "
        f"(curve {curve}, d={d}, epsilon={epsilon})"
    )


def verify_model(model: WeierstrassModel) -> ModelCheck:
    """Check properties (i)-(iv) exactly, in integers: ``_check`` on
    f = F/m for (F, m) = ``model.f_cleared``."""
    F, m = model.f_cleared
    return _check(F.coeffs, m, model)


def _check(F: Sequence[int], m: int, model: WeierstrassModel) -> ModelCheck:
    """``ModelCheck`` of the monic cubic f = F/m (F integral, constant first,
    m > 0 a multiple of every denominator) against model's primes and
    targets (its B, C, D are not read), with a0 the shift, alpha = an/ad and
    epsilon = en/ed: (i) m is a power of p1; (ii) v_p2(F_0) - v_p2(m) = 1
    and v_p2(F_1) = v_p2(m); (iii) gcd(m, p3) = 1 and F == m(x + a0)^3 mod
    p3; (iv) ed * |F_(3-i) ad^i - c an^i m| < en ad^i m for (i, c) = (1, 3),
    (2, 3), (3, 1); forced: gcd(m, n) = 1 and n | F_0, F_1, F_2."""
    rest, a0, n = m, model.shift_target, model.forced_modulus
    while rest % model.p1 == 0:
        rest //= model.p1
    p2, v = model.p2, valuation_int(m, model.p2)
    div_ok = 0 not in F[:2] and valuation_int(F[0], p2) == v + 1 and valuation_int(F[1], p2) == v
    cubic_ok = _zero_mod([c - m * t for c, t in zip(F, (a0**3, 3 * a0**2, 3 * a0))], m, model.p3)
    an, ad = model.alpha.numerator, model.alpha.denominator
    en, ed = model.epsilon.numerator, model.epsilon.denominator
    box_ok = all(
        ed * abs(F[3 - i] * ad**i - c * an**i * m) < en * ad**i * m
        for i, c in ((1, 3), (2, 3), (3, 1))
    )
    return ModelCheck(rest == 1, div_ok, cubic_ok, box_ok, _zero_mod(F[:3], m, n) if n else None)


def _zero_mod(coeffs: Sequence[int], m: int, n: int) -> bool:
    """Whether c/m == 0 mod n for every c in coeffs: False when m is not a unit mod n."""
    return math.gcd(m, n) == 1 and all(c % n == 0 for c in coeffs)


def twist_polynomial(model: WeierstrassModel, d: int) -> TwistFamily:
    """The twist family and its induced point for the given degree."""
    if d < MIN_DEGREE:
        raise ValueError(f"degree must be at least {MIN_DEGREE}")
    f, t = model.f.coeffs, Poly([0, 1])
    if d == 3:
        parity = PARITY_CUBIC
        P = BivarPoly([Poly([f[0], 0, -1]), Poly([f[1], -2]), f[2] - 1, 1])  # f(x) - (x + t)^2
        point_num = BivarPoly([t, 1])  # x + t
        point_den = BivarPoly([1])
        sign = -1
    elif d % 2 == 0:
        parity = PARITY_EVEN
        P = BivarPoly([-c for c in f] + [0] * (d - 4) + [Poly([0, 0, 1])])  # t^2 x^d - f(x)
        point_num = BivarPoly([0] * (d // 2) + [t])  # t x^(d/2)
        point_den = BivarPoly([1])
        sign = 1
    else:
        parity = PARITY_ODD
        P = BivarPoly([Poly([0, 0, -1])] + [0] * (d - 4) + list(f))  # x^(d-3) f(x) - t^2
        point_num = BivarPoly([t])
        point_den = BivarPoly([0] * ((d - 3) // 2) + [1])  # x^((d-3)/2)
        sign = -1
    family = TwistFamily(d, parity, model, P, point_num, point_den, sign)
    if not family.identity_holds:
        raise AssertionError("point identity failed for the constructed family")
    return family


def disc_form(family: TwistFamily) -> DiscriminantForm:
    """Discriminant of the family in x as unit * t^t_power * h(t), h monic.

    Reads disc = D / m off ``TwistFamily.disc_t`` and works on the integer
    part h_raw of D above t^t_power: checks the exact t-power and the
    degree of h (6, or 4 when d = 3), finds a multiplicity-one factor of h
    other than t (``_simple_factor``), and exhibits both signs on the grid
    {k/64 : |k| <= 64} by the sign of D(k, 64) = 64^deg D * m * disc(k/64).
    """
    d = family.d
    disc, m = family.disc_t
    expected_power = 0 if d == 3 else 2 * d - 8
    expected_deg_h = 4 if d == 3 else 6

    t_val = next((i for i, c in enumerate(disc.coeffs) if c), None)
    if t_val is None:
        raise ValueError("discriminant of the family vanishes identically")
    if d != 3 and t_val != expected_power:
        raise ValueError(
            f"t-power {t_val} differs from {expected_power}; model construction bug"
        )
    h_raw = disc.coeffs[expected_power:]
    if len(h_raw) - 1 != expected_deg_h:
        raise ValueError(
            f"deg h = {len(h_raw) - 1}, expected {expected_deg_h}; model construction bug"
        )
    h = Poly(h_raw).monic()

    pos = neg = False
    for k in _SIGN_GRID:
        value = binary_form_value(disc.coeffs, disc.degree, k, SIGN_GRID_DENOMINATOR)
        pos, neg = pos or value > 0, neg or value < 0
        if pos and neg:
            break
    unit, simple = Fraction(h_raw[-1], m), _simple_factor(h_raw)
    return DiscriminantForm(expected_power, h, unit, h.degree, simple, pos, neg)


def _simple_factor(h: Sequence[int]) -> Optional[Poly]:
    """The first multiplicity-one factor of ``squarefree_decompose(h)`` for
    the integer polynomial h of degree >= 2 (constant first), t divided out
    once, if it keeps degree >= 1.  h is squarefree over Q if, for one prime
    p, h mod p keeps its degree and is coprime to h' mod p (``_pgcd``): a
    square factor g^2 of h over Q may be taken primitive integral (Gauss's
    lemma), so lc(g) | lc(h), and g mod p keeps degree >= 1 and divides h
    and h' mod p.  A squarefree h decomposes as its primitive part with
    positive lead; the Yun split over Q runs only when none of the first
    ``SQUAREFREE_PRIMES`` primes gives that proof."""
    for p in islice(primes(), SQUAREFREE_PRIMES):
        hbar = [c % p for c in h]
        if hbar[-1] and _pdeg(_pgcd(hbar, [i * c for i, c in enumerate(hbar)][1:], p)) == 0:
            prim = _primitive_int(h)[0]
            return Poly(prim[1:] if prim[0] == 0 else prim)
    for factor, mult in squarefree_decompose(Poly(h)):
        if mult == 1:
            if factor.coeff(0) == 0:
                factor = factor // Poly([0, 1])
            if factor.degree >= 1:
                return factor
    return None


def build_family(
    curve: tuple[int, int],
    d: int,
    epsilon: Fraction | int = Fraction(1, 2),
) -> tuple[WeierstrassModel, TwistFamily, DiscriminantForm]:
    """Model + family + verified discriminant form, shrinking epsilon on failure.

    The shift and alpha targets are fixed by parity: 0 for d = 3, +1 for odd
    d >= 5 and -1 for even d, which is what makes h keep a unit factor and
    change sign on |t| <= 1.
    """
    if d == 3:
        shift, alpha = 0, Fraction(0)
    elif d % 2 == 1:
        shift, alpha = 1, Fraction(1)
    else:
        shift, alpha = -1, Fraction(-1)
    eps = Fraction(epsilon)
    last_error = None
    for _ in range(12):
        model = build_model(curve, shift, alpha, eps, d)
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
# Integer forms, and the specialization and point check read off them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Forms:
    """poly = den * B(x, t) over Z[t] for a ``BivarPoly`` B, each x-coefficient
    read as a binary form of degree e, the largest t-degree in B, so that
    values(u, v)[i] = den * v^e * B_i(u/v)."""

    poly: IntBivarPoly
    den: int
    e: int

    @classmethod
    def of(cls, b: BivarPoly) -> "_Forms":
        poly, den = clear_bivar(b)
        return cls(poly, den, max(0, *(xc.degree for xc in poly.coeffs)))

    def values(self, u: int, v: int) -> list[int]:
        return [binary_form_value(c.coeffs, self.e, u, v) for c in self.poly.coeffs]


def specialize(family: TwistFamily, u: int, v: int) -> IntPoly:
    """P(x, u/v) cleared to a primitive ``IntPoly`` with positive lead.

    ``TwistFamily.specialization`` without its lam, as in a sweep;
    ValueError when v = 0, gcd(u, v) != 1 or the specialization vanishes.
    """
    return family.specialization(u, v)[0]


def verify_new_point(p_spec: Poly, family: TwistFamily, u: int, v: int) -> bool:
    """Whether y = F(x,t0)/G(x,t0) satisfies y^2 = f(x) modulo p_spec, at
    t0 = u/v, decided in integers: with F = Fi/a, G = Gi/b and f = fi/m
    for integral Fi, Gi and fi, read off the family's ``point_forms`` and
    ``model.f_cleared``, F^2 - f*G^2 is m*b^2*Fi^2 - fi*a^2*Gi^2 up
    to a unit, and p_spec divides it over Q exactly when the
    pseudo-remainder by the cleared p_spec vanishes."""
    if p_spec.degree < 1:
        raise ValueError("specialized polynomial must have degree >= 1")
    if v == 0:
        raise ValueError("v must be nonzero")
    num, den = family.point_forms
    a, b = num.den * v**num.e, den.den * v**den.e
    Fi, Gi = IntPoly(num.values(u, v)), IntPoly(den.values(u, v))
    fi, m = family.model.f_cleared
    diff = (Fi * Fi).scale(m * b * b) - fi * (Gi * Gi).scale(a * a)
    return not _pseudo_rem(diff.coeffs, clear_denominators(p_spec)[0].coeffs)
