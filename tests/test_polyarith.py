import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from sdtwists.polyarith import (
    _exact_div,
    BivarPoly,
    Poly,
    descartes_sign_changes,
    discriminant,
    discriminant_in_t,
    poly_gcd,
    reduce_mod,
    resultant,
    squarefree_decompose,
    sturm_real_roots,
)

import oracles


def rand_poly(rng, max_deg, lo=-9, hi=9, nonzero=True):
    while True:
        p = Poly([rng.randint(lo, hi) for _ in range(rng.randint(1, max_deg + 1))])
        if p or not nonzero:
            return p


# -- resultant ---------------------------------------------------------------


def test_resultant_linear_difference():
    assert resultant(Poly([-5, 1]), Poly([-2, 1])) == 3


def test_resultant_sylvester_example():
    assert resultant(Poly([1, 0, 1]), Poly([-1, 0, 1])) == 4


def test_resultant_evaluation_example():
    assert resultant(Poly([-1, 0, 1]), Poly([-2, 1])) == 3


def test_resultant_zero_input_rejected():
    with pytest.raises(ValueError):
        resultant(Poly(), Poly([1, 1]))
    with pytest.raises(ValueError):
        resultant(Poly([1, 1]), Poly())


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(11)
    for _ in range(120):
        f = rand_poly(rng, 5)
        g = rand_poly(rng, 5)
        assert resultant(f, g) == oracles.sylvester_resultant(f, g)


def test_resultant_swap_symmetry():
    rng = random.Random(5)
    for _ in range(200):
        f = rand_poly(rng, 6)
        g = rand_poly(rng, 6)
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_resultant_multiplicative():
    rng = random.Random(17)
    for _ in range(80):
        f = rand_poly(rng, 4)
        g = rand_poly(rng, 4)
        h = rand_poly(rng, 4)
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


# -- discriminant ------------------------------------------------------------


def test_discriminant_quadratic():
    assert discriminant(Poly([2, 3, 1])) == 1


def test_discriminant_cubic_family_value():
    # x^3 - (x+1)^2
    assert discriminant(Poly([-1, -2, -1, 1])) == -31


def test_discriminant_quintic_oracle_value():
    f = Poly([1, 1, 0, 0, 0, 1])
    n = f.degree
    expected = oracles.sylvester_resultant(f, f.derivative()) / f.lead
    if (n * (n - 1) // 2) % 2:
        expected = -expected
    assert expected == 3381
    assert discriminant(f) == 3381


def test_discriminant_constant_rejected():
    with pytest.raises(ValueError):
        discriminant(Poly([5]))


def test_discriminant_critical_point_product_form():
    # (-1)^(n(n-1)/2) n^n prod F(beta) over roots of F' equals the
    # Res(F, F')/lc formula for monic F.
    rng = random.Random(23)
    for _ in range(60):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 6))] + [1]
        f = Poly(coeffs)
        n = f.degree
        lhs = discriminant(f)
        res = resultant(f.derivative(), f)
        prod_form = res / (f.derivative().lead ** n)
        rhs = prod_form * n**n
        if (n * (n - 1) // 2) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_discriminant_reciprocal_invariance():
    rng = random.Random(31)
    for _ in range(120):
        f = rand_poly(rng, 8)
        if f.degree < 1 or f.coeff(0) == 0:
            continue
        assert discriminant(f) == discriminant(f.reverse())


# -- bivariate discriminant ---------------------------------------------------


def cubic_twist_bivar():
    # x^3 - (x+t)^2
    return BivarPoly([Poly([0, 0, -1]), Poly([0, -2]), Poly([-1]), Poly([1])])


def test_disc_in_t_cubic_family():
    assert discriminant_in_t(cubic_twist_bivar()) == Poly([0, 0, 0, -4, -27])


def test_disc_in_t_pure_power():
    # x^2 f(x) - t^2 with f = x^3, i.e. x^5 - t^2
    p = BivarPoly([Poly([0, 0, -1]), Poly(), Poly(), Poly(), Poly(), Poly([1])])
    direct = discriminant_in_t(p)
    assert direct == oracles.interpolated_disc_in_t(p)
    nonzero = [i for i, c in enumerate(direct.coeffs) if c]
    assert nonzero == [8]  # single t-power term


def test_disc_in_t_even_family_closed_form():
    # t^2 x^4 - (x-1)^3
    p = BivarPoly([Poly([1]), Poly([-3]), Poly([3]), Poly([-1]), Poly([0, 0, 1])])
    expected = Poly([0, 0, 0, 0, -27, 0, 256])
    assert discriminant_in_t(p) == expected


def test_disc_in_t_matches_interpolation_oracle():
    rng = random.Random(41)
    for _ in range(15):
        xc = [Poly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(4)]
        xc.append(Poly([1]))
        p = BivarPoly(xc)
        assert discriminant_in_t(p) == oracles.interpolated_disc_in_t(p)


def test_disc_in_t_degenerate_lead_rejected():
    with pytest.raises(ValueError):
        discriminant_in_t(BivarPoly([Poly([1]), Poly()]))


# -- one ring core over Q and Q[t] ---------------------------------------------

t_polys = st.lists(st.integers(-3, 3), max_size=3).map(Poly)
bivars = st.lists(t_polys, max_size=4).map(BivarPoly)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def test_bivar_defines_no_ring_operation():
    shared = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale",
              "shift", "degree", "lead", "__eq__", "__hash__")
    assert not [name for name in shared if name in vars(BivarPoly)]
    assert BivarPoly([Poly([1])]) != Poly([1])


@settings(max_examples=120, deadline=None)
@given(bivars, bivars, rationals, st.integers(0, 3))
def test_eval_t_commutes_with_ring_operations(p, q, t0, n):
    pt, qt = p.eval_t(t0), q.eval_t(t0)
    assert (p + q).eval_t(t0) == pt + qt
    assert (p - q).eval_t(t0) == pt - qt
    assert (-p).eval_t(t0) == -pt
    assert (p * q).eval_t(t0) == pt * qt
    assert (p**n).eval_t(t0) == pt**n
    assert p.shift(n).eval_t(t0) == pt.shift(n)
    assert p.derivative_x().eval_t(t0) == pt.derivative()


@settings(max_examples=120, deadline=None)
@given(bivars, t_polys, rationals)
def test_eval_t_commutes_with_exact_division(p, c, t0):
    assume(c and c(t0))
    multiple = p.scale(c)
    quotient = BivarPoly([_exact_div(a, c) for a in multiple.coeffs])
    assert quotient == p
    assert quotient.eval_t(t0) == multiple.eval_t(t0).scale(1 / c(t0))


@settings(max_examples=120, deadline=None)
@given(t_polys, st.lists(st.integers(-3, 3), min_size=1, max_size=2),
       st.integers(1, 3), st.integers(1, 3))
def test_inexact_coefficient_division_raises(a, low, lead, r):
    c = Poly(low + [lead])  # degree >= 1, so the constant r is a nonzero remainder
    with pytest.raises(ArithmeticError):
        _exact_div(a * c + Poly([r]), c)


@settings(max_examples=80, deadline=None)
@given(bivars, rationals)
def test_disc_in_t_commutes_with_specialization(p, t0):
    assume(p.degree >= 1 and p.lead(t0))
    assert discriminant_in_t(p)(t0) == discriminant(p.eval_t(t0))


# -- squarefree decomposition -------------------------------------------------


def test_squarefree_examples():
    h = Poly([-1, 1]) ** 2 * Poly([2, 1])
    assert squarefree_decompose(h) == [(Poly([2, 1]), 1), (Poly([-1, 1]), 2)]
    assert squarefree_decompose(Poly([0, 0, 0, -4, -27])) == [
        (Poly([4, 27]), 1),
        (Poly([0, 1]), 3),
    ]
    assert squarefree_decompose(Poly([0, 0, 0, 0, 1])) == [(Poly([0, 1]), 4)]


def test_squarefree_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_decompose(Poly())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_squarefree_reconstruction(seed_coeffs):
    rng = random.Random(tuple(seed_coeffs).__hash__() & 0xFFFF)
    f = Poly([1])
    for _ in range(rng.randint(1, 3)):
        factor = rand_poly(rng, 2)
        if factor.degree < 1:
            continue
        f = f * factor ** rng.randint(1, 3)
    if f.degree < 1:
        return
    parts = squarefree_decompose(f)
    product = Poly([1])
    for factor, mult in parts:
        product = product * factor**mult
    unit = f.lead / product.lead
    assert product.scale(unit) == f
    assert product.degree == f.degree or product.degree <= f.degree
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert poly_gcd(parts[i][0], parts[j][0]).degree == 0


# -- Sturm and Descartes -------------------------------------------------------


def test_sturm_basic():
    assert sturm_real_roots(Poly([1, 0, 1])) == 0
    assert sturm_real_roots(Poly([-2, 0, 1])) == 2


def test_sturm_sign_probe_two_roots():
    t = (Poly([F(1, 100), 0, 0, 1])) ** 2 - Poly([0, 0, 0, F(81, 100)])
    assert sturm_real_roots(t) == 2


def test_sturm_requires_squarefree():
    with pytest.raises(ValueError):
        sturm_real_roots(Poly([1, 2, 1]))


def test_descartes_examples():
    assert descartes_sign_changes(Poly([1, -1, 0, 1])) == 2
    assert descartes_sign_changes(Poly([1, 1, 0, 1])) == 0


def test_descartes_odd_probe_single_sign_change():
    t = Poly([F(1, 10), 1]) ** 4 - Poly([0] * 7 + [1])
    assert descartes_sign_changes(t) == 1


def test_sturm_bounded_by_descartes_both_sides():
    rng = random.Random(53)
    for _ in range(120):
        f = rand_poly(rng, 6)
        if f.degree < 1 or poly_gcd(f, f.derivative()).degree != 0:
            continue
        mirrored = Poly([c if i % 2 == 0 else -c for i, c in enumerate(f.coeffs)])
        bound = descartes_sign_changes(f) + descartes_sign_changes(mirrored)
        root_at_zero = 1 if f.coeff(0) == 0 else 0
        assert sturm_real_roots(f) <= bound + root_at_zero


# -- reduce_mod ----------------------------------------------------------------


def test_reduce_mod_examples():
    assert reduce_mod(Poly([0, 0, 1]), Poly([1, 0, 1])) == Poly([-1])
    assert reduce_mod(Poly([1, 0, 1]), Poly([1, 0, 1])) == Poly()
    assert reduce_mod(Poly([3, 0, 0, 0, 0, 1]), Poly([-2, 0, 1])) == Poly([3, 4])


def test_reduce_mod_matches_long_division_oracle():
    rng = random.Random(61)
    for _ in range(100):
        f = rand_poly(rng, 7)
        g = rand_poly(rng, 4)
        if g.degree < 1:
            continue
        assert reduce_mod(f, g) == oracles.long_division_remainder(f, g)


def test_reduce_mod_roundtrip():
    rng = random.Random(67)
    for _ in range(100):
        p = rand_poly(rng, 4)
        if p.degree < 1:
            continue
        a = rand_poly(rng, 3, nonzero=False)
        r = Poly([rng.randint(-9, 9) for _ in range(p.degree)])
        assert reduce_mod(a * p + r, p) == r


def test_reduce_mod_constant_modulus_rejected():
    with pytest.raises(ValueError):
        reduce_mod(Poly([1, 1]), Poly([2]))
