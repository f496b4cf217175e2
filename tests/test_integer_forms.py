"""The integer view of a twist family against the Fraction references.

``IntegerFamily`` is what a sweep runs on: specialization, discriminant and
point check read off integer forms of P, and Frobenius cycle types looked up
by t = u/v mod p.  Each fast path is checked here against an independent
reference in ``oracles.py`` (Fraction arithmetic from P itself, the
subresultant discriminant of the specialization, the Fraction point check)
and against direct factorization mod p, including sympy's.  The pairs cover
|u|, |v| <= 10^6, u = 0, v = +-1, v divisible by small primes and by the
model prime p1, which divides the cleared denominator L and then the content
of the specialization too.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sdtwists.family import (
    IntegerFamily,
    TwistFamily,
    WeierstrassModel,
    build_family,
    specialize,
    twist_polynomial,
    verify_new_point,
)
from sdtwists.padic import frobenius_cycle_type, good_prime_cycle_type
from sdtwists.polyarith import BivarPoly, Poly, discriminant
from sdtwists.primes import primes_up_to

from oracles import specialize_fraction, verify_new_point_fraction

HEIGHT = 10**6
FAMILIES = ["compact", 3, 4, 5, 6, 7, 8]


def compact_family():
    model = WeierstrassModel(
        B=F(7), C=F(-28), D=F(35), p1=11, p2=5, p3=7,
        shift_target=0, alpha=F(0), epsilon=F(100),
    )
    return twist_polynomial(model, 3)


@pytest.fixture(scope="module")
def views():
    """One integer view per family, shared by every example, as in a sweep."""
    fams = {"compact": compact_family()}
    fams.update({d: build_family((1, 1), d)[1] for d in range(3, 9)})
    return {name: IntegerFamily(fam) for name, fam in fams.items()}


@st.composite
def coprime_pairs(draw):
    u = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-HEIGHT, HEIGHT)))
    v = draw(
        st.one_of(
            st.sampled_from([1, -1]),
            st.integers(-HEIGHT, HEIGHT).filter(bool),
            st.builds(
                lambda p, k: p * k,
                st.sampled_from([2, 3, 5, 7, 11, 13]),
                st.integers(-HEIGHT // 13, HEIGHT // 13).filter(bool),
            ),
        )
    )
    assume(math.gcd(u, v) == 1)
    return u, v


CASES = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
# u = 0, v = -1, p1 = 7 or 13 dividing v (and the content on built families),
# p2 = 11 dividing v, extreme heights
EXAMPLES = [(0, 1), (1, -1), (-12, 7), (-12, 13), (5, 11 * 7), (HEIGHT, -HEIGHT + 1)]


def with_examples(**extra):
    def decorate(test):
        for pair in EXAMPLES:
            test = example(pair=pair, **extra)(test)
        return test

    return decorate


@pytest.mark.parametrize("name", FAMILIES)
@CASES
@with_examples()
@given(pair=coprime_pairs())
def test_specialize_matches_fraction_reference(views, name, pair):
    view, (u, v) = views[name], pair
    fam = view.family
    spec, lam = view.specialize(u, v)
    ref, ref_lam = specialize_fraction(fam, u, v)
    assert spec == ref and lam == ref_lam
    assert spec.is_integral() and spec.content() == 1 and spec.lead > 0
    assert fam.P.eval_t(F(u, v)) == spec.scale(lam)
    assert specialize(fam, u, v) == ref


@pytest.mark.parametrize("name", FAMILIES)
@CASES
@with_examples()
@given(pair=coprime_pairs())
def test_family_discriminant_matches_subresultant(views, name, pair):
    view, (u, v) = views[name], pair
    spec, lam = specialize_fraction(view.family, u, v)
    got = view.discriminant(spec, lam, u, v)
    assert type(got) is int
    assert got == discriminant(spec)


def test_family_discriminant_degree_drop_and_inexact_division(views):
    view = views[4]
    spec, lam = view.specialize(0, 1)  # t = 0 drops the t^2 x^4 term
    assert spec.degree == 3
    assert view.discriminant(spec, lam, 0, 1) == discriminant(spec)
    spec, lam = view.specialize(3, 5)
    assert view.discriminant(spec, lam, 3, 5) == discriminant(spec)
    coeffs, m = view._disc
    broken = IntegerFamily(view.family)
    broken._disc = coeffs, m * 1_000_003  # a denominator the value does not carry
    with pytest.raises(ArithmeticError):
        broken.discriminant(spec, lam, 3, 5)


@pytest.mark.parametrize("name", FAMILIES)
@CASES
@with_examples(shift=1)
@given(pair=coprime_pairs(), shift=st.integers(-3, 3))
def test_point_check_matches_fraction_reference(views, name, pair, shift):
    view, (u, v) = views[name], pair
    fam = view.family
    spec, _ = specialize_fraction(fam, u, v)
    assert view.point_holds(spec, u, v) is True
    assert verify_new_point(spec, fam, u, v) is True
    assert verify_new_point_fraction(spec, fam, u, v) is True
    # a perturbed or rational modulus: both paths must still agree
    other = (spec + Poly([shift])).scale(F(1, 3))
    if other.degree >= 1:
        want = verify_new_point_fraction(other, fam, u, v)
        assert view.point_holds(other, u, v) == want
        if shift:
            assert want is False


def test_point_check_rejects_degree_zero_and_v_zero(views):
    view = views["compact"]
    with pytest.raises(ValueError):
        view.point_holds(Poly([3]), 1, 1)
    with pytest.raises(ValueError):
        view.point_holds(Poly([1, 1]), 1, 0)


def table_primes(view):
    model = view.family.model
    return sorted(set(primes_up_to(41)) | {model.p1, model.p2, model.p3})


def content_of(view, lam, v):
    """Content of the cleared values L v^e P(x, u/v), from lam."""
    c = abs(lam) * view._P.den * abs(v) ** view._P.e
    assert c.denominator == 1
    return c.numerator


def good_primes(spec, primes):
    ints = [c.numerator for c in spec.coeffs]
    bad = ints[-1] * int(discriminant(spec))
    return ints, [p for p in primes if bad % p]


@pytest.mark.parametrize("name", FAMILIES)
@CASES
@with_examples()
@given(pair=coprime_pairs())
def test_cycle_type_table_matches_direct_factorization(views, name, pair):
    view, (u, v) = views[name], pair
    spec, lam = specialize_fraction(view.family, u, v)
    assume(spec.degree == view.d)
    ints, good = good_primes(spec, table_primes(view))
    content = content_of(view, lam, v)
    for p in good:
        # served from the table or factored directly, the answer is the
        # direct factorization of spec mod p
        got = view.cycle_type(ints, p, u, v)
        assert got == good_prime_cycle_type(ints, p) == frobenius_cycle_type(spec, p)
        key = (p, u * pow(v, -1, p) % p) if v % p else None
        keyed = (v * view._P.den * content) % p != 0
        assert (key in view._cycle_types) == keyed, (u, v, p)
    # every entry is the cycle type of P(x, t) mod p, which has degree d and
    # is squarefree there, whichever pair filled it
    for (p, t), ct in view._cycle_types.items():
        assert frobenius_cycle_type(view.family.P.eval_t(F(t)), p) == ct


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=coprime_pairs())
def test_cycle_type_table_matches_sympy(views, name, pair):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    view, (u, v) = views[name], pair
    spec, _ = specialize_fraction(view.family, u, v)
    assume(spec.degree == view.d)
    ints, good = good_primes(spec, table_primes(view))
    for p in good:
        got = view.cycle_type(ints, p, u, v)
        _, factors = sympy.Poly(list(reversed(ints)), x, modulus=p).factor_list()
        want = [q.degree() for q, mult in factors for _ in range(mult)]
        assert list(got.parts) == sorted(want, reverse=True), (u, v, p)


def test_cycle_type_table_skips_vanishing_reductions():
    # P = (t - 1) x^3 + 10 x^2 + (t - 1) x + 5 vanishes mod 5 at t = 1, so
    # every pair with u == v mod 5 has content divisible by 5, and its
    # specialization mod 5 is not determined by t mod 5: (-39, 1) gives
    # cycle type [3] and (-37, 3) gives [2, 1].  No entry may be kept there.
    t_minus_1 = Poly([-1, 1])
    P = BivarPoly([Poly([5]), t_minus_1, Poly([10]), t_minus_1])
    one = BivarPoly([Poly([1])])
    view = IntegerFamily(TwistFamily(3, "d=3", compact_family().model, P, one, one, 1))
    seen = set()
    for u in range(-40, 41):
        for v in range(1, 12):
            if math.gcd(u, v) != 1 or v % 5 == 0:
                continue
            spec, _ = view.specialize(u, v)
            if spec.degree != 3:
                continue
            ints, good = good_primes(spec, [5])
            if good:
                got = view.cycle_type(ints, 5, u, v)
                assert got == good_prime_cycle_type(ints, 5), (u, v)
                if (u - v) % 5 == 0:
                    seen.add(got.parts)
    assert seen == {(3,), (2, 1)}
    assert (5, 1) not in view._cycle_types
