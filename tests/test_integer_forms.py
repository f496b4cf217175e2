"""The integer view of a twist family against the Fraction references.

A sweep runs on the ``TwistFamily`` itself: specialization and discriminant
read off the family's integer forms of P and its cleared Disc_t, and every
good prime is factored directly by ``padic.good_prime_cycle_type``;
``disc_form`` reads the same Disc_t, and ``verify_new_point`` reads the
point off the integer forms of its numerator and denominator.  Each fast
path is checked here against an independent reference in ``oracles.py``
(Fraction arithmetic from P itself, the subresultant discriminant of the
specialization, the Fraction point check, the Fraction discriminant form)
and the cycle types against direct factorization mod p, including sympy's.
The pairs cover |u|, |v| <= 10^6, u = 0, v = +-1, v divisible by small
primes and by the model prime p1, which divides the cleared denominator L
and then the content of the specialization too.
"""

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sdtwists import family as family_module, polyarith
from sdtwists.counting import WORKERS_ENV, sweep
from sdtwists.family import (
    SIGN_GRID_DENOMINATOR,
    WeierstrassModel,
    build_family,
    disc_form,
    specialize,
    twist_polynomial,
    verify_new_point,
)
from sdtwists.padic import frobenius_cycle_type, frobenius_parity, good_prime_cycle_type
from sdtwists.polyarith import (
    IntBivarPoly,
    IntPoly,
    Poly,
    binary_form_value,
    clear_denominators,
    discriminant,
    discriminant_in_t,
)
from sdtwists.primes import primes_up_to

from oracles import (
    disc_form_fraction,
    interpolated_disc_in_t,
    specialize_fraction,
    verify_new_point_fraction,
)

HEIGHT = 10**6
FAMILIES = ["compact", 3, 4, 5, 6, 7, 8]


def compact_family():
    model = WeierstrassModel(
        B=F(7), C=F(-28), D=F(35), p1=11, p2=5, p3=7,
        shift_target=0, alpha=F(0), epsilon=F(100),
    )
    return twist_polynomial(model, 3)


@pytest.fixture(scope="module")
def families():
    """One family per name, shared by every example."""
    fams = {"compact": compact_family()}
    fams.update({d: build_family((1, 1), d)[1] for d in range(3, 9)})
    return fams


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
def test_specialize_matches_fraction_reference(families, name, pair):
    fam, (u, v) = families[name], pair
    spec, lam = fam.specialization(u, v)
    ref, ref_lam = specialize_fraction(fam, u, v)
    assert all(type(c) is int for c in lam)  # an integer pair, not a Fraction
    assert type(spec) is IntPoly and spec.coeffs == ref.coeffs and F(*lam) == ref_lam
    assert spec.is_integral() and spec.content() == 1 and spec.lead > 0
    assert fam.P.eval_t(F(u, v)) == Poly(spec.coeffs).scale(F(*lam))
    assert specialize(fam, u, v) == spec


@pytest.mark.parametrize("name", FAMILIES)
@CASES
@with_examples()
@given(pair=coprime_pairs())
def test_family_discriminant_matches_subresultant(families, name, pair):
    fam, (u, v) = families[name], pair
    spec, lam = specialize_fraction(fam, u, v)
    got = fam.discriminant_at(spec, (lam.numerator, lam.denominator), u, v)
    assert type(got) is int
    assert got == discriminant(spec)


def test_family_discriminant_degree_drop_and_inexact_division(families):
    fam = families[4]
    spec, lam = fam.specialization(0, 1)  # t = 0 drops the t^2 x^4 term
    assert spec.degree == 3
    assert fam.discriminant_at(spec, lam, 0, 1) == discriminant(spec)
    spec, lam = fam.specialization(3, 5)
    assert fam.discriminant_at(spec, lam, 3, 5) == discriminant(spec)
    D, m = fam.disc_t
    copy = dataclasses.replace(fam)
    copy.__dict__["disc_t"] = (D, m * 1_000_003)  # a denominator the value does not carry
    with pytest.raises(ArithmeticError):
        copy.discriminant_at(spec, lam, 3, 5)


@pytest.mark.parametrize("name", FAMILIES)
def test_disc_form_matches_fraction_reference(families, name):
    # Every field equals the Fraction reference, and the sign of the integer
    # form D(k, 64) equals that of Disc_t(k/64) at every grid point, not only
    # up to the early stop that settles the two flags.
    fam = families[name]
    assert disc_form(fam) == disc_form_fraction(fam)
    D, m = fam.disc_t
    assert m > 0
    disc = discriminant_in_t(fam.P)
    for k in range(-SIGN_GRID_DENOMINATOR, SIGN_GRID_DENOMINATOR + 1):
        value = binary_form_value(D.coeffs, D.degree, k, SIGN_GRID_DENOMINATOR)
        ref = disc(F(k, SIGN_GRID_DENOMINATOR))
        assert (value > 0) == (ref > 0) and (value < 0) == (ref < 0)


@pytest.mark.parametrize("name", FAMILIES)
def test_disc_t_matches_interpolation_oracle(families, name):
    # The Z[t] elimination on P's integer forms, cleared, equals Disc_t
    # interpolated from Fraction discriminants of specializations.
    fam = families[name]
    assert fam.disc_t == clear_denominators(interpolated_disc_in_t(fam.P))


@pytest.mark.parametrize("name", FAMILIES)
def test_disc_t_eliminates_in_integers(monkeypatch, families, name):
    # On a fresh copy of the family, Disc_t is one subresultant over Z[t]
    # (IntPoly x-coefficients) and no polynomial division over Q runs.
    fam = dataclasses.replace(families[name])
    core, divmod_q = polyarith._resultant_core, Poly.__divmod__
    core_calls, divmod_calls = [], []

    def counted_core(a, b):
        core_calls.append((type(a), {type(c) for c in a.coeffs + b.coeffs}))
        return core(a, b)

    def counted_divmod(a, b):
        divmod_calls.append((a, b))
        return divmod_q(a, b)

    monkeypatch.setattr(polyarith, "_resultant_core", counted_core)
    monkeypatch.setattr(Poly, "__divmod__", counted_divmod)
    D, m = fam.disc_t
    assert core_calls == [(IntBivarPoly, {IntPoly})]
    assert not divmod_calls
    assert type(D) is IntPoly and all(type(c) is int for c in D.coeffs)
    assert type(m) is int and m > 0


def test_integer_view_built_once_per_family(monkeypatch):
    # P is cleared once and Disc_t eliminated once per family, however many
    # sweeps and single specializations read its forms and Disc_t.  The
    # point identity, checked once over Z[t] when the family is built, clears
    # the point's numerator and denominator into their forms once each,
    # after P.
    monkeypatch.setenv(WORKERS_ENV, "1")
    of, clear, core = family_module._Forms.of, polyarith.clear_bivar, polyarith._resultant_core
    forms_calls, clear_calls, core_calls = [], [], []

    def counted_of(b):
        forms_calls.append(b)
        return of(b)

    def counted_clear(b):
        clear_calls.append(b)
        return clear(b)

    def counted_core(a, b):
        core_calls.append(a)
        return core(a, b)

    monkeypatch.setattr(family_module._Forms, "of", staticmethod(counted_of))
    monkeypatch.setattr(family_module, "clear_bivar", counted_clear)
    monkeypatch.setattr(polyarith, "clear_bivar", counted_clear)
    monkeypatch.setattr(polyarith, "_resultant_core", counted_core)
    fam = build_family((1, 1), 3)[1]
    for _ in range(2):
        sweep(fam, 1)
    for u in range(10):
        specialize(fam, u, 1)
    assert len(forms_calls) == 3 and forms_calls[0] is fam.P
    assert forms_calls[1] is fam.point_num and forms_calls[2] is fam.point_den
    assert len(clear_calls) == 3 and clear_calls[0] is fam.P
    assert clear_calls[1] is fam.point_num and clear_calls[2] is fam.point_den
    assert len(core_calls) == 1


def test_point_forms_built_once_per_family(monkeypatch):
    # The point's integer forms are built once, with the family identity;
    # repeated verify_new_point calls read them and clear nothing more.
    fam = build_family((1, 1), 5)[1]
    assert fam.point_forms is fam.point_forms

    def refuse(*args):
        raise AssertionError("the point was cleared again")

    monkeypatch.setattr(family_module._Forms, "of", staticmethod(refuse))
    monkeypatch.setattr(family_module, "clear_bivar", refuse)
    monkeypatch.setattr(polyarith, "clear_bivar", refuse)
    for u, v in [(3, 2), (3, 2), (-7, 5), (1, 1)]:
        spec = specialize(fam, u, v)
        assert verify_new_point(spec, fam, u, v)
        assert verify_new_point(spec, fam, u, v) == verify_new_point_fraction(spec, fam, u, v)


@pytest.mark.parametrize("name", FAMILIES)
@CASES
@with_examples(shift=1)
@given(pair=coprime_pairs(), shift=st.integers(-3, 3))
def test_point_check_matches_fraction_reference(families, name, pair, shift):
    fam, (u, v) = families[name], pair
    spec, _ = specialize_fraction(fam, u, v)
    assert verify_new_point(spec, fam, u, v) is True
    assert verify_new_point_fraction(spec, fam, u, v) is True
    # a perturbed or rational modulus: both paths must still agree
    other = (spec + Poly([shift])).scale(F(1, 3))
    if other.degree >= 1:
        want = verify_new_point_fraction(other, fam, u, v)
        assert verify_new_point(other, fam, u, v) == want
        if shift:
            assert want is False
    # a modulus two degrees above F^2 - f*G^2 divides it only if it vanishes
    assert verify_new_point(spec.shift(2), fam, u, v) is False


def test_point_check_rejects_degree_zero_and_v_zero(families):
    fam = families["compact"]
    with pytest.raises(ValueError):
        verify_new_point(Poly([3]), fam, 1, 1)
    with pytest.raises(ValueError):
        verify_new_point(Poly([1, 1]), fam, 1, 0)


def checked_primes(fam):
    """The primes up to 41 and the model primes, at which L or a
    specialization's content may vanish."""
    model = fam.model
    return sorted(set(primes_up_to(41)) | {model.p1, model.p2, model.p3})


def good_primes(spec, primes):
    ints = [c.numerator for c in spec.coeffs]
    bad = ints[-1] * int(discriminant(spec))
    return ints, [p for p in primes if bad % p]


@pytest.mark.parametrize("name", FAMILIES)
@CASES
@with_examples()
@given(pair=coprime_pairs())
def test_cycle_type_table_matches_direct_factorization(families, name, pair):
    fam, (u, v) = families[name], pair
    spec, _lam = specialize_fraction(fam, u, v)
    assume(spec.degree == fam.d)
    ints, good = good_primes(spec, checked_primes(fam))
    disc = int(discriminant(spec))
    for p in good:
        # with the parity of Frobenius, as the good-prime scan passes it,
        # and without it, the answer is the direct factorization of spec
        # mod p
        got = good_prime_cycle_type(ints, p, frobenius_parity(disc, p))
        assert got == good_prime_cycle_type(ints, p) == frobenius_cycle_type(spec, p), (u, v, p)


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=coprime_pairs())
def test_cycle_type_table_matches_sympy(families, name, pair):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    fam, (u, v) = families[name], pair
    spec, _lam = specialize_fraction(fam, u, v)
    assume(spec.degree == fam.d)
    ints, good = good_primes(spec, checked_primes(fam))
    disc = int(discriminant(spec))
    for p in good:
        _, factors = sympy.Poly(list(reversed(ints)), x, modulus=p).factor_list()
        want = sorted((q.degree() for q, mult in factors for _ in range(mult)), reverse=True)
        for parity in (None, frobenius_parity(disc, p)):
            assert list(good_prime_cycle_type(ints, p, parity).parts) == want, (u, v, p)
