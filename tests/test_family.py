import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from sdtwists import family, polyarith
from sdtwists.family import (
    PARITY_CUBIC,
    PARITY_EVEN,
    PARITY_ODD,
    WeierstrassModel,
    build_family,
    build_model,
    disc_form,
    specialize,
    twist_polynomial,
    verify_model,
    verify_new_point,
)
from sdtwists.padic import valuation
from sdtwists.polyarith import BivarPoly, IntPoly, Poly, discriminant, discriminant_in_t
from sdtwists.primes import primes_up_to

from oracles import (
    build_model_fraction,
    compose_linear,
    simple_factor_fraction,
    verify_model_fraction,
)

CURVES = ((0, -2), (-16, 16), (1, 1))


def test_build_model_follows_root_lift_steps():
    # curve y^2 = x^3 - 2: the first admissible prime with a simple root is
    # 5, with root 3; v_5(g(3)) = 2 rejects the raw lift and the shift 8
    # gives (x+8)^3 - 2 = x^3 + 24x^2 + 192x + 510 with 5 || 510, 5 not | 192
    g = Poly([-2, 0, 0, 1])
    assert g(3) % 5 == 0 and g.derivative()(3) % 5 != 0
    assert valuation(g(3), 5) == 2
    assert valuation(g(8), 5) == 1
    assert compose_linear(g, 1, 8) == Poly([510, 192, 24, 1])
    assert family._compose(g.coeffs, 1, 8, 1) == [510, 192, 24, 1]

    model = build_model((0, -2), 0, 0, 1, 3)
    assert model == build_model_fraction((0, -2), 0, 0, 1, 3)
    assert model.p2 == 5
    check = verify_model(model)
    assert check.all_ok()


def test_compose_is_the_scaled_rational_substitution():
    # den^n f((a x + b)/den) on integers equals f(a/den x + b/den) * den^n
    # over Q, including the p1-power rescale's shape (a, b) = (q w, q U).
    rng = random.Random(17)
    for _ in range(50):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 6))] + [1]
        a, b, den = rng.randint(-50, 50) or 1, rng.randint(-10**4, 10**4), rng.randint(1, 7**5)
        n = len(coeffs) - 1
        want = compose_linear(Poly(coeffs), F(a, den), F(b, den)).scale(den**n)
        assert Poly(family._compose(coeffs, a, b, den)) == want


def _targets(d):
    """(shift_target, alpha) of ``build_family`` at degree d."""
    return (0, 0) if d == 3 else (1, 1) if d % 2 else (-1, -1)


def _outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("curve", [(1, 1), (0, -2), (-16, 16), (2, 3)])
def test_build_model_matches_fraction_reference(curve):
    # The integer search returns the Fraction search's model, or raises its
    # ValueError text, at every degree, both epsilons and a forced congruence.
    for d in range(3, 10):
        shift, alpha = _targets(d)
        for eps in (F(1, 2), F(1, 8)):
            args = (curve, shift, alpha, eps, d)
            assert _outcome(build_model, *args) == _outcome(build_model_fraction, *args)
        args = (curve, 0, 0, F(1, 2), d)
        want = _outcome(build_model_fraction, *args, force_cubic_mod=37)
        assert isinstance(want, family.WeierstrassModel)
        assert _outcome(build_model, *args, force_cubic_mod=37) == want


def test_build_model_failures_match_fraction_reference(monkeypatch):
    invalid = [
        ((0, 0), 0, 0, 1, 3, None),  # singular curve
        ((1, 1), 0, 0, 1, 2, None),  # degree below 3
        ((1, 1), 0, 0, 0, 3, None),  # epsilon not positive
        ((1, 1), 0, 0, 1, 3, 1),  # forced modulus below 2
        ((1, 1), 1, 1, 1, 5, 37),  # forced congruence with a shift
        ((1, 1), 1, F(1, 3), F(1, 10**2000), 5, None),  # alpha not approximated
    ]
    for *args, forced in invalid:
        want = _outcome(build_model_fraction, *args, force_cubic_mod=forced)
        assert want.startswith("ValueError")
        assert _outcome(build_model, *args, force_cubic_mod=forced) == want
    # The MAX_PRIME path: no admissible p2 is small enough.
    monkeypatch.setattr(family, "MAX_PRIME", 4)
    for curve in [(1, 1), (0, -2), (-16, 16), (2, 3)]:
        want = _outcome(build_model_fraction, curve, 0, 0, F(1, 2), 3)
        assert "no admissible p2" in want
        assert _outcome(build_model, curve, 0, 0, F(1, 2), 3) == want
    monkeypatch.undo()
    # The MAX_K path: two rescale exponents meet the box at some degrees only.
    monkeypatch.setattr(family, "MAX_K", 2)
    failures = 0
    for curve in [(1, 1), (0, -2), (-16, 16), (2, 3)]:
        for d in range(3, 10):
            args = (curve, *_targets(d), F(1, 8), d)
            want = _outcome(build_model_fraction, *args)
            failures += isinstance(want, str)
            assert _outcome(build_model, *args) == want
    assert failures > 0


def test_build_model_rejects_singular_curve():
    with pytest.raises(ValueError):
        build_model((0, 0), 0, 0, 1, 3)


def _broken_models(model):
    """model, then copies that each break one property of it."""
    p1, p2, p3 = model.p1, model.p2, model.p3
    q = next(p for p in (2, 3, 5, 7, 11, 13) if p not in (p1, p2, p3))
    a, e = model.alpha, model.epsilon
    yield model
    for p in (q, p2, p3):  # a denominator prime other than p1
        yield dataclasses.replace(model, B=model.B + F(1, p))
    yield dataclasses.replace(model, D=model.D * p2)  # v_p2(D) = 2
    yield dataclasses.replace(model, C=model.C * p2)  # p2 | C
    yield dataclasses.replace(model, B=model.B + 1)  # the p3 congruence
    yield dataclasses.replace(model, B=3 * a + e)  # each box coefficient exactly epsilon away
    yield dataclasses.replace(model, C=3 * a**2 - e)
    yield dataclasses.replace(model, D=a**3 + e)
    if model.forced_modulus:  # the forced congruence
        yield dataclasses.replace(model, D=model.D + p3**6)
        yield dataclasses.replace(model, forced_modulus=model.forced_modulus * p1)


def test_verify_model_flags_match_fraction_reference():
    # Each ModelCheck flag, and its type, equals the Fraction check's, on
    # built models and on copies that each break one property.
    bases = [
        build_model((0, -2), 0, 0, 1, 3),
        build_family((1, 1), 5)[0],
        build_family((1, 1), 6)[0],
        build_model((-16, 16), 0, 0, F(1, 2), 3, force_cubic_mod=37),
    ]
    for base in bases:
        assert verify_model(base).all_ok()
        for i, model in enumerate(_broken_models(base)):
            got, want = verify_model(model), verify_model_fraction(model)
            assert dataclasses.astuple(got) == dataclasses.astuple(want), (base, i)
            assert [type(x) for x in dataclasses.astuple(got)] == [
                type(x) for x in dataclasses.astuple(want)
            ]
            assert got.all_ok() == (i == 0), (base, i)


def test_simple_factor_matches_yun_split():
    # The squarefree proof mod a small prime, and the Yun split over Q it
    # falls back to, give the reference's factor: on squarefree h, on h with
    # a repeated factor or a factor t, and on h whose lead is divisible by
    # every prime tried, so that no reduction keeps its degree.
    rng = random.Random(23)
    lead_of_all = math.prod(primes_up_to(53))
    cases = [[lead_of_all, 0, 0, 0, 1], [0, 5, 0, 0, lead_of_all], [0, 0, 3, 1]]
    for _ in range(60):
        g = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 5)])
        k = Poly([rng.randint(-99, 99) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
        h = k * g * g if rng.random() < 0.5 else k * g
        if rng.random() < 0.3:
            h = h.shift(1)
        if h.degree >= 2:
            cases.append([int(c) for c in h.coeffs])
    for h in cases:
        assert family._simple_factor(h) == simple_factor_fraction(Poly(h).monic()), h


def test_build_family_needs_no_fraction_evaluation(monkeypatch):
    # Set-up evaluates no Fraction polynomial and splits no h over Q: the
    # root search is integer Horner and a squarefree h is proved mod p.
    want = {d: build_family((1, 1), d) for d in range(3, 9)}

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction path taken during set-up")

    monkeypatch.setattr(Poly, "__call__", refuse)
    monkeypatch.setattr(family, "squarefree_decompose", refuse)
    monkeypatch.setattr(polyarith, "squarefree_decompose", refuse)
    for d, built in want.items():
        assert build_family((1, 1), d) == built


def test_verify_model_catches_violations():
    base = build_model((0, -2), 0, 0, 1, 3)
    bad = WeierstrassModel(
        B=base.B, C=base.C, D=F(25), p1=base.p1, p2=5, p3=base.p3,
        shift_target=0, alpha=F(0), epsilon=F(1),
    )
    assert not verify_model(bad).unit_divisibility
    exact = WeierstrassModel(
        B=3 * F(1, 2), C=base.C, D=base.D, p1=base.p1, p2=5, p3=base.p3,
        shift_target=0, alpha=F(1, 2), epsilon=F(1, 1000),
    )
    assert abs(exact.B - 3 * exact.alpha) < exact.epsilon


def test_twist_polynomial_shapes():
    model = build_model((1, 1), -1, -1, F(1, 2), 6)
    f = model.f
    fam3 = twist_polynomial(build_model((1, 1), 0, 0, F(1, 2), 3), 3)
    assert fam3.parity_case == PARITY_CUBIC
    assert fam3.P.degree == 3

    fam6 = twist_polynomial(model, 6)
    assert fam6.parity_case == PARITY_EVEN
    assert fam6.P.degree == 6
    assert fam6.P.lead == Poly([0, 0, 1])  # t^2

    model7 = build_model((1, 1), 1, 1, F(1, 2), 7)
    fam7 = twist_polynomial(model7, 7)
    assert fam7.parity_case == PARITY_ODD
    assert fam7.P.degree == 7
    assert fam7.P.xcoeffs[0] == -Poly([0, 0, 1])  # -t^2 constant term


def test_twist_polynomial_rejects_small_degree():
    model = build_model((1, 1), 0, 0, F(1, 2), 3)
    with pytest.raises(ValueError):
        twist_polynomial(model, 2)


def test_disc_form_degrees_all_parities():
    for curve in CURVES:
        for d in range(3, 11):
            _, _, form = build_family(curve, d)
            assert form.t_power == (0 if d == 3 else 2 * d - 8)
            assert form.degree_h == (4 if d == 3 else 6)
            assert form.non_squarefull
            assert form.both_signs_on_unit_interval
            assert form.simple_factor is not None
            assert form.simple_factor.coeff(0) != 0  # not t


def test_closed_form_odd_family():
    # x^(d-3) (x+1)^3 - t^2
    for d in (5, 7, 9):
        shifted = Poly([1, 3, 3, 1]).shift(d - 3)
        xc = [Poly([c]) for c in shifted.coeffs]
        xc[0] = xc[0] + Poly([0, 0, -1])
        p = BivarPoly(xc)
        sign = (-1) ** ((d - 1) // 2)
        expected = Poly(
            [0] * (2 * d - 4)
            + [sign * (-27 * (d - 3) ** (d - 3)), 0, sign * d**d]
        )
        assert discriminant_in_t(p) == expected


def test_closed_form_even_family():
    # t^2 x^d - (x-1)^3
    for d in (4, 6, 8):
        xc = [Poly([c]) for c in (1, -3, 3, -1)]
        xc += [Poly()] * (d - 4) + [Poly([0, 0, 1])]
        p = BivarPoly(xc)
        sign = (-1) ** (d // 2)
        expected = Poly(
            [0] * (2 * d - 4)
            + [sign * (-27 * (d - 3) ** (d - 3)), 0, sign * d**d]
        )
        assert discriminant_in_t(p) == expected


def test_even_family_reciprocal_discriminant():
    _, fam, _ = build_family((1, 1), 6)
    rng = random.Random(8)
    for _ in range(10):
        t0 = F(rng.randint(-9, 9), rng.randint(1, 9))
        spec = fam.P.eval_t(t0)
        if spec.degree != 6 or spec.coeff(0) == 0:
            continue
        assert discriminant(spec) == discriminant(spec.reverse())


def test_specialize_consistency_with_form():
    model, fam, form = build_family((0, -2), 3)
    spec = specialize(fam, 1, 1)
    disc_direct = discriminant(spec)
    disc_from_form = form.unit * form.h(F(1))
    # the two differ by the square of the clearing factor
    ratio = disc_direct / disc_from_form
    assert ratio > 0
    root = F(
        math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
    )
    assert root * root == ratio


def test_specialize_validations():
    _, fam, _ = build_family((1, 1), 4)
    with pytest.raises(ValueError):
        specialize(fam, 2, 0)
    with pytest.raises(ValueError):
        specialize(fam, 2, 4)


def test_specialize_primitive_integral():
    _, fam, _ = build_family((1, 1), 5)
    spec = specialize(fam, 3, 7)
    assert spec.is_integral()
    assert spec.content() == 1
    assert spec.lead > 0


def test_point_identity_random_models_and_points():
    rng = random.Random(15)
    curves = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
              if -4 * a**3 - 27 * b**2 != 0]
    rng.shuffle(curves)
    models = 0
    for curve in curves:
        if models >= 20:
            break
        d = rng.choice((3, 4, 5, 6))
        try:
            _, fam, _ = build_family(curve, d)
        except ValueError:
            continue
        models += 1
        checked = 0
        while checked < 50:
            u = rng.randint(-20, 20)
            v = rng.randint(-20, 20)
            if v == 0 or math.gcd(u, v) != 1:
                continue
            checked += 1
            spec = specialize(fam, u, v)
            if spec.degree < 1:
                continue
            assert verify_new_point(spec, fam, u, v)
    assert models == 20


def test_point_identity_negative_control():
    _, fam, _ = build_family((1, 1), 6)
    spec = specialize(fam, 3, 2)
    assert type(spec) is IntPoly
    assert verify_new_point(spec, fam, 3, 2)
    assert not verify_new_point(spec + IntPoly([1]), fam, 3, 2)


def test_forced_cubic_congruence_model():
    model = build_model((-16, 16), 0, 0, F(1, 2), 3, force_cubic_mod=37)
    check = verify_model(model)
    assert check.all_ok()
    assert check.forced_congruence is True
    # the family discriminant then reduces to the bare cubic class mod 37
    fam = twist_polynomial(model, 3)
    for t in (1, 2, 5):
        spec_disc = discriminant(fam.P.eval_t(F(t)))
        target = (-(t**3) * (27 * t + 4)) % 37
        num = spec_disc.numerator % 37
        den = spec_disc.denominator % 37
        assert num * pow(den, -1, 37) % 37 == target
