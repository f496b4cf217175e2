import math
import random
from fractions import Fraction as F

import pytest

from sdtwists.polyarith import Poly
from sdtwists.padic import (
    CycleType,
    cycle_certificate,
    frobenius_cycle_type,
    n_cycle_type,
    newton_polygon,
    valuation,
)

from sdtwists.primes import primes_up_to

import oracles


def test_valuation_examples():
    assert valuation(F(25, 3), 5) == 2
    assert valuation(F(1, 49), 7) == -2
    assert valuation(0, 7) == math.inf


def test_valuation_requires_prime():
    with pytest.raises(ValueError):
        valuation(F(1, 2), 6)


def test_eisenstein_polygon():
    # points (0,1) and (3,0): slope -1/3, roots of valuation +1/3
    np1 = newton_polygon(Poly([5, 0, 0, 1]), 5)
    assert np1.segments == ((F(-1, 3), 3),)
    assert np1.root_valuations() == ((F(1, 3), 3),)
    assert cycle_certificate(np1) == [CycleType((3,))]


def odd_spec(vshift):
    # x^4 f(x) - 5^vshift with f = x^3 + x + 5: v_5(D) = 1, v_5(C) = 0
    f = Poly([5, 1, 0, 1])
    return f.shift(4) - Poly([F(5) ** vshift])


def test_degree_seven_inverse_prime_polygon():
    poly = odd_spec(-2)
    np7 = newton_polygon(poly, 5)
    assert np7.points[0] == (0, F(-2))
    assert np7.points[-1] == (7, F(0))
    assert np7.segments == ((F(2, 7), 7),)
    assert cycle_certificate(np7) == [n_cycle_type(7, 7)]


def test_degree_seven_prime_polygon():
    poly = odd_spec(2)
    np7 = newton_polygon(poly, 5)
    assert [pt for pt in np7.points if pt[0] in (0, 5, 7)] == [
        (0, F(2)),
        (5, F(0)),
        (7, F(0)),
    ]
    assert np7.segments == ((F(-2, 5), 5), (F(0), 2))
    assert cycle_certificate(np7) == [n_cycle_type(5, 7)]


def test_polygon_slope_sum_invariant():
    rng = random.Random(3)
    for _ in range(100):
        coeffs = [rng.randint(1, 400)] + [
            rng.randint(-400, 400) for _ in range(rng.randint(1, 6))
        ]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-400, 400)
        f = Poly(coeffs)
        for p in (2, 3, 5, 7):
            polygon = newton_polygon(f, p)
            total = sum(s * l for s, l in polygon.segments)
            assert total == valuation(f.lead, p) - valuation(f.coeff(0), p)


def test_polygon_of_split_products():
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(20):
            exps = sorted(rng.randint(0, 3) for _ in range(3))
            units = [rng.choice([1, 2, 3, 4]) for _ in range(3)]
            units = [u for u in units if u % p]
            while len(units) < 3:
                units.append(1)
            f = Poly([1])
            for e, u in zip(exps, units):
                f = f * Poly([-(p**e) * u, 1])
            polygon = newton_polygon(f, p)
            vals = []
            for slope, length in polygon.segments:
                vals.extend([-slope] * length)
            assert sorted(vals) == sorted(F(e) for e in exps)


def test_frobenius_examples():
    assert frobenius_cycle_type(Poly([1, 0, 1]), 5) == CycleType((1, 1))
    assert frobenius_cycle_type(Poly([1, 0, 1]), 3) == CycleType((2,))
    assert frobenius_cycle_type(Poly([-1, -2, -1, 1]), 2) == CycleType((3,))


def test_frobenius_bad_prime_is_none():
    assert frobenius_cycle_type(Poly([-2, 0, 1]), 2) is None  # x^2 - 2 at 2
    assert frobenius_cycle_type(Poly([1, 2, 1]), 7) is None  # square


def test_frobenius_denominator_error():
    with pytest.raises(ValueError):
        frobenius_cycle_type(Poly([F(1, 5), 0, 1]), 5)


def test_frobenius_parts_sum_to_degree():
    rng = random.Random(13)
    from sdtwists.primes import primes_up_to

    for _ in range(50):
        f = Poly([rng.randint(-20, 20) for _ in range(5)] + [1])
        for p in primes_up_to(40):
            ct = frobenius_cycle_type(f, p)
            if ct is not None:
                assert ct.degree == f.degree


def test_chebotarev_sanity_for_s3_cubic():
    f = Poly([-1, -2, -1, 1])  # irreducible, disc -31
    from sdtwists.primes import primes_up_to

    seen = set()
    good = 0
    for p in primes_up_to(400):
        ct = frobenius_cycle_type(f, p)
        if ct is None:
            continue
        good += 1
        seen.add(ct)
        if good >= 50 and len(seen) == 3:
            break
    assert good >= 50
    assert seen == {CycleType((3,)), CycleType((2, 1)), CycleType((1, 1, 1))}


def test_distinct_degree_matches_exhaustive_oracle():
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            deg = rng.randint(2, 5)
            coeffs = [rng.randint(0, p - 1) for _ in range(deg)] + [1]
            f = Poly(coeffs)
            ct = frobenius_cycle_type(f, p)
            if ct is None:
                continue
            fbar = [c % p for c in (x.numerator for x in f.coeffs)]
            assert list(ct.parts) == sorted(
                oracles.modp_factor_degrees(fbar, p), reverse=True
            )


def random_integer_poly(rng, degree, p, bound=30):
    """Random integer coefficients of the degree, the lead prime to p."""
    lead = rng.choice([c for c in range(1, bound + 1) if c % p])
    return [rng.randint(-bound, bound) for _ in range(degree)] + [lead]


def exhaustive_oracle_feasible(p, degree):
    # modp_factor_degrees enumerates every irreducible of degree <= deg/2
    return p ** (degree // 2) <= 200


def test_distinct_degree_matches_exhaustive_oracle_to_200():
    rng = random.Random(31)
    checked = set()
    for p in primes_up_to(200):
        for degree in range(1, 9):
            if not exhaustive_oracle_feasible(p, degree):
                continue
            for _ in range(3):
                coeffs = random_integer_poly(rng, degree, p)
                ct = frobenius_cycle_type(Poly(coeffs), p)
                if ct is None:
                    continue
                want = oracles.modp_factor_degrees([c % p for c in coeffs], p)
                assert list(ct.parts) == sorted(want, reverse=True), (coeffs, p)
                checked.add((p, degree))
    assert {(2, 8), (3, 8), (5, 6), (13, 4), (199, 3)} <= checked


def test_distinct_degree_matches_sympy_to_200():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(37)
    checked = 0
    for p in primes_up_to(200):
        for degree in range(1, 9):
            coeffs = random_integer_poly(rng, degree, p)
            ct = frobenius_cycle_type(Poly(coeffs), p)
            if ct is None:
                continue
            _, factors = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
            want = [q.degree() for q, mult in factors for _ in range(mult)]
            assert list(ct.parts) == sorted(want, reverse=True), (coeffs, p)
            checked += 1
    assert checked > 300


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType((0, 3))
    assert CycleType((1, 3, 2)).parts == (3, 2, 1)
