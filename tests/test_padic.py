import math
import random
from itertools import islice
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from sdtwists import padic
from sdtwists.polyarith import Poly, _normalize_factor, discriminant
from sdtwists.padic import (
    CycleType,
    cycle_certificate,
    frobenius_cycle_type,
    frobenius_parity,
    good_prime_cycle_type,
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
    (slope, length), = np1.segments  # three roots of valuation -slope
    assert (-slope, length) == (F(1, 3), 3)
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


def test_distinct_degree_matches_sympy_to_200(monkeypatch):
    # Random polynomials, and products of two random monic factors mod p for
    # split patterns, of degrees 1 to 8 at every prime below 200, with and
    # without the parity.  The inputs reach the gcd counts (p <= deg) and
    # the traces (p > deg) at degrees 6 and over, and a trace step k >= 3, the
    # first that forms a power of the Frobenius matrix ([3, 3] without the
    # parity, or [4, 4] against [5, 3] with it).
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(37)
    applied = []
    apply = padic._Ring.apply

    def counted_apply(ring, *args):
        applied.append(ring.p)
        return apply(ring, *args)

    monkeypatch.setattr(padic._Ring, "apply", counted_apply)
    checked = 0
    reached = set()
    for p in primes_up_to(200):
        for degree in range(1, 9):
            half = degree // 2
            first = [rng.randrange(p) for _ in range(half)] + [1]
            second = [rng.randrange(p) for _ in range(degree - half)] + [1]
            product = oracles.modp_mulmod(first, second, [0] * (degree + 1) + [1], p)  # mod x^(d + 1)
            for coeffs in (random_integer_poly(rng, degree, p), product):
                ct = frobenius_cycle_type(Poly(coeffs), p)
                if ct is None:
                    continue
                _, factors = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
                want = [q.degree() for q, mult in factors for _ in range(mult)]
                assert list(ct.parts) == sorted(want, reverse=True), (coeffs, p)
                parity = (degree - len(want)) % 2
                applied.clear()
                assert good_prime_cycle_type(coeffs, p, parity) == ct, (coeffs, p)
                if degree >= 6:
                    reached.add("p <= deg" if p <= degree else "p > deg")
                if p > degree and applied:
                    reached.add("k >= 3 with parity")
                applied.clear()
                assert good_prime_cycle_type(coeffs, p) == ct
                if p > degree and applied:
                    reached.add("k >= 3")
                checked += 1
    assert checked > 600
    assert reached == {"p <= deg", "p > deg", "k >= 3", "k >= 3 with parity"}


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType((0, 3))
    assert CycleType((1, 3, 2)).parts == (3, 2, 1)


# -- the parity of Frobenius ------------------------------------------------------


def brute_partitions(m, least):
    """Partitions of m into parts >= least, from all 2^(m-1) compositions."""
    if m == 0:
        return {()}
    out = set()
    for cuts in range(1 << (m - 1)):
        parts, run = [], 1
        for i in range(m - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        if min(parts) >= least:
            out.add(tuple(sorted(parts)))
    return out


def test_partitions_match_brute_force():
    for m in range(13):
        for least in range(1, m + 2):
            got = list(padic._partitions(m, least))
            want = brute_partitions(m, least)
            assert len(got) == len(set(got)) and set(got) == want, (m, least)
            for parity in (None, 0, 1):
                fits = [q for q in want if parity is None or (m - len(q)) % 2 == parity]
                sole = fits[0] if len(fits) == 1 else None
                assert padic._sole_partition(m, least, parity) == sole, (m, least, parity)


def primitive_with_good_prime(data, degree, p):
    """A primitive integral polynomial of the degree with p dividing neither
    its lead nor its discriminant, as (coefficients, discriminant)."""
    coeffs = data.draw(st.lists(st.integers(-60, 60), min_size=degree, max_size=degree))
    lead = data.draw(st.integers(1, 60).filter(lambda c: c % p))
    g = _normalize_factor(Poly(coeffs + [lead]))
    disc = discriminant(g).numerator
    assume(disc % p)
    return [c.numerator for c in g.coeffs], disc


PRIMES_TO_200 = st.one_of(st.sampled_from([2, 3]), st.sampled_from(primes_up_to(200)))


@settings(max_examples=400, deadline=None)
@given(degree=st.integers(2, 8), p=PRIMES_TO_200, data=st.data())
def test_parity_from_discriminant_matches_factorization(degree, p, data):
    # Stickelberger: (n - number of factors) mod 2 is read off disc, by a
    # Legendre symbol for odd p and disc mod 8 for p = 2; the pruned kernel
    # then agrees with the full loop.
    coeffs, disc = primitive_with_good_prime(data, degree, p)
    full = good_prime_cycle_type(coeffs, p)
    parity = frobenius_parity(disc, p)
    assert parity == (degree - len(full.parts)) % 2
    assert good_prime_cycle_type(coeffs, p, parity) == full


def test_parity_from_discriminant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    @settings(max_examples=200, deadline=None)
    @given(degree=st.integers(2, 8), p=PRIMES_TO_200, data=st.data())
    def check(degree, p, data):
        coeffs, disc = primitive_with_good_prime(data, degree, p)
        _, factors = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
        count = sum(mult for _, mult in factors)
        assert frobenius_parity(disc, p) == (degree - count) % 2
        want = sorted((q.degree() for q, mult in factors for _ in range(mult)), reverse=True)
        assert list(good_prime_cycle_type(coeffs, p, frobenius_parity(disc, p)).parts) == want

    check()


def test_odd_cubic_and_quadratics_need_no_powering(monkeypatch):
    cubic = [1, -1, 0, 1]  # x^3 - x + 1: disc -23, a non-square mod 5
    assert frobenius_cycle_type(Poly(cubic), 5) == CycleType((2, 1))

    def refuse(*args):
        raise AssertionError("x^p mod f was computed")

    monkeypatch.setattr(padic, "_x_power", refuse)
    assert frobenius_parity(-23, 5) == 1
    assert sorted(good_prime_cycle_type([c % 5 for c in cubic], 5, 1).parts) == [1, 2]
    assert good_prime_cycle_type(cubic, 5, 1) == CycleType((2, 1))
    # x^2 + 1, disc -4: a square mod 5 (splits), a non-square mod 3
    assert good_prime_cycle_type([1, 0, 1], 5, frobenius_parity(-4, 5)) == CycleType((1, 1))
    assert good_prime_cycle_type([1, 0, 1], 3, frobenius_parity(-4, 3)) == CycleType((2,))


def test_parity_stops_after_the_linear_factors(monkeypatch):
    # With the parity, a quintic is settled once its linear factors are
    # split off (the rest is [5], [2, 3], [4], [2, 2], [3] or [2], each the
    # only pattern of its parity); so is a sextic with a linear factor.
    # Below ROOT_PRIME_BOUND the linear factors come from the root count, so
    # neither a gcd nor x^p mod f is computed.
    rng = random.Random(43)
    calls = []

    def counted(name):
        real = getattr(padic, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    checked = {5: 0, 6: 0}
    for p in primes_up_to(60):
        for degree in (5, 6):
            for _ in range(12):
                coeffs = random_integer_poly(rng, degree, p)
                disc = discriminant(Poly(coeffs)).numerator
                if disc % p == 0:
                    continue
                full = frobenius_cycle_type(Poly(coeffs), p)
                with monkeypatch.context() as patch:
                    patch.setattr(padic, "_pgcd", counted("_pgcd"))
                    patch.setattr(padic, "_x_power", counted("_x_power"))
                    calls.clear()
                    assert good_prime_cycle_type(coeffs, p, frobenius_parity(disc, p)) == full
                if degree == 5 or 1 in full.parts:
                    assert calls == [], (coeffs, p, full)
                    checked[degree] += 1
    assert checked[5] > 100 and checked[6] > 50


def test_parity_contradiction_is_an_error():
    # x^3 - x + 1 is [2, 1] mod 5, an odd permutation.  Claimed even, the
    # loop counts its one root and finds no rest of the parity owed; that
    # raises instead of looping on.
    with pytest.raises(ArithmeticError):
        good_prime_cycle_type([1, -1, 0, 1], 5, 0)


# -- the root count below ROOT_PRIME_BOUND ----------------------------------------


def powering_pattern(coeffs, p, monkeypatch):
    """The parity-free loop with every prime counting its roots from the
    Frobenius matrix, also where a plan with a root count is cached."""
    return sorted(matrix_cycle_type(coeffs, p, monkeypatch).parts)


def matrix_cycle_type(coeffs, p, monkeypatch):
    """``powering_pattern`` as the ``CycleType`` the loop returns.  A cached
    plan keeps the cutoff it was built under, so the plan cache is cleared
    on entering and on leaving the lowered cutoff."""

    def refuse(*args):
        raise AssertionError("the root count ran above the lowered cutoff")

    with monkeypatch.context() as patch:
        patch.setattr(padic, "ROOT_PRIME_BOUND", 2)
        patch.setattr(padic._RootPlan, "roots", refuse)
        padic._settle_plan.cache_clear()
        try:
            return good_prime_cycle_type(coeffs, p)
        finally:
            padic._settle_plan.cache_clear()


def test_root_count_at_the_cutoff(monkeypatch):
    # At the largest prime below the cutoff and the smallest above it, with
    # every coefficient p - 1 (the largest slot sums, (n + 1)(p - 1)^2) the
    # packed values, at the plan's slot width, are f at every point of F_p;
    # with those coefficients and
    # seeded random ones, the pattern equals the one read off the Frobenius
    # matrix alone and sympy's for degrees 2 to 8, with and without the
    # parity.
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    below = max(primes_up_to(padic.ROOT_PRIME_BOUND - 1))
    above = min(p for p in primes_up_to(2 * padic.ROOT_PRIME_BOUND) if p >= padic.ROOT_PRIME_BOUND)
    assert (below, above) == (251, 257)
    rng = random.Random(47)
    checked = set()
    for p in (below, above):
        for degree in range(2, 9):
            full = [p - 1] * (degree + 1)
            direct = [sum(c * a**i for i, c in enumerate(full)) % p for a in range(p)]
            plan = padic._root_plan(p, degree + 1)
            assert plan.values(full) == packed_slots(direct, plan.width)
            assert plan.roots(full) == direct.count(0)
            for coeffs in [[p - 1] * degree + [1]] + [
                [rng.randrange(p) for _ in range(degree)] + [1] for _ in range(6)
            ]:
                disc = discriminant(Poly(coeffs)).numerator
                if disc % p == 0:
                    continue
                _, factors = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
                want = sorted(q.degree() for q, mult in factors for _ in range(mult))
                assert powering_pattern(coeffs, p, monkeypatch) == want, (coeffs, p)
                assert sorted(good_prime_cycle_type(coeffs, p).parts) == want, (coeffs, p)
                parity = frobenius_parity(disc, p)
                assert sorted(good_prime_cycle_type(coeffs, p, parity).parts) == want, (coeffs, p)
                checked.add((p, degree))
    assert len(checked) == 14


@pytest.fixture
def fresh_root_plans(monkeypatch):
    """Empty column and plan caches for the test, and the set of the
    (p, width, count, pairs) keys of the packed columns it builds."""
    built = set()
    columns = padic._point_columns

    def recorded(*key):
        built.add(key)
        return columns(*key)

    columns.cache_clear()
    padic._settle_plan.cache_clear()
    monkeypatch.setattr(padic, "_point_columns", recorded)
    yield built
    padic._settle_plan.cache_clear()


def test_column_table_holds_only_primes_below_the_cutoff(fresh_root_plans):
    # x * (x^2 + c) with c the product of the primes below 200 is bad at each
    # of them, and, reducible, never meets the S_d criterion, so the scan
    # takes all 25 good primes, from 211 to well past the cutoff.  The even
    # ones (-c a square mod p) count roots below the cutoff and power x^p
    # above it; only the former build packed columns, one table per prime
    # at the one slot width its cubics need.
    from sdtwists.galois import collect_evidence

    c = math.prod(primes_up_to(199))
    evidence = collect_evidence(Poly([0, c, 0, 1]), 3, 25)
    scanned = [p for kind, p, _ in evidence.provenance if kind == "frobenius_cycle_type"]
    assert len(scanned) == 25 and min(scanned) == 211 and max(scanned) > padic.ROOT_PRIME_BOUND
    counted = {p for p in scanned if p < padic.ROOT_PRIME_BOUND and pow(-c, p >> 1, p) == 1}
    # copied before the expected keys are built: _root_plan records as well
    built = set(fresh_root_plans)
    expected = {(p, padic._root_plan(p, 4).width, 4, False) for p in counted}
    assert counted and built == expected


def packed_slots(values, width):
    """The packed integer with these slot values, ``width`` bits each, slot
    0 first."""
    return sum(v << width * a for a, v in enumerate(values))


# The degree of f past which the Barrett step of the root count stops being
# exact at p = 251 in slots of at most 64 bits: the largest n with
# bound * magic < 2^64 for bound = (n + 1) * 250^2.  Every prime below
# ROOT_PRIME_BOUND admits it.
LARGEST_COUNTED_DEGREE = 67_376


def test_root_count_matches_direct_evaluation(fresh_root_plans):
    # With every coefficient p - 1 the slot sums are largest.  The packed
    # values after the Barrett step, at the plan's slot width, and the
    # popcount root count agree with f evaluated at every point of F_p, for
    # degrees 2 to 12 at p = 2, 3 and 251.  At p = 251 the same holds at the
    # largest degree the exact condition admits in 64-bit slots, and one
    # degree more is refused.
    for p in (2, 3, 251):
        for n in range(2, 13):
            f = [p - 1] * (n + 1)
            direct = [sum(c * a**i for i, c in enumerate(f)) % p for a in range(p)]
            plan = padic._root_plan(p, n + 1)
            assert plan.values(f) == packed_slots(direct, plan.width), (p, n)
            assert plan.roots(f) == direct.count(0), (p, n)
    p, n = 251, LARGEST_COUNTED_DEGREE
    plan = padic._root_plan(p, n + 1)
    assert plan is not None and plan.width == 64 and padic._root_plan(p, n + 2) is None
    assert all(padic._root_plan(q, n + 1) for q in primes_up_to(padic.ROOT_PRIME_BOUND - 1))
    # f = (p - 1)(1 + a + ... + a^n), summed as a geometric series
    geometric = [1, (n + 1) % p] + [
        (pow(a, n + 1, p) - 1) * pow(a - 1, -1, p) % p for a in range(2, p)
    ]
    direct = [(p - 1) * s % p for s in geometric]
    assert plan.values([p - 1] * (n + 1)) == packed_slots(direct, 64)
    assert plan.roots([p - 1] * (n + 1)) == direct.count(0)
    # columns past p - 1 repeat, and share their objects
    assert len(plan.columns) == n + 1 and len({id(c) for c in plan.columns}) == p


def test_root_count_is_exact_at_every_prime_below_the_cutoff():
    # For every prime below ROOT_PRIME_BOUND and every degree from 2 to 8,
    # with every coefficient p - 1 (the largest slot sums) and with seeded
    # random ones, the packed values are f at every point of F_p and the
    # root count is their number of zeros.  The slot width is the fewest
    # whole bytes holding bound * magic, which is 8 to 40 bits here.
    rng = random.Random(79)
    widths = set()
    for p in primes_up_to(padic.ROOT_PRIME_BOUND - 1):
        for n in range(2, 9):
            plan = padic._root_plan(p, n + 1)
            shift, magic = padic._barrett_constants((n + 1) * (p - 1) ** 2, p)
            assert (plan._shift, plan._magic) == (shift, magic)
            assert plan.width % 8 == 0
            assert plan.width - 8 < ((n + 1) * (p - 1) ** 2 * magic).bit_length() <= plan.width
            widths.add(plan.width)
            for f in ([p - 1] * (n + 1), [rng.randrange(p) for _ in range(n)] + [1]):
                direct = [sum(c * a**i for i, c in enumerate(f)) % p for a in range(p)]
                assert plan.values(f) == packed_slots(direct, plan.width), (p, n, f)
                assert plan.roots(f) == direct.count(0), (p, n, f)
    assert widths == {8, 16, 24, 32, 40}


def plan_settles(n, parity, roots, twos):
    """What the plan of degree n and the parity settles after the parity
    alone (roots None), the root count (twos None) or the quadratic factors
    as well."""
    settled, _, stop = padic._settle_plan(2, n, parity)
    if roots is None:
        return settled
    return stop[(roots,) if twos is None else (roots, twos)]


def test_settled_table_matches_the_parity_free_loop():
    # For every degree n <= 12, root count r (or none yet), number of
    # quadratic factors c (or none yet) and parity (or none), the stop rule
    # holds the cycle type exactly when one partition of n with r parts
    # equal to 1 and c equal to 2 has that parity, and None when several
    # do; a key that no partition fits raises.  On random polynomials at
    # small primes, whatever it holds is the pattern of the parity-free loop.
    for n in range(1, 13):
        patterns = brute_partitions(n, 1)
        for roots in [None, *range(n + 1)]:
            for twos in [None, *range(n // 2 + 1)] if roots is not None else [None]:
                for parity in (None, 0, 1):
                    fits = [
                        q
                        for q in patterns
                        if (roots is None or q.count(1) == roots)
                        and (twos is None or q.count(2) == twos)
                        and (parity is None or (n - len(q)) % 2 == parity)
                    ]
                    if not fits:
                        with pytest.raises(ArithmeticError):
                            plan_settles(n, parity, roots, twos)
                        continue
                    want = CycleType(fits[0]) if len(fits) == 1 else None
                    assert plan_settles(n, parity, roots, twos) == want, (n, parity, roots, twos)
    rng = random.Random(67)
    settled = 0
    for p in primes_up_to(60):
        for n in range(2, 13):
            for _ in range(8):
                f = [rng.randrange(p) for _ in range(n)] + [1]
                deriv = [i * c for i, c in enumerate(f)][1:]
                if len(padic._pgcd(f, deriv, p)) != 1:
                    continue
                loop = tuple(sorted(good_prime_cycle_type(f, p).parts))
                parity = (n - len(loop)) % 2
                for roots, twos in ((None, None), (loop.count(1), None), (loop.count(1), loop.count(2))):
                    for par in (None, parity):
                        got = plan_settles(n, par, roots, twos)
                        assert got is None or got.parts == loop[::-1], (f, p, roots, twos, par)
                        settled += got is not None
    assert settled > 800


def test_settled_quintics_and_sextics_list_no_roots(monkeypatch):
    # With the parity, a quintic, or a sextic with a root mod p, is settled
    # by the root count: neither the ring nor its Frobenius columns are
    # built.
    rng = random.Random(71)

    def refuse(*args):
        raise AssertionError("the ring built or a count asked for a settled pattern")

    checked = {5: 0, 6: 0}
    for p in primes_up_to(60):
        for degree in (5, 6):
            for _ in range(12):
                coeffs = random_integer_poly(rng, degree, p)
                disc = discriminant(Poly(coeffs)).numerator
                if disc % p == 0:
                    continue
                full = frobenius_cycle_type(Poly(coeffs), p)
                if degree == 6 and 1 not in full.parts:
                    continue
                with monkeypatch.context() as patch:
                    patch.setattr(padic, "_frobenius_columns", refuse)
                    patch.setattr(padic, "_Ring", refuse)
                    assert good_prime_cycle_type(coeffs, p, frobenius_parity(disc, p)) == full
                checked[degree] += 1
    assert checked[5] > 100 and checked[6] > 50


def test_equal_patterns_share_one_cycle_type():
    # Every cycle type padic returns for the same parts is one object, on
    # the settled path, through the loop, above the root count's cutoff and
    # without the parity alike.
    rng = random.Random(73)
    seen: dict[tuple[int, ...], set[int]] = {}
    for p in (2, 3, 5, 7, 251, 257, 4409):
        for degree in (2, 3, 5, 6, 7):
            for _ in range(10):
                coeffs = random_integer_poly(rng, degree, p)
                disc = discriminant(Poly(coeffs)).numerator
                if disc % p == 0:
                    continue
                for ct in (
                    good_prime_cycle_type(coeffs, p, frobenius_parity(disc, p)),
                    good_prime_cycle_type(coeffs, p),
                    frobenius_cycle_type(Poly(coeffs), p),
                ):
                    seen.setdefault(ct.parts, set()).add(id(ct))
    assert len(seen) > 20
    assert all(len(ids) == 1 for ids in seen.values()), seen
    assert n_cycle_type(2, 3) is frobenius_cycle_type(Poly([1, -1, 0, 1]), 5)  # [2, 1]
    assert good_prime_cycle_type([1, 0, 1], 5, 0) is good_prime_cycle_type([4, 0, 1], 5, 0)


# -- the packed ring F_p[x]/(g) ---------------------------------------------------

# The two smallest primes, the two around ROOT_PRIME_BOUND, one where 64-bit
# slots still hold every degree up to 12, and two that need 128-bit slots.
RING_PRIMES = (2, 3, 251, 257, 4409, 65537, 1_000_003)


def ring_moduli(rng, n, p):
    """A monic g of degree n with every lower coefficient p - 1, and a random one."""
    return [[p - 1] * n + [1], [rng.randrange(p) for _ in range(n)] + [1]]


def test_ring_matches_list_oracle():
    # Products, products times x, x^e and the Frobenius matrix times a
    # vector equal the schoolbook list arithmetic over F_p for degrees 2 to
    # 12, with all-(p - 1) operands and one whose constant slot is the
    # unreduced 2p - 2, which the slot bound covers too.  Results are
    # compared packed, so every slot must come out reduced below p.
    rng = random.Random(53)
    for p in RING_PRIMES:
        for n in range(2, 13):
            for g in ring_moduli(rng, n, p):
                ring = padic._Ring(g, p)
                top = [p - 1] * n
                horner = [2 * p - 2] + top[1:]
                rand = [rng.randrange(p) for _ in range(n)]
                for a, b in ((top, top), (horner, top), (rand, horner), (rand, top)):
                    want = oracles.modp_mulmod(a, b, g, p)
                    assert ring.mul(ring.pack(a), ring.pack(b)) == ring.pack(want), (g, p, a, b)
                    want = oracles.modp_mulmod(a, [0] + b, g, p)
                    assert ring.mul(ring.pack(a), ring.pack(b), True) == ring.pack(want), (g, p, a, b)
                for e in (1, 2, 3, n, n + 1, p, rng.randrange(2, p * p + 2)):
                    want = oracles.modp_powmod([0, 1], e, g, p)
                    assert padic._x_power(e, ring) == ring.pack(want), (g, p, e)
                xp = oracles.modp_powmod([0, 1], p, g, p)
                columns = padic._frobenius_columns(ring)
                assert columns == [ring.pack(oracles.modp_powmod(xp, j, g, p)) for j in range(n)]
                for h in (top, rand):
                    want = [0] * n
                    for c in reversed(h):  # h(x^p) mod g
                        want = oracles.modp_mulmod(want, xp, g, p)
                        want[0] = (want[0] + c) % p
                    assert ring.apply(columns, h) == ring.pack(want), (g, p, h)
                    assert want == oracles.modp_powmod(h, p, g, p)  # h(x)^p = h(x^p)


def test_ring_of_a_non_monic_polynomial_is_the_ring_of_its_monic_multiple():
    # The ring reads x^n mod f off f directly, as -(f - lc(f) x^n) / lc(f),
    # with no monic copy of f; its products, x^e and Frobenius columns are
    # those of the ring on the monic multiple.
    rng = random.Random(83)
    for p in (3, 5, 251, 4409):
        for n in (2, 3, 6, 9):
            lead = rng.randrange(2, p)
            f = [rng.randrange(p) for _ in range(n)] + [lead]
            inv = pow(lead, -1, p)
            monic = padic._Ring([c * inv % p for c in f], p)
            ring = padic._Ring(f, p)
            a, b = (ring.pack([rng.randrange(p) for _ in range(n)]) for _ in range(2))
            assert ring.mul(a, b) == monic.mul(a, b)
            assert ring.mul(a, b, True) == monic.mul(a, b, True)
            assert padic._frobenius_columns(ring) == padic._frobenius_columns(monic)
            for e in (1, n - 1, n, 2 * n + 1, p, p * p + 3):
                want = oracles.modp_powmod([0, 1], e, [c * inv % p for c in f], p)
                assert padic._x_power(e, ring) == ring.pack(want), (f, p, e)


def test_barrett_step_is_exact_at_the_slot_bound():
    # The largest primes whose rings keep 64-bit slots at degrees 2, 6 and
    # 12: there bound * magic fills all 64 bits and the shift is the least
    # with 2^shift >= bound * p, so nothing is to spare.  Every slot at or
    # near the bound, the largest values at most the bound that are p - 1
    # mod p (where a quotient rounded up errs first) and 0 mod p (where one
    # rounded down errs first) reduce to their residues; the next prime
    # needs 128-bit slots.
    for n, p, above in ((2, 32749, 32771), (6, 18013, 18041), (12, 11353, 11369)):
        ring = padic._Ring([1] * (n + 1), p)
        assert ring.bound == 2 * n * (p - 1) ** 2
        assert ring.width == 64 and (ring.bound * ring._magic).bit_length() == 64
        assert 2 ** (ring._shift - 1) < ring.bound * p <= 2**ring._shift
        assert padic._Ring([1] * (n + 1), above).width == 128
        worst = (ring.bound + 1) // p * p - 1
        for slots in (
            [ring.bound] * n,
            [ring.bound - j for j in range(n)],
            [worst] * n,
            [worst - p * j for j in range(n)],
            [worst + 1 - p * j for j in range(n)],
        ):
            assert ring.reduce(ring.pack(slots)) == ring.pack([s % p for s in slots]), (n, p)


def test_barrett_constants_divide_every_value_up_to_the_bound():
    # Both packed reductions take (shift, magic) from one function: the
    # least shift with 2^shift >= bound * p, and for every s <= bound the
    # Barrett quotient equals s // p.  The slot masks repeat one value.
    for p in primes_up_to(60):
        for bound in (p - 1, p, 3 * (p - 1) ** 2, 8 * (p - 1) ** 2 + 5):
            shift, magic = padic._barrett_constants(bound, p)
            assert 2 ** (shift - 1) < bound * p <= 2**shift, (p, bound)
            assert magic == -(-(2**shift) // p)
            assert all(s * magic >> shift == s // p for s in range(bound + 1)), (p, bound)
    assert padic._repeat(5, 16, 3) == 5 + (5 << 16) + (5 << 32)
    assert padic._repeat(2**63, 64, 2) == 2**63 + 2**127


def test_distinct_degree_matches_sympy_above_the_root_bound():
    # At and above ROOT_PRIME_BOUND step 1 also runs through the ring: the
    # patterns of degrees 2 to 12, with and without the parity, equal
    # sympy's.  Products of two random factors give split patterns beside
    # the random polynomials.
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(59)
    checked = set()
    for p in (padic.ROOT_PRIME_BOUND + 1, 4409, 65537, 1_000_003):
        for degree in range(2, 13):
            half = degree // 2
            first = [rng.randrange(p) for _ in range(half)] + [1]
            second = [rng.randrange(p) for _ in range(degree - half)] + [1]
            product = oracles.modp_mulmod(first, second, [0] * (degree + 1) + [1], p)  # mod x^(d + 1)
            for coeffs in ([rng.randrange(p) for _ in range(degree)] + [1], product):
                _, factors = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
                if any(mult > 1 for _, mult in factors):
                    continue
                want = sorted(q.degree() for q, _ in factors)
                assert sorted(good_prime_cycle_type(coeffs, p).parts) == want, (coeffs, p)
                parity = (degree - len(want)) % 2
                assert sorted(good_prime_cycle_type(coeffs, p, parity).parts) == want, (coeffs, p)
                checked.add((p, degree))
    assert len(checked) >= 40


def test_rootless_sextics_read_one_trace(monkeypatch):
    # With the parity, a sextic without a root mod p is [2, 4] or [3, 3]
    # (even) or [6] or [2, 2, 2] (odd), told apart by the number of
    # quadratic factors.  Below PAIR_PRIME_BOUND that number is the packed
    # count at the pair points of F_(p^2), so no ring is built, no x^e is
    # computed and no gcd is taken.  At and above it, it is trace(Q^2) of
    # the Frobenius matrix Q, so one ring is built, x^e is computed exactly
    # once and no gcd is taken.  Either way the pattern equals the
    # parity-free loop's.
    rng = random.Random(61)
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    seen = {False: set(), True: set()}  # whether p is below the cutoff
    for p in primes_up_to(padic.ROOT_PRIME_BOUND - 1):
        for _ in range(8 if p >= padic.PAIR_PRIME_BOUND else 40):
            coeffs = [rng.randrange(p) for _ in range(6)] + [1]
            deriv = [i * c for i, c in enumerate(coeffs)][1:]
            if padic._root_plan(p, 7).roots(coeffs):
                continue
            if len(padic._pgcd(coeffs, deriv, p)) != 1:
                continue
            full = good_prime_cycle_type(coeffs, p)
            with monkeypatch.context() as patch:
                patch.setattr(padic, "_Ring", counted("_Ring", padic._Ring))
                patch.setattr(padic, "_x_power", counted("_x_power", padic._x_power))
                patch.setattr(padic, "_pgcd", counted("_pgcd", padic._pgcd))
                calls.clear()
                assert good_prime_cycle_type(coeffs, p, (6 - len(full.parts)) % 2) is full
            below = p < padic.PAIR_PRIME_BOUND
            assert calls == ([] if below else ["_Ring", "_x_power"]), (coeffs, p, full)
            seen[below].add(full.parts)
    assert seen[True] == seen[False] == {(4, 2), (3, 3), (6,), (2, 2, 2)}


def test_pair_count_matches_the_exhaustive_oracle_below_the_cutoff():
    # At every prime below PAIR_PRIME_BOUND, p <= n and p = 2 among them,
    # for degrees 2 to 8, with every coefficient p - 1 (the largest slot
    # sums; the lead 1 at p = 2) and with seeded random non-monic ones, the
    # packed count at the pair points is the number of conjugate pairs of
    # roots of f in F_(p^2) outside F_p, found by evaluating f at every
    # point of F_(p^2); for a squarefree f that is its number of quadratic
    # factors.  The pair count keeps the bound, Barrett constants and slot
    # width of the root count of F_p.
    rng = random.Random(103)
    factored = 0
    for p in primes_up_to(padic.PAIR_PRIME_BOUND - 1):
        for n in range(2, 9):
            pairs, roots = padic._root_plan(p, n + 1, True), padic._root_plan(p, n + 1)
            assert (pairs.width, pairs._shift, pairs._magic) == (roots.width, roots._shift, roots._magic)
            assert pairs.size == max(p * (p - 1) // 2, 1)
            extreme = [p - 1] * n + [max(p - 1, 1)]
            random_ones = [[rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)] for _ in range(3)]
            for f in [extreme] + random_ones:
                want = oracles.modp2_pair_count(f, p)
                assert pairs.roots(f) == want, (f, p)
                deriv = [i * c for i, c in enumerate(f)][1:]
                if len(padic._pgcd(f, deriv, p)) == 1 and p ** (n // 2) <= 1000:
                    assert oracles.modp_factor_degrees(f, p).count(2) == want, (f, p)
                    factored += 1
    assert factored > 60


def test_pair_columns_repeat_past_the_unit_group_order():
    # Every pair point z has z^(p^2 - 1) = 1, so the columns of both
    # coordinates past p^2 - 1 are the earlier ones, shared, and the pair
    # count stays exact on polynomials long enough to read them.
    rng = random.Random(107)
    for p in (2, 3, 5):
        order = p * p - 1
        count = 2 * order + 3
        plan = padic._root_plan(p, count, True)
        for columns in (plan.columns, plan._second_columns):
            assert len(columns) == count
            assert all(columns[i] is columns[i - order] for i in range(order + 1, count))
        for _ in range(4):
            f = [rng.randrange(p) for _ in range(count - 1)] + [rng.randrange(1, p)]
            assert plan.roots(f) == oracles.modp2_pair_count(f, p), (f, p)


def test_cycle_types_match_the_oracle_around_the_pair_cutoff():
    # At the largest prime below PAIR_PRIME_BOUND, which counts quadratic
    # factors at the pair points, and at the smallest at or above it, which
    # reads them off trace(Q^2), the cycle type of degrees 2 to 8 equals
    # sympy's factorization with and without the parity, and its number of
    # parts 2 equals the exhaustive pair count of F_(p^2).
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    below = max(primes_up_to(padic.PAIR_PRIME_BOUND - 1))
    above = min(p for p in primes_up_to(2 * padic.PAIR_PRIME_BOUND) if p >= padic.PAIR_PRIME_BOUND)
    assert (below, above) == (29, 31)
    rng = random.Random(107)
    checked = set()
    for p in (below, above):
        for n in range(2, 9):
            assert len(padic._settle_plan(p, n, None)[1]) == (2 if p == below and n >= 4 else 1)
            for _ in range(8):
                f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
                deriv = [i * c for i, c in enumerate(f)][1:]
                if len(padic._pgcd(f, deriv, p)) != 1:
                    continue
                _, factors = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
                want = sorted((q.degree() for q, _ in factors), reverse=True)
                parity = (n - len(want)) % 2
                for got in (good_prime_cycle_type(f, p), good_prime_cycle_type(f, p, parity)):
                    assert list(got.parts) == want, (f, p)
                assert want.count(2) == oracles.modp2_pair_count(f, p), (f, p)
                checked.add((p, n, 2 in want))
    assert len(checked) > 20


def test_pair_count_is_planned_exactly_where_a_root_count_leaves_patterns_open():
    # The plan holds a pair count (below PAIR_PRIME_BOUND) exactly when some
    # root count leaves more than one pattern of the parity: from degree 4
    # without the parity and from degree 6 with it.  A plan that the parity
    # alone settles holds no count.
    for n in range(2, 13):
        for parity in (None, 0, 1):
            if plan_settles(n, parity, None, None) is not None:
                assert padic._settle_plan(2, n, parity)[1] == ()
                continue
            open_ = False
            for roots in range(n + 1):
                try:
                    open_ |= plan_settles(n, parity, roots, None) is None
                except ArithmeticError:  # no pattern has this root count
                    pass
            counters = padic._settle_plan(2, n, parity)[1]
            assert len(counters) == (2 if open_ else 1), (n, parity)
            assert open_ == (n >= (4 if parity is None else 6))


def test_root_counts_match_the_gcd_source_and_the_oracle():
    # N_k, the number of roots of a squarefree f in F_(p^k), is
    # deg gcd(f, x^(p^k) - x) and the sum of d * c_d over the d dividing k,
    # c_d the number of factors of degree d (from the exhaustive oracle).
    # For p > n the loop reads N_k off trace(Q^k) mod p, and for p <= n off
    # that gcd, with x^(p^k) as Q times x^(p^(k - 1)); here the gcd is taken
    # against x^(p^k) from one powering instead.  Every k <= n is checked,
    # from k = 1 and, as after a root count and after a pair count, from
    # k = 2 and k = 3; f is not monic.
    rng = random.Random(101)
    checked = set()
    for n in range(2, 9):
        for p in primes_up_to(11):  # 11 is the first prime above every n
            for _ in range(4):
                f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
                deriv = [i * c for i, c in enumerate(f)][1:]
                if len(padic._pgcd(f, deriv, p)) != 1:
                    continue
                degrees = oracles.modp_factor_degrees(f, p)
                want = [sum(d for d in degrees if k % d == 0) for k in range(1, n + 1)]
                ring = padic._Ring(f, p)
                gcds = []
                for k in range(1, n + 1):
                    h = ring.coeffs(padic._x_power(p**k, ring))
                    gcds.append(padic._pdeg(padic._pgcd(f, [h[0], h[1] - 1] + h[2:], p)))
                assert gcds == want, (f, p)
                columns = padic._frobenius_columns(ring)
                assert list(islice(padic._root_counts(f, ring, columns, 1), n)) == want, (f, p)
                assert list(islice(padic._root_counts(f, ring, columns, 2), n - 1)) == want[1:]
                assert list(islice(padic._root_counts(f, ring, columns, 3), n - 2)) == want[2:]
                checked.add((n, p > n))
    assert checked == {(n, above) for n in range(2, 9) for above in (False, True)}


def test_settle_plan_matches_the_matrix_loop_at_every_prime_below_the_cutoff(monkeypatch):
    # At every prime below ROOT_PRIME_BOUND, for degrees 2 to 8, with every
    # coefficient p - 1 (the lead 1 where p = 2) and with seeded random ones,
    # the cached plan (root count, stop rule, trace(Q^2)) returns the very
    # CycleType object of the parity-free loop on the Frobenius matrix alone,
    # with and without the parity; on every fifth prime the pattern is also
    # sympy's.
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(89)
    checked = set()
    for index, p in enumerate(primes_up_to(padic.ROOT_PRIME_BOUND - 1)):
        for n in range(2, 9):
            extreme = [p - 1] * n + [max(p - 1, 1)]
            for coeffs in [extreme] + [[rng.randrange(p) for _ in range(n)] + [1] for _ in range(3)]:
                deriv = [i * c for i, c in enumerate(coeffs)][1:]
                if len(padic._pgcd(coeffs, deriv, p)) != 1:
                    continue
                want = matrix_cycle_type(coeffs, p, monkeypatch)
                parity = (n - len(want.parts)) % 2
                assert good_prime_cycle_type(coeffs, p, parity) is want, (coeffs, p)
                assert good_prime_cycle_type(coeffs, p) is want, (coeffs, p)
                if index % 5 == 0:
                    _, factors = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
                    assert sorted(q.degree() for q, _ in factors) == sorted(want.parts), (coeffs, p)
                checked.add((p, n))
    assert len(checked) > 0.9 * 7 * len(primes_up_to(padic.ROOT_PRIME_BOUND - 1))


def test_cached_plan_does_not_freeze_the_cutoff(monkeypatch):
    # A plan is cached per prime and degree with its root count, yet below a
    # lowered cutoff (``matrix_cycle_type`` clears the cache on entering and
    # leaving it) the same prime takes the matrix path; back at the real
    # cutoff the root count settles the quintic again with no powering.
    p, coeffs = 13, [3, 1, 4, 1, 5, 1]
    full = frobenius_cycle_type(Poly(coeffs), p)
    assert full is not None
    parity = (5 - len(full.parts)) % 2
    assert good_prime_cycle_type(coeffs, p, parity) is full
    assert padic._settle_plan(p, 5, parity)[1] is not None
    powered = []
    real = padic._x_power

    def counted(*args):
        powered.append(args[0])
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(padic, "_x_power", counted)
        assert matrix_cycle_type(coeffs, p, patch) is full
        assert powered == [p]

    def refuse(*args):
        raise AssertionError("x^p mod f was computed")

    monkeypatch.setattr(padic, "_x_power", refuse)
    assert good_prime_cycle_type(coeffs, p, parity) is full


def test_x_power_matches_list_oracle():
    # x^e for every e up to 300 and degrees 2 to 8 equals the list oracle:
    # the powering starts from x and squares once per lower bit of e, so
    # it crosses x^n, where the ring first folds, at every e >= n.
    rng = random.Random(97)
    for p in (2, 3, 13, 251, 4409):
        for n in range(2, 9):
            g = [rng.randrange(p) for _ in range(n)] + [1]
            ring = padic._Ring(g, p)
            for e in range(1, 301):
                want = oracles.modp_powmod([0, 1], e, g, p)
                assert padic._x_power(e, ring) == ring.pack(want), (g, p, e)
