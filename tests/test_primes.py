"""The staged trial factorization against the plain prime walk and sympy."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import factor_trial_walk, squarefree_status_walk, witness_walk
from sdtwists import galois, primes
from sdtwists.counting import _squarefree_status
from sdtwists.galois import transposition_witness
from sdtwists.polyarith import IntPoly, Poly, _normalize_factor, discriminant
from sdtwists.primes import (
    SMALL_PRIME_BOUND as S,
    factor_batch,
    factor_trial,
    is_prime,
    iter_primes_up_to,
    primes_up_to,
)


def _primes_near(x: int, k: int = 3) -> list[int]:
    """The k primes at or below x and the k primes above it."""
    below = primes_up_to(x)[-k:]
    above = [p for p in primes_up_to(2 * x + 100) if p > x][:k]
    return below + above


# Bounds below, at and around the small-prime stage, a prime bound, and the
# kernel and witness bounds a sweep uses.
BOUNDS = sorted(
    {0, 1, 2, 3, 97, S - 1, S, S + 1, 2 * S, 1009, 10_000, 30_011, 100_000}
    | set(_primes_near(S, 2))
)


@st.composite
def planted(draw, bound=None):
    """(n, bound): n carries prime powers at and around S and the bound,
    primes just above the bound and squares of primes above it."""
    if bound is None:
        bound = draw(st.sampled_from(BOUNDS) | st.integers(0, 20_000))
    near_bound = _primes_near(max(bound, 2))
    pool = [2, 3, 5, 7] + _primes_near(S) + near_bound
    n = draw(st.integers(1, 10**6))
    for p in draw(st.lists(st.sampled_from(pool), max_size=6)):
        n *= p ** draw(st.integers(1, 3))
    above = [p for p in near_bound if p > bound] + [1_000_000_007]
    for q in draw(st.lists(st.sampled_from(above), max_size=3)):
        n *= q
    return draw(st.sampled_from([1, -1])) * n, bound


@settings(max_examples=300, deadline=None)
@given(planted())
def test_factor_trial_matches_walk(case):
    n, bound = case
    assert factor_trial(n, bound) == factor_trial_walk(n, bound)


@pytest.mark.parametrize("bound", [2, 7, 300, S, 10_000])
def test_small_numbers_match_walk(bound):
    # Every n up to 5,000 and every n within 50 of S^2, with the products of
    # two primes just below and just above S, take the first stage's gcd
    # like any other number: the factorization and the squarefree decision
    # come out as the walk's, in one batch and one number at a time.
    near = _primes_near(S)
    numbers = [
        *range(1, 5_001),
        *range(S * S - 50, S * S + 51),
        *sorted({p * q for p in near for q in near}),
    ]
    want = [factor_trial_walk(n, bound) for n in numbers]
    assert factor_batch(numbers, bound) == want
    for n in numbers:
        assert _squarefree_status(n, bound) == squarefree_status_walk(n, bound), n


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BOUNDS) | st.integers(0, 20_000), st.data())
def test_factor_batch_matches_walk(bound, data):
    # The batch, in input order, is the walk on each number: signs, numbers
    # below S^2 and past it, bounds at or below S and past it, batches of one
    # and more.  With until_square each number is factored as on its own.
    numbers = data.draw(st.lists(planted(bound).map(lambda case: case[0]), min_size=1, max_size=12))
    assert factor_batch(numbers, bound) == [factor_trial_walk(n, bound) for n in numbers]
    assert factor_batch(numbers, bound, until_square=True) == [
        factor_trial(n, bound, until_square=True) for n in numbers
    ]


def test_factor_batch_edge_cases():
    # A zero anywhere raises; a prime cofactor at or below the bound is
    # absorbed; powers of primes in (S, bound] come out whole, next to
    # numbers below S^2 and to a prime above the bound.
    for numbers in ([0], [6, 0], [0, 10**12 + 39]):
        with pytest.raises(ValueError):
            factor_batch(numbers, 10_000)
    assert factor_batch([], 10_000) == []
    numbers = [2 * 7919, -(503**7), 509**2 * 9973**3, -97 * 10_007, 3**5 * 9973, 10**12 + 39]
    for bound in (2, S, 7919, 9973, 10_000):
        assert factor_batch(numbers, bound) == [factor_trial_walk(n, bound) for n in numbers]
    assert factor_batch(numbers, 9973)[:3] == [({2: 1, 7919: 1}, 1), ({503: 7}, 1), ({509: 2, 9973: 3}, 1)]
    # A square stops the division: what is left stays a cofactor, even at or
    # below the bound, where it need not be prime.
    assert factor_batch([4 * 15, 9 * 7, 5], 100, until_square=True) == [
        ({2: 2}, 15), ({3: 2}, 7), ({5: 1}, 1)
    ]


@pytest.mark.parametrize("bound", [10_000, 30_000])
def test_factor_batch_groups_cross_the_cap(bound):
    # The second stage groups consecutive cofactors up to a cap on their
    # bits: here some cofactors exceed the cap alone and the rest fill
    # several groups, and every number still factors as the walk does, in
    # the batch and on its own.
    cap = primes._prime_product(S, bound).bit_length() // primes._GROUP_SHARE
    mids = [p for p in primes_up_to(bound) if p > S]
    rng = random.Random(bound)
    numbers = []
    for k in range(40):
        n = rng.choice([2, -2, 3, -1])
        target = rng.choice([40, cap // 3, cap + 50])
        while n.bit_length() < target:
            n *= rng.choice(mids) ** rng.randint(1, 4)
        numbers.append(n * (1_000_000_007 if k % 3 == 0 else 1))
    rests = [primes._small_stage(n, S, False)[1] for n in numbers]
    assert any(m.bit_length() > cap for m in rests)
    assert sum(m.bit_length() for m in rests if m > S * S) > 3 * cap
    want = [factor_trial_walk(n, bound) for n in numbers]
    assert factor_batch(numbers, bound) == want
    assert [factor_trial(n, bound) for n in numbers] == want


@settings(max_examples=300, deadline=None)
@given(planted())
def test_squarefree_status_matches_walk(case):
    # The density walk's decisions, now read off factor_trial: a square
    # factor, a square cofactor above the bound, at most two primes above
    # it, or undecided.
    n, bound = case
    assert _squarefree_status(n, bound) == squarefree_status_walk(n, bound)


def test_squarefree_status_stops_at_a_small_square(monkeypatch):
    # A square factor found among the small primes settles the value: the
    # product gcd of the second stage (primes above S) never runs, and the
    # cofactor is left unfactored.  The first stage's product of the primes
    # up to S is the only one asked for.
    first_stage = primes._prime_product

    def refuse_above_s(above, bound):
        if bound > S:
            raise AssertionError("second stage ran")
        return first_stage(above, bound)

    monkeypatch.setattr(primes, "_prime_product", refuse_above_s)
    n = 4 * 3 * 10_007 * 10_009 * 1_000_000_007
    assert n >= S * S  # unstopped, its cofactor would reach the second stage
    assert factor_trial(n, 100_000, until_square=True) == ({2: 2}, n // 4)
    assert _squarefree_status(n, 100_000) is False
    assert _squarefree_status(-9 * n, 100_000) is False
    assert _squarefree_status(4 * 10_007, 100_000) is False  # below S^2 too


def test_squarefree_status_rules():
    q, r = 10_007, 10_009  # primes above the bound 100
    assert _squarefree_status(0, 100) is False
    assert _squarefree_status(-1, 100) is True
    assert _squarefree_status(12, 100) is False
    assert _squarefree_status(6 * q * q, 100) is False  # square cofactor
    assert _squarefree_status(6 * q * r, 100) is None  # q*r >= 100^3
    assert _squarefree_status(6 * q * r, 1000) is True  # q*r < 1000^3
    assert _squarefree_status(-6 * q, 100) is True


@pytest.mark.parametrize("bound", BOUNDS)
def test_factor_trial_units_and_signs(bound):
    assert factor_trial(1, bound) == factor_trial(-1, bound) == ({}, 1)
    for n in (-360, -97, -(S + 1) ** 2, -(10**12 + 39)):
        assert factor_trial(n, bound) == factor_trial(-n, bound) == factor_trial_walk(n, bound)
    with pytest.raises(ValueError):
        factor_trial(0, bound)


def test_factor_trial_keeps_a_prime_cofactor_above_the_bound():
    q = 10**12 + 39
    assert is_prime(q)
    assert factor_trial(4 * q, 50) == ({2: 2}, q)
    assert factor_trial(2 * 7919, 7919) == ({2: 1, 7919: 1}, 1)  # absorbed at the bound
    assert factor_trial(2 * 7919, 7918) == ({2: 1}, 7919)


@settings(max_examples=100, deadline=None)
@given(planted(bound=100_000))
def test_factor_trial_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    n, bound = case
    full = sympy.factorint(abs(n))
    exponents = {int(p): int(e) for p, e in sorted(full.items()) if p <= bound}
    cofactor = abs(n) // math.prod(p**e for p, e in exponents.items())
    assert factor_trial(n, bound) == (exponents, cofactor)


def test_larger_then_smaller_bound_reuses_no_stale_product():
    # 997^2 is found by the product gcd beyond S; 10,007 and 99,991 lie
    # above 10^4 and 3*10^4, so each bound below sees a different part.
    n = 6 * 997**2 * 10_007 * 99_991 * (10**12 + 39)
    for bound in (100_000, 10_000, 30_011, 100_000, 1009, 10_000):
        assert factor_trial(n, bound) == factor_trial_walk(n, bound), bound


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 1000, 1024, 1031, 30_000])
@pytest.mark.parametrize("above", [-5, 0, 1, 2, 3, 500, 1024])
def test_iter_primes_above(bound, above):
    assert list(iter_primes_up_to(bound, above)) == [p for p in primes_up_to(bound) if p > above]


integer_polys = st.lists(st.integers(-60, 60), min_size=3, max_size=7).filter(
    lambda cs: cs[-1] != 0
)


@settings(max_examples=200, deadline=None)
@given(integer_polys, st.sampled_from(BOUNDS), st.sampled_from(BOUNDS))
def test_witness_matches_walk(coeffs, trial_bound, kernel_bound):
    f = Poly(coeffs)
    g = _normalize_factor(f)
    disc = discriminant(g)
    if disc == 0:
        return
    expected = witness_walk(f, trial_bound)
    assert transposition_witness(f, trial_bound) == expected
    # The sweep's route: a factorization to the kernel bound, extended to
    # the trial bound only when it holds no witness.
    exponents, cofactor = factor_trial(disc.numerator, kernel_bound)
    factored = (exponents, cofactor, kernel_bound)
    g = IntPoly(int(c) for c in g.coeffs)  # the private helpers read an IntPoly
    assert galois._witness(g, disc.numerator, trial_bound, factored) == expected


def test_witness_with_extras_matches_walk():
    f = Poly([-1, -2, -1, 1])  # disc -31
    for trial_bound in (2, 20, 31, S, 1000):
        assert transposition_witness(f, trial_bound) == witness_walk(f, trial_bound)


@st.composite
def high_powers(draw):
    """(n, bound): n carries powers up to 130 of primes below and around S,
    beside a random part and primes above the bound."""
    bound = draw(st.sampled_from(BOUNDS))
    pool = [2, 3, 5, 7, 11, 499] + _primes_near(S)
    n = draw(st.integers(1, 10**12))
    for p in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
        n *= p ** draw(st.integers(1, 130))
    for q in draw(st.lists(st.sampled_from([10_007, 100_003, 1_000_000_007]), max_size=2)):
        n *= q
    return draw(st.sampled_from([1, -1])) * n, bound


@settings(max_examples=200, deadline=None)
@given(high_powers())
def test_factor_trial_matches_walk_at_high_powers(case):
    # Each valuation is found by dividing by p, p^2, p^4, ...: it matches
    # the walk's one division at a time, also for the square-stop rule.
    n, bound = case
    assert factor_trial(n, bound) == factor_trial_walk(n, bound)
    assert _squarefree_status(n, bound) == squarefree_status_walk(n, bound)


def test_factor_trial_at_planted_powers_of_seven():
    # The discriminants of the coefficient-box instances carry 7 to about
    # the 100th power (``test_ev_witness_matches_walk``).  Every
    # valuation from 1 to 140 of 7, alone and beside other powers, comes
    # out exactly, on both sides of S^2, below which the first stage
    # leaves 1 or a prime.
    for v in range(1, 141):
        for rest in (1, 2, 3 * 11**5, 10_007, 2**64 * 1_000_000_007):
            n = 7**v * rest
            for bound in (S, 10_000):
                assert factor_trial(n, bound) == factor_trial_walk(n, bound), (v, rest, bound)


def test_ev_witness_matches_walk():
    # On coefficient-box sextics of the built d = 6 model, whose lead is
    # 7^24 and whose discriminants carry 7 to about the 100th power among
    # other small prime powers, the witness and the factorization it rests
    # on equal the walk oracles'.
    from sdtwists.counting import EvConfig, ev_generate
    from sdtwists.family import build_family

    model = build_family((1, 1), 6)[0]
    config = EvConfig(seed=3, max_instances=12, certify=False)
    checked = 0
    for inst in ev_generate(model, 6, 8, config):
        if inst.mH.degree != 6:
            continue
        g, disc = galois._normalized(inst.mH)
        assert factor_trial_walk(disc, 7)[0][7] >= 90
        for bound in (S, 10_000):
            assert factor_trial(disc, bound) == factor_trial_walk(disc, bound)
            assert galois._witness(g, disc, bound) == witness_walk(Poly(g.coeffs), bound)
        checked += 1
    assert checked >= 10


def factored_witness(disc: int, lead: int, trial_bound: int):
    """The least prime p <= trial_bound of exponent 1 in disc, not dividing
    lead, read off the whole trial factorization to the trial bound."""
    exponents, _ = factor_trial(disc, max(trial_bound, 0))
    return min((p for p, e in exponents.items() if e == 1 and lead % p), default=None)


def sympy_witness(disc: int, lead: int, trial_bound: int):
    sympy = pytest.importorskip("sympy")
    return min(
        (p for p, e in sympy.factorint(abs(disc)).items() if e == 1 and p <= trial_bound and lead % p),
        default=None,
    )


# (disc, lead, trial_bound, witness)
WITNESS_CASES = [
    (4 * 9 * 503 * 7919, 1, 100_000, 503),  # a witness only above S
    (4 * 9 * 503 * 7919, 1, S, None),
    (4 * 9 * 503 * 7919, 1, 503, 503),
    (4 * 9 * 503 * 7919, 503, 100_000, 7919),  # one dividing the lead is skipped
    (3 * 5 * 49, 3, 1000, 5),
    (4 * 503 * 509, 503, 1000, 509),
    (9 * 7 * 11**3, 1, 1000, 7),  # one whose square divides disc is skipped
    (4 * 503**2 * 1009, 1, 10_000, 1009),
    (4 * 503**2 * 1009 * 3**5, 1, 1000, None),
    (3 * 5 * 7, 1, 2, None),  # trial bounds at and below S, and below 2
    (3 * 5 * 7, 1, 4, 3),
    (2 * 3, 1, 2, 2),
    (2 * 3, 1, 1, None),
    (2 * 3, 1, 0, None),
    (311 * 313 * 4, 1, 300, None),
    (311 * 313 * 4, 1, S, 311),
    (-(4 * 7 * 9), 1, 1000, 7),  # negative discriminants
    (-(4 * 9 * 503 * 7919), 1, 100_000, 503),
    (-1, 1, 1000, None),
]


@pytest.mark.parametrize("disc, lead, trial_bound, want", WITNESS_CASES)
def test_witness_by_one_gcd_per_range_matches_the_factorization(disc, lead, trial_bound, want):
    # The least prime p <= trial_bound with v_p(disc) = 1 and p not dividing
    # the lead, from one gcd per prime range, equals that of the whole
    # trial factorization and of sympy's, with no factorization given (the
    # ranges (1, min(trial_bound, S)] and then the rest) and with the
    # sweep's factorization to each kernel bound (its exponents, and then
    # the cofactor over the rest of the range).
    g = IntPoly([1, 0, lead])
    assert factored_witness(disc, lead, trial_bound) == sympy_witness(disc, lead, trial_bound) == want
    assert galois._witness(g, disc, trial_bound) == want
    for kernel_bound in (0, 1, 7, S, 1000, 10_000):
        factored = (*factor_trial(disc, kernel_bound), kernel_bound)
        assert galois._witness(g, disc, trial_bound, factored) == want, kernel_bound


def test_witness_of_a_zero_discriminant_raises():
    with pytest.raises(ValueError):
        galois._witness(IntPoly([1, 0, 1]), 0, 1000)


def test_least_simple_prime_matches_sympy():
    # Over every range (above, bound] of the bounds above, on numbers that
    # carry prime powers below, at and past S beside a random part, with and
    # without primes to avoid.
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(113)
    pool = [2, 3, 5, 7, 499, 503, 509, 1009, 10_007, 30_011]
    checked = 0
    for _ in range(60):
        n = rng.choice([1, -1]) * rng.randrange(1, 10**9)
        for p in rng.sample(pool, 3):
            n *= p ** rng.choice([1, 1, 2, 3])
        exponents = sympy.factorint(abs(n))
        avoid = rng.choice([1, 1, 3 * 503, 1009 * 7])
        for above in (0, 1, 7, S, 1009):
            for bound in (2, 97, S, 1009, 30_011):
                want = min(
                    (p for p, e in exponents.items() if e == 1 and above < p <= bound and avoid % p),
                    default=None,
                )
                assert primes.least_simple_prime(n, above, bound, avoid) == want, (n, above, bound)
                checked += 1
    assert checked == 60 * 25
