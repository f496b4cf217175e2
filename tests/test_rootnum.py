import math
import random

import pytest

from sdtwists.counting import SweepBudgets, sweep
from sdtwists.family import build_model, twist_polynomial
from sdtwists.primes import primes_up_to
from sdtwists.rootnum import (
    CurveArithData,
    cubic_twist_residues,
    kronecker,
    relative_root_number,
    sign_pairing,
)

import oracles


def test_kronecker_matches_euler_criterion():
    for p in primes_up_to(99):
        if p == 2:
            continue
        for a in range(p):
            assert kronecker(a, p) == oracles.legendre_euler(a, p)


def test_kronecker_examples():
    assert kronecker(2, 7) == 1
    assert kronecker(-1, 3) == -1
    for a in (-9, -1, 0, 1, 4, 123456789):
        assert kronecker(a, 1) == 1


def test_kronecker_undefined_at_zero_zero():
    with pytest.raises(ValueError):
        kronecker(0, 0)


def test_kronecker_full_multiplicativity():
    rng = random.Random(19)
    for _ in range(10_000):
        a = rng.choice([n for n in range(-60, 61) if n])
        b = rng.choice([n for n in range(-60, 61) if n])
        n = rng.choice([n for n in range(-60, 61) if n])
        m = rng.choice([n for n in range(-60, 61) if n])
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_relative_root_number_formula():
    data = CurveArithData(11, 1)
    rep = relative_root_number(data, 3, -23)
    assert rep.gcd_ok
    assert rep.kronecker_value == kronecker(-23, 11)
    assert rep.w_rel == 1 * (-1) * kronecker(-23, 11)  # = +1


def test_relative_root_number_undefined_on_shared_factor():
    data = CurveArithData(11, 1)
    rep = relative_root_number(data, 3, 22)
    assert not rep.gcd_ok
    assert rep.w_rel is None


def test_relative_root_number_even_degree_sign():
    data = CurveArithData(5, -1)
    rep = relative_root_number(data, 4, 9 * 11)  # disc > 0, kronecker(99,5)=+1
    assert rep.kronecker_value == 1
    assert rep.w_rel == -1  # (-1)^3 * (+1) * (+1)


def test_sign_flip_mechanism():
    # same kronecker value, opposite discriminant signs: w_rel flips
    data = CurveArithData(7, 1)
    a = relative_root_number(data, 3, 2)  # (2/7) = 1
    b = relative_root_number(data, 3, -5)  # (-5/7) = 1
    assert a.kronecker_value == b.kronecker_value == 1
    assert a.w_rel == -b.w_rel


def test_conductor_power_validation():
    data = CurveArithData(6, 1)
    with pytest.raises(ValueError):
        sign_pairing([], 10, data)
    assert sign_pairing([], 36, data) == []
    assert sign_pairing([], 6, data) == []


def test_cubic_twist_residues_pin_symbol():
    for symbol in (-1, 1):
        for t in cubic_twist_residues(37, symbol):
            value = -(t**3) * (27 * t + 4)
            assert math.gcd(value, 37) == 1
            assert kronecker(value, 37) == symbol


def test_sign_pairing_pipeline():
    n, w = 37, -1
    data = CurveArithData(n, w)
    t0 = cubic_twist_residues(n, -1)[0]
    model = build_model((-16, 16), 0, 0, 1, 3, force_cubic_mod=n)
    fam = twist_polynomial(model, 3)
    budgets = SweepBudgets(prime_budget=8, kernel_bound=1000)
    cands = sweep(fam, 150, congruence=(t0, 1, n), budgets=budgets)
    pairs = sign_pairing(cands, n, data)
    assert pairs
    for pair in pairs:
        assert pair.positive.disc > 0 > pair.negative.disc
        assert (pair.positive.u % n, pair.positive.v % n) == (
            pair.negative.u % n,
            pair.negative.v % n,
        )
        assert pair.positive_report.w_rel == -pair.negative_report.w_rel
        # independent re-derivation through the formula
        for cand, rep in (
            (pair.positive, pair.positive_report),
            (pair.negative, pair.negative_report),
        ):
            sign = 1 if cand.disc > 0 else -1
            assert rep.w_rel == w ** 2 * sign * kronecker(cand.disc, n)


def test_sign_pairing_never_pairs_same_sign_or_across_classes():
    n = 37
    data = CurveArithData(n, -1)
    t0 = cubic_twist_residues(n, -1)[0]
    model = build_model((-16, 16), 0, 0, 1, 3, force_cubic_mod=n)
    fam = twist_polynomial(model, 3)
    budgets = SweepBudgets(prime_budget=8, kernel_bound=1000)
    # thin slice of the box, unfiltered: candidates span many residue classes
    pair_list = [
        (u, v)
        for u in range(-90, 91)
        for v in range(1, 7)
        if math.gcd(u, v) == 1
    ]
    cands = sweep(fam, 90, budgets=budgets, pairs=pair_list)
    pairs = sign_pairing(cands, n, data)
    for pair in pairs:
        assert pair.positive.disc_sign != pair.negative.disc_sign
        assert (pair.positive.u % n, pair.positive.v % n) == (
            pair.negative.u % n,
            pair.negative.v % n,
        )


def test_sign_pairing_pairs_only_eligible_candidates():
    n = 37
    data = CurveArithData(n, -1)
    t0 = cubic_twist_residues(n, -1)[0]
    model = build_model((-16, 16), 0, 0, 1, 3, force_cubic_mod=n)
    fam = twist_polynomial(model, 3)
    budgets = SweepBudgets(prime_budget=8, kernel_bound=1000)
    # at this budget some candidates in the box stay inconclusive
    cands = sweep(fam, 400, congruence=(t0, 1, n), budgets=budgets)
    assert any(not c.eligible and c.disc for c in cands)
    pairs = sign_pairing(cands, n, data)
    assert pairs
    for pair in pairs:
        assert pair.positive.eligible and pair.negative.eligible
