import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sdtwists import galois
from sdtwists.galois import (
    CERTIFIED,
    CERTIFIED_SD,
    INCONCLUSIVE,
    GaloisEvidence,
    certify_sd,
    collect_evidence,
    contains_n_cycle,
    irreducibility_certificate,
    transposition_witness,
)
from sdtwists.padic import CycleType, frobenius_cycle_type
from sdtwists.polyarith import Poly, _normalize_factor, discriminant
from sdtwists.primes import PROOF_BOUND, is_prime, iter_primes_up_to, primes, primes_up_to


def cubic():
    return Poly([-1, -2, -1, 1])  # x^3 - x^2 - 2x - 1, disc -31


def test_irreducibility_cubic_mod2():
    assert irreducibility_certificate(cubic(), 5) == CERTIFIED


def test_irreducibility_never_fires_on_reducible():
    product = Poly([1, 0, 1]) * Poly([2, 0, 1])
    assert irreducibility_certificate(product, 20) == INCONCLUSIVE


def test_irreducibility_x4_plus_1_inconclusive():
    # factors mod every prime; documents why the lattice and polygon routes exist
    assert irreducibility_certificate(Poly([1, 0, 0, 0, 1]), 3) == INCONCLUSIVE


def test_irreducibility_degree_lattice_route():
    # x^4 + 1 never certifies, but an S_4 quartic does without an
    # irreducible reduction being required: patterns [3,1] and [2,2]
    # already cut the lattice to {0, 4} when they both occur.
    from sdtwists.galois import _degree_lattice

    assert _degree_lattice([CycleType((3, 1)), CycleType((2, 2))], 4) == {0, 4}


def test_transposition_witness_31():
    assert transposition_witness(cubic(), 1000) == 31


def test_transposition_witness_none_for_squarefull_disc():
    assert transposition_witness(Poly([-2, 0, 0, 1]), 1000) is None  # disc -108


def test_transposition_witness_disc_zero_raises():
    with pytest.raises(ValueError):
        transposition_witness(Poly([4, -4, 1]), 100)


def test_transposition_witness_extra_primes():
    # disc(x^3 - x^2 - 2x - 1) = -31; hide it past the bound, then supply it
    assert transposition_witness(cubic(), 20) is None
    assert transposition_witness(cubic(), 20, extra_primes=[31]) == 31


# 318665857834031151167461 = 399165290221 * 798330580441 is a strong
# pseudoprime to every base 2..37.
PSEUDOPRIME_2_TO_37 = 318_665_857_834_031_151_167_461


@pytest.mark.parametrize("extra", [15, 1, 0, -7, PSEUDOPRIME_2_TO_37, PROOF_BOUND])
def test_extra_primes_must_be_proved_prime(extra):
    x2_minus_15 = Poly([-15, 0, 1])  # disc 60 = 2^2 * 3 * 5
    with pytest.raises(ValueError):
        transposition_witness(x2_minus_15, 2, extra_primes=[extra])
    with pytest.raises(ValueError):
        collect_evidence(x2_minus_15, 2, 5, extra_primes=[3, extra])


def test_true_prime_extras_still_found():
    x2_minus_15 = Poly([-15, 0, 1])
    assert transposition_witness(x2_minus_15, 2) is None  # v_2(60) = 2
    assert transposition_witness(x2_minus_15, 2, extra_primes=[5, 3, 5]) == 3
    evidence = collect_evidence(x2_minus_15, 2, 5, trial_bound=2, extra_primes=[5])
    assert evidence.transposition_prime == 5


def test_miller_rabin_proof_bound():
    assert not is_prime(PSEUDOPRIME_2_TO_37)
    small = set(primes_up_to(5000))
    assert all(is_prime(n) == (n in small) for n in range(5000))


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 1000, 1024, 1031, 30_000])
def test_iter_primes_up_to_matches_list(bound):
    assert list(iter_primes_up_to(bound)) == primes_up_to(bound)


def test_collect_evidence_cubic_certifies():
    evidence = collect_evidence(cubic(), 3, 20)
    cert = certify_sd(evidence)
    assert cert.status == CERTIFIED_SD
    assert cert.route == "cubic-disc"
    assert CycleType((3,)) in evidence.observed_cycle_types


def test_collect_evidence_with_witness():
    evidence = collect_evidence(cubic(), 3, 20, skip_witness_for_cubic=False)
    assert evidence.transposition_prime == 31


def test_quadratic_route():
    evidence = collect_evidence(Poly([1, 0, 1]), 2, 10)
    assert certify_sd(evidence).route == "quadratic"


def test_reducible_inconclusive():
    product = Poly([1, 0, 1]) * Poly([2, 0, 1])
    evidence = collect_evidence(product, 4, 20)
    assert certify_sd(evidence).status == INCONCLUSIVE


def test_certify_examples_from_synthetic_evidence():
    base = dict(transposition_prime=7, irreducibility=CERTIFIED,
                irreducibility_route="mod-p", disc_is_square=False)
    e6 = GaloisEvidence(6, frozenset({CycleType((6,)), CycleType((5, 1))}), **base)
    assert certify_sd(e6).status == CERTIFIED_SD
    e7 = GaloisEvidence(7, frozenset({CycleType((7,)), CycleType((5, 1, 1))}), **base)
    assert certify_sd(e7).status == CERTIFIED_SD
    e4 = GaloisEvidence(
        4, frozenset({CycleType((4,))}), None, CERTIFIED, "mod-p", False
    )
    assert certify_sd(e4).status == INCONCLUSIVE


def test_even_degree_has_no_d_minus_2_route():
    # a (d-2)-cycle only substitutes for the (d-1)-cycle at odd d >= 5
    base = dict(transposition_prime=7, irreducibility=CERTIFIED,
                irreducibility_route="mod-p", disc_is_square=False)
    e6 = GaloisEvidence(6, frozenset({CycleType((6,)), CycleType((4, 1, 1))}), **base)
    assert certify_sd(e6).status == INCONCLUSIVE


def test_cycle_power_closure():
    assert contains_n_cycle([CycleType((3, 3, 2))], 2)
    assert contains_n_cycle([CycleType((5, 2))], 5)
    assert not contains_n_cycle([CycleType((4, 2))], 2)
    assert not contains_n_cycle([CycleType((6,))], 2)
    assert contains_n_cycle([CycleType((5, 1, 1))], 5)


def test_malformed_cycle_types_rejected():
    with pytest.raises(ValueError):
        GaloisEvidence(5, frozenset({CycleType((3, 1))}), None, CERTIFIED, None, False)


def test_soundness_on_non_sd_fixtures():
    # cyclotomic-style and reducible inputs must never certify
    fixtures = [
        (Poly([1, 0, 0, 0, 1]), 4),          # V4 resolvent, reducible mod all p
        (Poly([1, 1, 1, 1, 1]), 4),          # C4
        (Poly([1] * 7), 6),                   # C6
        (Poly([1, 0, 1]) * Poly([2, 0, 1]), 4),
        (Poly([1, 1]) * Poly([1, 1, 1, 1, 1]), 5),
        (Poly([1, 0, 0, 1]) * Poly([1, 1]), 4),
    ]
    rng = random.Random(2)
    while len(fixtures) < 100:
        a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
        b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
        f = a * b  # both factors nonconstant, hence reducible
        fixtures.append((f, f.degree))
    for poly, d in fixtures:
        evidence = collect_evidence(poly, d, 15)
        assert certify_sd(evidence).status == INCONCLUSIVE


def test_collect_evidence_deterministic():
    e1 = collect_evidence(cubic(), 3, 20, skip_witness_for_cubic=False)
    e2 = collect_evidence(cubic(), 3, 20, skip_witness_for_cubic=False)
    assert e1 == e2


def test_hilbert_success_rate_small_sample():
    # warm variant of the pipeline rate check: d = 4, 40 specializations
    from sdtwists.family import build_family, specialize

    _, family, _ = build_family((1, 1), 4)
    rng = random.Random(4)
    certified = 0
    total = 0
    while total < 40:
        u = rng.randint(-25, 25)
        v = rng.randint(-25, 25)
        if v == 0 or __import__("math").gcd(u, v) != 1:
            continue
        total += 1
        spec = specialize(family, u, v)
        if spec.degree != 4:
            continue
        evidence = collect_evidence(spec, 4, 30, trial_bound=50_000)
        if certify_sd(evidence).status == CERTIFIED_SD:
            certified += 1
    assert certified >= 0.9 * total


@settings(max_examples=300, deadline=None)
@given(
    degree=st.one_of(st.sampled_from([4, 6]), st.integers(1, 8)),
    p=st.one_of(st.sampled_from([2, 3]), st.sampled_from(primes_up_to(200))),
    lead_divisible=st.booleans(),
    data=st.data(),
)
def test_discriminant_gate_matches_reduction(degree, p, lead_divisible, data):
    # For primitive integral g, p is good (degree kept, reduction squarefree,
    # decided by reduction plus a gcd mod p) exactly when p divides neither
    # lc(g) nor disc(g); the scan built on that gate finds the same primes
    # and cycle types as the reduction path.  Degrees 4 and 6 at p = 2, 3
    # make the derivative lose its leading term mod p.
    coeffs = data.draw(st.lists(st.integers(-12, 12), min_size=degree, max_size=degree))
    lead = data.draw(st.integers(1, 12)) * (p if lead_divisible else 1)
    g = _normalize_factor(Poly(coeffs + [lead]))
    disc = discriminant(g)
    good = g.lead.numerator % p != 0 and disc.numerator % p != 0
    assert (frobenius_cycle_type(g, p) is not None) == good

    budget = 6
    cap = max(galois._SCAN_CAP_MIN, galois._SCAN_CAP_FACTOR * budget)
    reduced = ((q, frobenius_cycle_type(g, q)) for q in itertools.islice(primes(), cap))
    reference = list(itertools.islice(((q, ct) for q, ct in reduced if ct is not None), budget))
    assert galois._good_prime_scan(g, disc, budget) == reference
