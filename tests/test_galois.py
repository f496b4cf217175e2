import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sdtwists import galois, padic
from sdtwists.galois import (
    CERTIFIED,
    CERTIFIED_SD,
    INCONCLUSIVE,
    GaloisEvidence,
    certify_sd,
    collect_evidence,
    contains_n_cycle,
    transposition_witness,
)
from sdtwists.padic import CycleType, frobenius_cycle_type
from sdtwists.polyarith import IntPoly, Poly, _normalize_factor, discriminant
from sdtwists.primes import (
    PROOF_BOUND,
    is_prime,
    iter_primes_up_to,
    multiplicative_order,
    primes,
    primes_up_to,
    valuation_int,
)


def cubic():
    return Poly([-1, -2, -1, 1])  # x^3 - x^2 - 2x - 1, disc -31


def irreducibility(f: Poly, budget: int) -> str:
    return collect_evidence(f, f.degree, budget).irreducibility


def test_irreducibility_cubic_mod2():
    assert irreducibility(cubic(), 5) == CERTIFIED


def test_irreducibility_never_fires_on_reducible():
    product = Poly([1, 0, 1]) * Poly([2, 0, 1])
    assert irreducibility(product, 20) == INCONCLUSIVE


def test_irreducibility_x4_plus_1_inconclusive():
    # factors mod every prime; documents why the lattice and polygon routes exist
    assert irreducibility(Poly([1, 0, 0, 0, 1]), 3) == INCONCLUSIVE


def test_irreducibility_degree_lattice_route():
    # x^4 + 1 never certifies, but an S_4 quartic does without an
    # irreducible reduction being required: patterns [3,1] and [2,2]
    # already cut the lattice to {0, 4} when they both occur.  Each type's
    # subset sums are a bitmask with bit s for the sum s.
    sums = [galois._type_facts(CycleType(parts))[2] for parts in ((3, 1), (2, 2))]
    assert sums == [0b11011, 0b10101]
    assert sums[0] & sums[1] == 1 | 1 << 4



def test_irreducibility_of_evidence_matches_a_full_walk():
    # collect_evidence stops its scan only once irreducibility is proved, so
    # its irreducibility is that of a walk over every good prime of the
    # budget.  The sample holds polynomials proved before the budget ends,
    # some by the degree lattice before any irreducible reduction.
    from oracles import good_prime_walk, lattice, walk_evidence

    rng, budget = random.Random(22), 12
    stopped = lattice_first = 0
    for _ in range(150):
        d = rng.randint(2, 6)
        f = Poly([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 4)])
        if rng.random() < 0.3:
            f = f * Poly([rng.randint(-3, 3), 1])
        g = _normalize_factor(f)
        if discriminant(g) == 0:
            continue
        walk = good_prime_walk(g, budget)
        assert irreducibility(f, budget) == walk_evidence(g, budget, 1, stop=False).irreducibility
        proofs = (
            k for k in range(1, len(walk) + 1)
            if lattice([ct for _, ct in walk[:k]], g.degree) == {0, g.degree}
        )
        first = next(proofs, len(walk))
        stopped += first < len(walk)
        lattice_first += all(ct.parts != (g.degree,) for _, ct in walk[:first]) and first < len(walk)
    assert stopped > 50 and lattice_first > 0


def test_witness_is_searched_once_at_the_first_proof(monkeypatch):
    # collect_evidence searches for the transposition witness once per
    # polynomial, when the good prime that first proves irreducibility has
    # been scanned, and not again at the primes scanned after it, nor ever
    # when no prime of the budget proves it.
    from oracles import good_prime_walk, lattice

    real_type, real_witness = galois.padic.good_prime_cycle_type, galois._witness
    scanned, searched_after = [], []

    def counted(coeffs, p, parity=None):
        scanned.append(p)
        return real_type(coeffs, p, parity)

    def witness(*args):
        searched_after.append(len(scanned))
        return real_witness(*args)

    monkeypatch.setattr(galois.padic, "good_prime_cycle_type", counted)
    monkeypatch.setattr(galois, "_witness", witness)
    rng, budget = random.Random(27), 12
    searched = scanned_on = 0
    for _ in range(150):
        d = rng.randint(2, 6)
        f = Poly([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 4)])
        if rng.random() < 0.3:
            f = f * Poly([rng.randint(-3, 3), 1])
        g = _normalize_factor(f)
        if discriminant(g) == 0:
            continue
        scanned.clear()
        searched_after.clear()
        collect_evidence(f, f.degree, budget, skip_witness_for_cubic=False)
        program = len(scanned)
        walk = good_prime_walk(g, budget)
        proofs = (
            k for k in range(1, len(walk) + 1)
            if lattice([ct for _, ct in walk[:k]], g.degree) == {0, g.degree}
        )
        first = next(proofs, None)
        assert searched_after == ([] if first is None else [first])
        searched += first is not None
        scanned_on += first is not None and program > first
    assert searched > 50 and scanned_on > 10


def test_transposition_witness_31():
    assert transposition_witness(cubic(), 1000) == 31


def test_transposition_witness_none_for_squarefull_disc():
    assert transposition_witness(Poly([-2, 0, 0, 1]), 1000) is None  # disc -108


def test_transposition_witness_disc_zero_raises():
    with pytest.raises(ValueError):
        transposition_witness(Poly([4, -4, 1]), 100)
    for constant in (Poly(), Poly([3])):
        with pytest.raises(ValueError):
            transposition_witness(constant, 100)


# 318665857834031151167461 = 399165290221 * 798330580441 is a strong
# pseudoprime to every base 2..37.
PSEUDOPRIME_2_TO_37 = 318_665_857_834_031_151_167_461


def test_miller_rabin_proof_bound():
    assert not is_prime(PSEUDOPRIME_2_TO_37)
    small = set(primes_up_to(5000))
    assert all(is_prime(n) == (n in small) for n in range(5000))
    # PROOF_BOUND is composite, and a strong pseudoprime to the whole
    # witness set, so is_prime refuses it and everything above it.
    assert PROOF_BOUND == 1_287_836_182_261 * 2_575_672_364_521
    assert not is_prime(PROOF_BOUND - 2)
    for n in (PROOF_BOUND, PROOF_BOUND + 2, 2 * PROOF_BOUND):
        with pytest.raises(ValueError):
            is_prime(n)
    with pytest.raises(ValueError, match="too large"):
        padic.newton_polygon(cubic(), PROOF_BOUND)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 1000, 1024, 1031, 30_000])
def test_iter_primes_up_to_matches_list(bound):
    assert list(iter_primes_up_to(bound)) == primes_up_to(bound)


def test_multiplicative_order_small_and_invalid_moduli():
    # Every a has order 1 modulo 1; a modulus below 1 is an error, not an
    # endless loop.
    assert multiplicative_order(5, 1) == 1
    assert multiplicative_order(0, 1) == 1
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(-1, 7) == 2
    for n in (0, -1, -7):
        with pytest.raises(ValueError):
            multiplicative_order(3, n)


def test_valuation_needs_a_base_of_at_least_two():
    assert valuation_int(12, 2) == 2
    assert valuation_int(-12, 3) == 1
    for p in (1, 0, -1, -2):
        with pytest.raises(ValueError):
            valuation_int(12, p)


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
    # At prime d a transitive group is primitive, so irreducibility and a
    # transposition suffice, with no (d-1)- or (d-2)-cycle: the d-cycle and
    # the witness alone, or for d = 5 the degree lattice of [3,2] and [4,1]
    # with [3,2] cubed a transposition.
    for d in (5, 7):
        lone = GaloisEvidence(d, frozenset({CycleType((d,))}), **base)
        assert certify_sd(lone).route == "standard"
        assert certify_sd(dataclasses.replace(lone, transposition_prime=None)).status == INCONCLUSIVE
    lattice = GaloisEvidence(
        5, frozenset({CycleType((3, 2)), CycleType((4, 1))}), None, CERTIFIED, "degree-lattice",
        False,
    )
    assert certify_sd(lattice).route == "standard"


def test_even_degree_has_no_d_minus_2_route():
    # [6] and [4,1,1] are both types of S_2 wr S_3, which keeps the blocks
    # {1,2}, {3,4}, {5,6}, so they leave G possibly imprimitive.
    base = dict(transposition_prime=7, irreducibility=CERTIFIED,
                irreducibility_route="mod-p", disc_is_square=False)
    e6 = GaloisEvidence(6, frozenset({CycleType((6,)), CycleType((4, 1, 1))}), **base)
    assert certify_sd(e6).status == INCONCLUSIVE


def partitions(n, largest=None):
    """Every partition of n, parts descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def test_wreath_membership_matches_enumerated_groups():
    # For every divisor 1 < b < d of every d <= 9 (b = 2, 3, 4), a type lies in
    # S_b wr S_(d/b) exactly when some element of the group, enumerated as
    # an explicit permutation, has it; the two lists for d = 6 are written
    # out.
    from oracles import wreath_types

    checked = 0
    for d in range(2, 10):
        for b in range(2, d):
            if d % b:
                continue
            group = wreath_types(b, d // b)
            for parts in partitions(d):
                assert galois._in_wreath(CycleType(parts), b) == (parts in group), (d, b, parts)
                checked += 1
    assert checked == 5 + 2 * 11 + 2 * 22 + 30  # p(4), p(6), p(8) and p(9) types
    assert wreath_types(2, 3) == {
        (1,) * 6, (2, 1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2), (4, 1, 1), (4, 2), (6,), (3, 3)
    }
    assert wreath_types(3, 2) == {
        (1,) * 6, (2, 1, 1, 1, 1), (3, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1), (3, 3), (2, 2, 2),
        (4, 2), (6,),
    }


def test_sd_route_matches_the_criterion_oracle_on_every_small_type_set():
    # For d = 4 to 8, on every set of one to three cycle types, with and
    # without a witness and either discriminant square class, the route of
    # the facts cached per type is "standard" exactly when the oracle's
    # statement of the criterion holds, irreducibility taken from the
    # types' subset sums.  The quadratic and cubic-disc routes never fold.
    from oracles import lattice, meets_sd_criterion

    checked = 0
    for d in range(4, 9):
        types = [CycleType(parts) for parts in partitions(d)]
        for size in (1, 2, 3):
            for chosen in itertools.combinations(types, size):
                irreducible = lattice(chosen, d) == {0, d}
                for witness, disc_square in itertools.product((None, 31), (False, True)):
                    route = galois._sd_route(d, irreducible, chosen, disc_square, witness is not None)
                    assert route in (None, "standard")
                    want = meets_sd_criterion(d, set(chosen), disc_square, witness)
                    assert (route is not None) == want, (d, chosen, witness, disc_square)
                    checked += 1
    assert checked == 4 * sum(
        sum(math.comb(n, k) for k in (1, 2, 3)) for n in (5, 7, 11, 15, 22)
    )

    class Refuse:
        def __iter__(self):
            raise AssertionError("the types were folded")

    refuse = Refuse()
    assert galois._sd_route(2, True, refuse, None, False) == "quadratic"
    assert galois._sd_route(3, True, refuse, False, False) == "cubic-disc"
    assert galois._sd_route(5, False, refuse, False, True) is None


@pytest.mark.parametrize(
    "coeffs, b, order",
    [
        # g(x^2), g = x^3 - x - 2: S_2 wr S_3, with the type [2,1,1,1,1].
        ((-2, 0, -1, 0, 0, 0, 1), 2, 48),
        # h(x^3 + x + 1), h = x^2 + 1: S_3 wr S_2, with the witness 733.
        ((2, 2, 1, 2, 2, 0, 1), 3, 72),
        # h(x^3), h = x^2 + x + 2: a group of order 36 whose elements that
        # move the cube roots of unity act as a transposition on both blocks
        # at once, so it has no transposition either.
        ((2, 0, 0, 1, 0, 0, 1), 3, 36),
    ],
)
def test_imprimitive_sextics_never_certify(coeffs, b, order):
    # Negative controls: irreducible sextics whose roots fall into blocks of
    # size b.  Every Frobenius type then lies in S_b wr S_(6/b), so no budget
    # proves the group primitive, whatever the transposition facts.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group

    f = Poly(list(coeffs))
    x = sympy.Symbol("x")
    assert galois_group(sympy.Poly(list(reversed(coeffs)), x))[0].order() == order
    for budget in (1, 2, 3, 5, 8, 13, 25, 60):
        assert not certify_sd(collect_evidence(f, 6, budget)).certified, budget
    evidence = collect_evidence(f, 6, 60)
    types = evidence.observed_cycle_types
    assert evidence.irreducibility == CERTIFIED
    assert all(galois._in_wreath(ct, b) for ct in types)
    transposition = evidence.transposition_prime is not None or contains_n_cycle(types, 2)
    assert transposition == (order != 36)


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



def test_each_polygon_prime_builds_one_newton_polygon(monkeypatch):
    # (x + 1)^4 + 1 splits mod every prime, so the scan leaves its
    # irreducibility inconclusive, and it is Eisenstein at 2, so the polygon
    # at 2 proves it.  Each polygon prime builds one Newton polygon, which
    # serves both its cycle facts and that proof, and each polygon proves
    # its prime prime once, not once per coefficient as well.  The evidence
    # is the same as the public path's on x^4 + 1 shifted.
    eisenstein = Poly([2, 4, 6, 4, 1])
    want = collect_evidence(eisenstein, 4, 5, polygon_primes=(2, 3, 5))
    assert want.irreducibility == CERTIFIED and want.irreducibility_route == "newton-polygon"
    assert ("irreducibility", 2, "totally ramified") in want.provenance
    built, proved = [], []
    real_polygon, real_is_prime = padic.newton_polygon, padic.is_prime

    def counted_polygon(f, p):
        built.append(p)
        return real_polygon(f, p)

    def counted_is_prime(p):
        proved.append(p)
        return real_is_prime(p)

    monkeypatch.setattr(padic, "newton_polygon", counted_polygon)
    monkeypatch.setattr(padic, "is_prime", counted_is_prime)
    assert collect_evidence(eisenstein, 4, 5, polygon_primes=(2, 3, 5)) == want
    assert built == [2, 3, 5]
    assert proved == [2, 3, 5]

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
    g = IntPoly(coeffs + [lead]).primitive()  # lead > 0: already normalized
    assert g.coeffs == _normalize_factor(Poly(coeffs + [lead])).coeffs
    disc = discriminant(g).numerator  # g is integral, so disc(g) is an int
    good = g.lead.numerator % p != 0 and disc % p != 0
    assert (frobenius_cycle_type(g, p) is not None) == good

    budget = 6
    cap = max(galois._SCAN_CAP_MIN, galois._SCAN_CAP_FACTOR * budget)
    reduced = ((q, frobenius_cycle_type(g, q)) for q in itertools.islice(primes(), cap))
    reference = list(itertools.islice(((q, ct) for q, ct in reduced if ct is not None), budget))
    assert list(galois._good_prime_scan(g, disc, budget)) == reference


small_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_rationals, min_size=1, max_size=7),
    small_rationals.filter(bool),
    st.integers(1, 30),
)
def test_integer_normalizer_matches_fraction_path(low, lead, content):
    # Degrees 1-7, a lead of either sign, denominators, and content above 1
    # from the scale factor and from numerators with a common factor.
    f = Poly(low + [lead]).scale(content)
    g, disc = galois._normalized(f)
    expected = _normalize_factor(f)
    assert type(g) is IntPoly and g.coeffs == expected.coeffs
    assert type(disc) is int and disc == discriminant(expected)
