import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sdtwists import counting, family, galois, padic, polyarith
from sdtwists.counting import (
    WORKERS_ENV,
    EvConfig,
    SweepBudgets,
    build_count_report,
    c_exponent,
    dedup_classes,
    ev_bound_constant,
    ev_boxes,
    ev_exponent,
    ev_generate,
    ev_instance,
    greaves_density,
    schmidt_ev_alpha,
    squarefree_kernel,
    sweep,
)
from sdtwists.family import build_family
from sdtwists.galois import certify_sd, collect_evidence
from sdtwists.padic import CycleType
from sdtwists.polyarith import IntPoly, Poly
from sdtwists.primes import primes_up_to

from oracles import (
    reference_candidate,
    rho_p2_walk,
    sampled_density_counts,
    single_cycle_power,
    verify_new_point_fraction,
    walk_evidence,
)

BUDGETS = SweepBudgets(prime_budget=12, kernel_bound=10_000)


# -- kernels -------------------------------------------------------------------


def test_kernel_examples():
    assert squarefree_kernel(360, 100) == (10, "complete", 1)
    assert squarefree_kernel(-48, 100) == (-3, "complete", 1)


def test_kernel_square_cofactor_is_complete():
    q = 101
    assert squarefree_kernel(3 * q * q, 50) == (3, "complete", 1)


def test_kernel_partial_records_cofactor():
    q = 101
    assert squarefree_kernel(4 * q, 50) == (1, "partial", q)


def test_kernel_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_kernel(0, 100)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
def test_kernel_square_part_identity(n):
    kernel, flag, cofactor = squarefree_kernel(n, 1031)
    if flag == "complete":
        quotient = F(n, kernel)
        assert quotient > 0 and quotient.denominator == 1
        m = math.isqrt(quotient.numerator)
        assert m * m == quotient.numerator


# -- sweeps and dedup ------------------------------------------------------------


def small_cubic_family():
    from sdtwists.family import WeierstrassModel, twist_polynomial, verify_model

    model = WeierstrassModel(
        B=F(7), C=F(-28), D=F(35), p1=11, p2=5, p3=7,
        shift_target=0, alpha=F(0), epsilon=F(100),
    )
    assert verify_model(model).all_ok()
    return twist_polynomial(model, 3)


def test_sweep_region_filter():
    fam = small_cubic_family()
    cands = sweep(fam, 8, region=1, budgets=BUDGETS)
    assert cands
    assert all(c.disc_sign == 1 for c in cands)


def test_sweep_congruence_filter():
    fam = small_cubic_family()
    cands = sweep(fam, 10, congruence=(1, 1, 3), budgets=BUDGETS)
    assert cands
    assert all(c.u % 3 == 1 and c.v % 3 == 1 for c in cands)
    assert all(c.residue_class == (1, 1) for c in cands)


def test_sweep_congruence_validation():
    fam = small_cubic_family()
    with pytest.raises(ValueError):
        sweep(fam, 5, congruence=(2, 4, 2))


def test_sweep_deterministic_ordering():
    fam = small_cubic_family()
    a = sweep(fam, 6, budgets=BUDGETS)
    b = sweep(fam, 6, budgets=BUDGETS)
    assert a == b


def test_built_model_sweep_certifies_many():
    _, fam, _ = build_family((0, -2), 3)
    cands = sweep(fam, 25, budgets=BUDGETS)
    eligible = [c for c in cands if c.eligible]
    assert len(eligible) >= 100
    assert all(c.point_verified for c in cands if c.poly.degree >= 1)


def t_key(d, u, v):
    """The specialization a pair stands for: t, or |t| when d >= 4."""
    t = F(u, v)
    return abs(t) if d >= 4 else t


def test_sweep_one_subresultant_per_candidate(monkeypatch):
    # A family runs the subresultant once, for discriminant_in_t(P), which
    # disc_form and every sweep over the family share; each full-degree
    # candidate's discriminant is read off it, and only a distinct
    # specialization that drops degree (u = 0 on an even d) runs one more.
    # The calls are counted from the construction of the family on, so the
    # count is the same whether disc_form ran (build_family) or not.  The
    # discriminant is shared by the report, the evidence and the witness
    # search, and the certificates still equal the ones the public path
    # computes from the polynomial alone.
    monkeypatch.setenv(WORKERS_ENV, "1")
    core = polyarith._resultant_core
    calls = []

    def counted_core(a, b):
        calls.append(a.degree)
        return core(a, b)

    cases = (
        (small_cubic_family, 3, SweepBudgets(prime_budget=10, kernel_bound=30_000)),
        (lambda: build_family((1, 1), 5)[1], 2, SweepBudgets()),
        (lambda: build_family((1, 1), 4)[1], 2, SweepBudgets()),
    )
    dropped_total = 0
    for build, box, budgets in cases:
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(polyarith, "_resultant_core", counted_core)
            fam = build()
            cands = sweep(fam, box, budgets=budgets)
            dropped = {t_key(fam.d, c.u, c.v) for c in cands if 1 <= c.poly.degree < fam.d}
            assert len(calls) == 1 + len(dropped)
            calls.clear()
            assert sweep(fam, box, budgets=budgets) == cands
            assert len(calls) == len(dropped)  # discriminant_in_t(P) is kept
        dropped_total += len(dropped)
        checked = 0
        for c in cands:
            if c.disc == 0 or c.poly.degree != fam.d:
                continue
            direct = collect_evidence(
                c.poly, fam.d, budgets.prime_budget,
                polygon_primes=budgets.polygon_primes, trial_bound=budgets.trial_bound,
            )
            assert c.certificate == certify_sd(direct)
            checked += 1
        assert checked
        if fam.d == 5:
            assert any(c.certificate.evidence.transposition_prime for c in cands)
    assert dropped_total == 1  # u = 0 on the quartic


def test_sweep_factors_each_scanned_prime_once(monkeypatch):
    # Every good prime a sweep scans is factored by one call of
    # padic.good_prime_cycle_type, and by nothing else: the calls match the
    # frobenius_cycle_type provenance entries of the evaluated candidates
    # one for one.  The scan of a certified candidate stops once its facts
    # hold (about three primes of ten here), so the box is 20, where the
    # distinct candidates still scan more than 1,500 good primes.
    monkeypatch.setenv(WORKERS_ENV, "1")
    real = padic.good_prime_cycle_type
    factored = []

    def counted(coeffs, p, parity=None):
        factored.append(p)
        return real(coeffs, p, parity)

    monkeypatch.setattr(padic, "good_prime_cycle_type", counted)
    fam, budgets = small_cubic_family(), SweepBudgets(prime_budget=10)
    cands, evaluated = counted_sweep(monkeypatch, fam, 20, budgets=budgets)
    by_pair = {(c.u, c.v): c for c in cands}
    scanned = [
        p
        for u, v in evaluated
        for kind, p, _ in by_pair[u, v].certificate.evidence.provenance
        if kind == "frobenius_cycle_type"
    ]
    assert len(scanned) > 1500
    assert factored == scanned
    # A sweep keeps nothing between candidates: a second sweep of the same
    # family factors exactly as many primes again, and leaves nothing new
    # on the family.
    first, keys = len(factored), set(fam.__dict__)
    assert sweep(fam, 20, budgets=budgets) == cands
    assert len(factored) == 2 * first
    assert set(fam.__dict__) == keys


def test_sweep_parity_spares_powerings(monkeypatch):
    # The parity of Frobenius, read off each candidate's discriminant, ends
    # the factorization of an odd cubic before any F_p arithmetic, and below
    # padic.ROOT_PRIME_BOUND the root count settles an even one, so a compact
    # cubic sweep computes x^p mod (spec, p) 0 times and counts no pairs,
    # with the parity and without it.  The built quintic and sextic families
    # are where the parity acts.  Each step past the root count is one
    # x^p mod (spec, p) or, below padic.PAIR_PRIME_BOUND, one count at the
    # pair points of F_(p^2).  At box 4 the quintic sweep takes 0 such steps
    # with the parity and 30 without it, and the sextic sweep 17 against 53,
    # with the same candidates and certificates either way.
    monkeypatch.setenv(WORKERS_ENV, "1")
    real_power, real_roots = padic._x_power, padic._RootPlan.roots
    steps = []

    def counted_power(*args):
        steps.append("x^p")
        return real_power(*args)

    def counted_roots(plan, f):
        if plan._second_columns is not None:
            steps.append("pairs")
        return real_roots(plan, f)

    monkeypatch.setattr(padic, "_x_power", counted_power)
    monkeypatch.setattr(padic._RootPlan, "roots", counted_roots)
    cands = sweep(small_cubic_family(), 12, budgets=SweepBudgets(prime_budget=10))
    assert sum(c.certificate.certified for c in cands) > 300
    assert len(steps) <= 130
    factor = padic.good_prime_cycle_type
    for d, bound in ((5, 0), (6, 20)):
        fam = build_family((1, 1), d)[1]
        steps.clear()
        cands = sweep(fam, 4, budgets=SweepBudgets())
        with_parity = len(steps)
        assert sum(c.certificate.certified for c in cands) > 40
        assert with_parity <= bound, d
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(
                padic, "good_prime_cycle_type", lambda coeffs, p, parity=None: factor(coeffs, p)
            )
            assert sweep(fam, 4, budgets=SweepBudgets()) == cands
        assert len(steps) >= with_parity + 20, d


FIELDS = [f.name for f in dataclasses.fields(counting.FieldCandidate) if f.name != "poly"]


def assert_same_records(got, want):
    # The program's polynomial is an IntPoly and the reference's a Fraction
    # Poly: they must carry equal coefficients, and every other field is equal.
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a.poly) is IntPoly and a.poly.coeffs == b.poly.coeffs
        assert {f: getattr(a, f) for f in FIELDS} == {f: getattr(b, f) for f in FIELDS}


def counted_sweep(monkeypatch, fam, box, **kwargs):
    """sweep(fam, box, **kwargs) and the (u, v) of every evaluation it made."""
    evaluated = []
    real = counting._block

    def counted(family, budgets, pairs):
        evaluated.extend(pairs)
        return real(family, budgets, pairs)

    with monkeypatch.context() as patch:
        patch.setattr(counting, "_block", counted)
        return sweep(fam, box, **kwargs), evaluated


def direct_sweep(fam, pairs, budgets, modulus=None, region=None):
    """The per-pair reference path: one Fraction-arithmetic record per (u, v)."""
    out = [reference_candidate(fam, u, v, budgets, modulus) for u, v in pairs]
    return [c for c in out if region is None or c.disc_sign == region]


@pytest.fixture(scope="module")
def built_families():
    return {d: build_family((1, 1), d)[1] for d in range(3, 9)}


@pytest.mark.parametrize("d", range(3, 9))
def test_sweep_evaluates_each_specialization_once(monkeypatch, built_families, d):
    monkeypatch.setenv(WORKERS_ENV, "1")
    fam = built_families[d]
    budgets = SweepBudgets(prime_budget=12, trial_bound=10_000)
    cands, evaluated = counted_sweep(monkeypatch, fam, 2, budgets=budgets)
    pairs = list(counting._box_pairs(2, None))
    assert_same_records(cands, direct_sweep(fam, pairs, budgets))
    keys = [t_key(d, u, v) for u, v in evaluated]
    assert len(keys) == len(set(keys)) == len({t_key(d, u, v) for u, v in pairs})
    assert len(evaluated) < len(pairs)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_blocks_match_the_reference(monkeypatch, workers):
    # The sweep evaluates its distinct pairs counting._BLOCK at a time, one
    # layer at a time, and factors each block's discriminants in one batch;
    # the compact cubic at box 12 has more than two blocks of distinct
    # pairs, so each chunk of a two-process pool crosses a block boundary
    # too, and the records equal the per-pair reference path.
    monkeypatch.setenv(WORKERS_ENV, workers)
    fam = small_cubic_family()
    budgets = SweepBudgets(prime_budget=10, kernel_bound=30_000)
    pairs = list(counting._box_pairs(12, None))
    assert len({t_key(3, u, v) for u, v in pairs}) > 2 * counting._BLOCK
    assert_same_records(sweep(fam, 12, budgets=budgets), direct_sweep(fam, pairs, budgets))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_records_do_not_depend_on_the_evaluated_pair(monkeypatch, built_families, workers):
    # Each specialization is evaluated at the first pair of its key, and the
    # record of every pair is built from the facts of that evaluation, so
    # reversing the pair list, which evaluates another pair of each key,
    # reverses the records and changes nothing else.  At box 4 both families
    # have more than 8 distinct specializations, so a two-process pool runs.
    monkeypatch.setenv(WORKERS_ENV, workers)
    budgets = SweepBudgets(prime_budget=12, trial_bound=10_000)
    pairs = list(counting._box_pairs(4, None))
    for d in (3, 6):
        fam = built_families[d]
        assert len({t_key(d, u, v) for u, v in pairs}) > 8
        cands = sweep(fam, 1, pairs=pairs, budgets=budgets)
        assert [(c.u, c.v) for c in cands] == pairs
        assert sweep(fam, 1, pairs=pairs[::-1], budgets=budgets)[::-1] == cands


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "bad, message",
    [((2, 4), "(2, 4) is not a coprime pair"), ((1, 0), "v must be nonzero")],
    ids=["not-coprime", "zero-v"],
)
def test_sweep_rejected_pairs_still_raise(monkeypatch, built_families, workers, bad, message):
    # A pair that specialize rejects keeps a key of its own (_t_key), so it
    # is evaluated, not folded into the key of an accepted pair, and raises
    # from the sweep, in the worker pool too.
    monkeypatch.setenv(WORKERS_ENV, workers)
    pairs = list(counting._box_pairs(4, None))
    for fam in (small_cubic_family(), built_families[4]):
        assert len({t_key(fam.d, u, v) for u, v in pairs}) > 8
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(fam, 1, pairs=[*pairs, bad], budgets=BUDGETS)


def test_sweep_point_check_matches_the_fraction_oracle(monkeypatch, built_families):
    # The sweep takes the point from the family identity, checked once per
    # family; on every candidate of the built families of degrees
    # 3 to 8 at box 4 that agrees with the Fraction remainder oracle.
    monkeypatch.setenv(WORKERS_ENV, "1")
    budgets = SweepBudgets(prime_budget=4, trial_bound=1_000)
    for d, fam in built_families.items():
        cands = sweep(fam, 4, budgets=budgets)
        assert len(cands) == len(list(counting._box_pairs(4, None)))
        for c in cands:
            want = c.poly.degree >= 1 and verify_new_point_fraction(c.poly, fam, c.u, c.v)
            assert c.point_verified == want, (d, c.u, c.v)


def test_sweep_rejects_a_family_whose_identity_fails(built_families):
    # A hand-built family whose point numerator no longer satisfies
    # F^2 - f*G^2 = +-P cannot pass the sweep's point check unchecked.
    fam = built_families[5]
    one = polyarith.BivarPoly([Poly([1])])
    tampered = dataclasses.replace(fam, point_num=fam.point_num + one)
    assert fam.identity_holds and not tampered.identity_holds
    with pytest.raises(ValueError):
        sweep(tampered, 2)


def test_sweep_factors_each_discriminant_once(monkeypatch, built_families):
    # One small-prime pass per discriminant: each distinct specialization's
    # discriminant is factored once, to the kernel bound, in its block's one
    # batched call, and serves both the kernel and the witness search; a
    # search that finds no witness below the kernel bound looks past it, on
    # the cofactor only and over (kernel bound, trial bound] only, by one
    # gcd, at most once.  The records equal the reference path, whose kernel
    # and witness walk the prime sieve.
    monkeypatch.setenv(WORKERS_ENV, "1")
    fam = built_families[5]
    budgets = SweepBudgets()  # kernel bound 10^4 below the trial bound 10^5
    real_factor, real_least, real_witness = (
        counting.factor_batch, galois.least_simple_prime, galois._witness,
    )
    factored, extended, per_search = {}, [], []

    def counted_factor(numbers, bound):
        outs = real_factor(numbers, bound)
        for n, out in zip(numbers, outs, strict=True):
            factored.setdefault(abs(n), []).append((bound, out))
        return outs

    def counted_least(n, above, bound, avoid):
        extended.append((n, above, bound))
        return real_least(n, above, bound, avoid)

    def counted_witness(*args):
        before = len(extended)
        found = real_witness(*args)
        per_search.append(len(extended) - before)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(counting, "factor_batch", counted_factor)
        patch.setattr(galois, "least_simple_prime", counted_least)
        patch.setattr(galois, "_witness", counted_witness)
        cands = sweep(fam, 3, budgets=budgets)

    keys = {t_key(fam.d, c.u, c.v): abs(c.disc) for c in cands if c.disc}
    assert sum(len(calls) for calls in factored.values()) == len(keys)
    assert set(factored) == set(keys.values())
    assert all(bound == budgets.kernel_bound for calls in factored.values() for bound, _ in calls)
    assert per_search and max(per_search) <= 1 and len(extended) == sum(per_search)
    assert extended  # some search looks past the kernel bound
    cofactors = {out[1] for calls in factored.values() for _, out in calls}
    for cofactor, above, bound in extended:
        assert cofactor in cofactors
        assert (above, bound) == (budgets.kernel_bound, budgets.trial_bound)
    assert_same_records(cands, direct_sweep(fam, list(counting._box_pairs(3, None)), budgets))


def frobenius_entries(evidence):
    return [entry for entry in evidence.provenance if entry[0] == "frobenius_cycle_type"]


def assert_stopped_scan_agrees(stopped, full):
    # ``stopped`` is the program's evidence, ``full`` the walk of every good
    # prime of the budget; returns whether the program's scan stopped early.
    # The irreducibility route is that of the scanned prefix: it may be the
    # degree lattice where the full walk meets an irreducible reduction only
    # after the scan stopped.
    want, got = certify_sd(full), certify_sd(stopped)
    assert (got.certified, got.route) == (want.certified, want.route)
    for name in ("irreducibility", "transposition_prime", "disc_is_square"):
        assert getattr(stopped, name) == getattr(full, name), name
    scanned = frobenius_entries(stopped)
    assert scanned == frobenius_entries(full)[: len(scanned)]
    route = stopped.irreducibility_route
    if route != full.irreducibility_route:
        assert (route, full.irreducibility_route) == ("degree-lattice", "mod-p")
        assert f"[{stopped.degree}]" not in {label for _, _, label in scanned}
    rest = [entry for entry in stopped.provenance if entry not in scanned]
    assert rest == [entry for entry in full.provenance if entry[0] != "frobenius_cycle_type"]
    if not got.certified:
        assert stopped == full
    return len(scanned) < len(frobenius_entries(full))


def test_stopped_scan_certifies_as_the_full_walk(monkeypatch, built_families):
    # Every good-prime scan stops once its facts meet the S_d criterion.
    # Against a walk of all 25 good primes with the public
    # frobenius_cycle_type, on the built families of degrees 3 to 8 at box 4
    # and 200 coefficient-box instances of the d = 6 model at Y = 8: the
    # certificate, its route, the irreducibility status and the witness
    # agree, the scanned primes are a prefix of the walk, the irreducibility
    # route is the full walk's or the prefix's degree lattice, and an
    # inconclusive record is the full walk's record exactly.
    monkeypatch.setenv(WORKERS_ENV, "1")
    budget, trial_bound = 25, 10_000
    budgets = SweepBudgets(prime_budget=budget, trial_bound=trial_bound)
    checked = stopped_early = inconclusive = 0
    for d, fam in built_families.items():
        distinct = {c.poly: c for c in sweep(fam, 4, budgets=budgets)}
        for poly, c in distinct.items():
            if c.disc == 0 or poly.degree != d:
                continue
            full = walk_evidence(Poly(poly.coeffs), budget, trial_bound, stop=False)
            stopped_early += assert_stopped_scan_agrees(c.certificate.evidence, full)
            inconclusive += not c.certificate.certified
            checked += 1
    config = EvConfig(seed=5, max_instances=200, certify=True, trial_bound=trial_bound)
    instances = list(ev_generate(built_families[6].model, 6, F(8), config))
    assert len(instances) == 200
    for inst in instances:
        full = walk_evidence(inst.H, budget, trial_bound, stop=False)
        stopped_early += assert_stopped_scan_agrees(inst.certificate.evidence, full)
        inconclusive += not inst.certificate.certified
    checked += len(instances)
    assert stopped_early > 0.9 * checked and inconclusive > 0


def criterion_before_jordan(evidence):
    """The S_d rule that Jordan's theorem replaced: irreducible, with a
    d-cycle, a transposition, and a (d-1)-cycle, or a (d-2)-cycle at odd
    d >= 5."""
    d, types = evidence.degree, evidence.observed_cycle_types

    def has(n):
        return any(single_cycle_power(ct, n) for ct in types)

    long_cycle = has(d - 1) or (d >= 5 and d % 2 == 1 and has(d - 2))
    transposition = evidence.transposition_prime is not None or has(2)
    return evidence.irreducibility == galois.CERTIFIED and has(d) and long_cycle and transposition


def test_only_jordans_rule_certifies_what_sympy_calls_symmetric(monkeypatch, built_families):
    # Every polynomial the program certifies whose full walk of 25 good
    # primes would not have met the earlier rule has Galois group of order
    # d! by sympy's galois_group: 300 coefficient-box instances of the d = 6
    # model at Y = 8, and the built families of degrees 4 to 6 at box 4.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group

    monkeypatch.setenv(WORKERS_ENV, "1")
    budget, trial_bound = 25, 10_000
    certified = {}
    config = EvConfig(seed=1, max_instances=300, certify=True, trial_bound=trial_bound)
    for inst in ev_generate(built_families[6].model, 6, F(8), config):
        if inst.certificate.certified:
            certified[galois._normalized(inst.H)[0]] = inst.certificate
    budgets = SweepBudgets(prime_budget=budget, trial_bound=trial_bound)
    for d in (4, 5, 6):
        for c in sweep(built_families[d], 4, budgets=budgets):
            if c.certificate.certified:
                certified[c.poly] = c.certificate
    x = sympy.Symbol("x")
    only_jordan = 0
    for poly, cert in certified.items():
        full = walk_evidence(Poly(poly.coeffs), budget, trial_bound, stop=False)
        assert certify_sd(full).route == cert.route
        if criterion_before_jordan(full):
            continue
        group, _ = galois_group(sympy.Poly(list(reversed(poly.coeffs)), x))
        assert group.order() == math.factorial(poly.degree), poly
        only_jordan += 1
    assert len(certified) > 300 and only_jordan >= 3


def test_prime_degrees_certify_without_a_long_cycle(monkeypatch, built_families):
    # At prime d an irreducible reduction and a transposition witness
    # certify S_d: the built quintic and septic sweeps certify records that
    # hold no (d-1)-cycle and no (d-2)-cycle, which the earlier rule needed,
    # among them records whose only cycle type is the d-cycle.
    monkeypatch.setenv(WORKERS_ENV, "1")
    for d in (5, 7):
        cands = sweep(built_families[d], 3, budgets=SweepBudgets(trial_bound=10_000))
        bare = [
            c.certificate.evidence for c in cands
            if c.certificate.certified
            and not galois.contains_n_cycle(c.certificate.evidence.observed_cycle_types, d - 1)
            and not galois.contains_n_cycle(c.certificate.evidence.observed_cycle_types, d - 2)
        ]
        assert any(e.observed_cycle_types == {CycleType((d,))} for e in bare), d
        assert all(e.transposition_prime is not None for e in bare if len(e.observed_cycle_types) == 1)


def test_reducible_polynomial_scans_its_whole_budget():
    # Negative control: x * (x^2 + c) and a linear factor times an S_3 cubic
    # never meet the criterion, so each scans every good prime of its budget
    # and carries the full walk's evidence.
    for poly in (Poly([0, 5, 0, 1]), Poly([0, -1, -1, 0, 1])):
        evidence = collect_evidence(poly, poly.degree, 25, trial_bound=10_000)
        assert len(frobenius_entries(evidence)) == 25
        assert evidence == walk_evidence(poly, 25, 10_000, stop=False)
        assert not certify_sd(evidence).certified


def test_sweep_shared_evaluation_options(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    fam = small_cubic_family()
    pairs = [(1, 2), (-1, -2), (3, 1), (1, 2), (-3, -1), (0, 1), (0, -1), (2, -3)]
    cands, evaluated = counted_sweep(monkeypatch, fam, 1, pairs=pairs, budgets=BUDGETS)
    assert_same_records(cands, direct_sweep(fam, pairs, BUDGETS))
    assert evaluated == [(1, 2), (3, 1), (0, 1), (2, -3)]

    # explicit pairs with a congruence: duplicates keep their own residues
    cands, evaluated = counted_sweep(
        monkeypatch, fam, 1, congruence=(1, 2, 5), pairs=pairs, budgets=BUDGETS
    )
    assert_same_records(cands, direct_sweep(fam, pairs, BUDGETS, modulus=5))
    assert cands[0].residue_class == (1, 2) and cands[1].residue_class == (4, 3)
    assert len(evaluated) == 4

    # (u, v) and (-u, -v) share the class (1, 1) mod 2
    cands, evaluated = counted_sweep(
        monkeypatch, fam, 6, congruence=(1, 1, 2), budgets=BUDGETS
    )
    pairs = list(counting._box_pairs(6, (1, 1, 2)))
    assert all(u % 2 == 1 and v % 2 == 1 for u, v in pairs)
    assert_same_records(cands, direct_sweep(fam, pairs, BUDGETS, modulus=2))
    assert len(evaluated) == len({t_key(3, u, v) for u, v in pairs}) < len(pairs)

    box_pairs = list(counting._box_pairs(5, None))
    for region in (1, -1):
        cands, evaluated = counted_sweep(monkeypatch, fam, 5, region=region, budgets=BUDGETS)
        assert cands
        assert_same_records(cands, direct_sweep(fam, box_pairs, BUDGETS, region=region))
        assert len(evaluated) == len({t_key(3, u, v) for u, v in box_pairs})


def test_sweep_shared_evaluation_in_worker_pool(monkeypatch, built_families):
    monkeypatch.setenv(WORKERS_ENV, "2")
    cubic = small_cubic_family()
    cases = (
        (cubic, 6, BUDGETS, (1, 1, 2)),
        (built_families[4], 4, SweepBudgets(prime_budget=12, trial_bound=10_000), None),
    )
    for fam, box, budgets, congruence in cases:
        cands = sweep(fam, box, congruence=congruence, budgets=budgets)
        pairs = list(counting._box_pairs(box, congruence))
        assert len({t_key(fam.d, u, v) for u, v in pairs}) > 8  # the pool runs
        modulus = congruence[2] if congruence else None
        assert_same_records(cands, direct_sweep(fam, pairs, budgets, modulus=modulus))


def test_dedup_grouping_and_quarantine():
    fam = small_cubic_family()
    cands = sweep(fam, 12, budgets=BUDGETS)
    dd = dedup_classes(cands)
    for kernel, members in dd.groups.items():
        assert all(c.kernel == kernel and c.kernel_flag == "complete" for c in members)
    assert all(c.kernel_flag != "complete" for c in dd.quarantine)
    # same square class merges: discs 8 and 2 share kernel 2
    assert squarefree_kernel(8, 100)[0] == squarefree_kernel(2, 100)[0] == 2
    assert squarefree_kernel(2, 100)[0] != squarefree_kernel(3, 100)[0]


def test_dedup_multiplicity_bounded():
    fam = small_cubic_family()
    cands = sweep(fam, 30, budgets=BUDGETS)
    dd = dedup_classes(cands)
    assert dd.groups
    assert max(len(m) for m in dd.groups.values()) <= 128


def test_count_report_monotone_and_signed():
    fam = small_cubic_family()
    cands = sweep(fam, 25, budgets=BUDGETS)
    report = build_count_report(dedup_classes(cands), 3)
    assert report.class_count > 0
    assert list(report.counts) == sorted(report.counts)
    assert report.counts[-1] == report.class_count
    assert report.sign_histogram[1] > 0 and report.sign_histogram[-1] > 0
    assert report.target_exponent == F(1, 3)


# -- density -----------------------------------------------------------------------


def test_density_single_variable_form():
    rep = greaves_density([1, 0], 300)
    assert rep.exhaustive
    assert abs(rep.empirical - 6 / math.pi**2) < 0.02
    assert abs(rep.local_product - 6 / math.pi**2) < 0.01


def test_density_uv_form_matches_local_product():
    rep = greaves_density([0, 1, 0], 300)
    assert abs(rep.empirical - rep.local_product) < 0.05 * rep.local_product


def test_density_square_form_warns():
    rep = greaves_density([4, 4, 1], 200)  # (2u + v)^2
    assert rep.square_form
    assert rep.empirical < 0.02


def _rho_forms() -> list[list[int]]:
    """40 binary forms of degree 1-6 with coefficients in [-20, 20]; every
    fourth has its content multiplied by a prime up to 13 or the square of
    one, and one more by 30030, the product of the primes up to 13."""
    rng = random.Random(12)
    multipliers = [2, 3, 5, 7, 11, 13, 4, 9, 25, 169]
    forms = []
    for i in range(40):
        m = 1 + i % 6
        form = [rng.randint(-20, 20) for _ in range(m + 1)]
        if not any(form):
            form[0] = 1
        if i % 4 == 3:
            form = [c * multipliers[(i // 4) % len(multipliers)] for c in form]
        forms.append(form)
    forms[-2] = [30030 * c for c in forms[-2]]
    return forms


def test_rho_p2_matches_residue_walk():
    # rho(p^2) from the points of P^1(Z/p^2) equals the count over all p^4
    # residue pairs, also when p divides the content of the form.
    forms = _rho_forms()
    assert any(all(c % 13 == 0 for c in form) for form in forms)
    for form in forms:
        for p in primes_up_to(13):
            assert counting._rho_p2(form, p) == rho_p2_walk(form, p), (form, p)


def test_density_degree_cap():
    with pytest.raises(ValueError):
        greaves_density([1, 0, 0, 0, 0, 0, 0, 1], 10)


@pytest.mark.parametrize(
    "box, congruence, message",
    [
        (10, (0, 0, 0), "congruence modulus must be positive"),
        (10, (1, 1, -3), "congruence modulus must be positive"),
        (0, None, "box must be at least 1"),
        (-3, None, "box must be at least 1"),
    ],
)
def test_density_rejects_a_bad_box_or_modulus(box, congruence, message):
    # The box and modulus rules of sweep, with its messages.
    with pytest.raises(ValueError, match=message):
        greaves_density([1, 0, 1], box, congruence=congruence)


def test_density_takes_a_class_without_coprime_pairs():
    # Unlike sweep, the density walk needs no coprime pairs: (2, 2) mod 4
    # holds only even pairs, and F(u, v) = u v is then divisible by 4.
    rep = greaves_density([0, 1, 0], 20, congruence=(2, 2, 4))
    assert rep.sampled == 100 and rep.squarefree == 0


@pytest.mark.parametrize(
    "box, congruence",
    [(5, None), (6, (1, 1, 2)), (7, (2, -1, 5)), (4, (7, 3, 4)), (3, (1, 2, 1)), (2, (5, 5, 9))],
)
def test_box_pairs_are_the_coprime_class_points_of_the_box(box, congruence):
    # The class walk gives the pairs of a test of every point of the box,
    # in the same order, for residues outside [0, M) and below 0 and for a
    # class with no member in the box.
    u0, v0, m = congruence or (0, 0, 1)
    want = [
        (u, v)
        for u in range(-box, box + 1)
        for v in range(-box, box + 1)
        if v and math.gcd(u, v) == 1 and (u - u0) % m == 0 and (v - v0) % m == 0
    ]
    assert list(counting._box_pairs(box, congruence)) == want


def test_box_walk_counts_the_class_exactly():
    # In [-1500, 1500] the class 1 mod 3 has 1,000 members and the class
    # 0 mod 3 has 1,001: (1, 1) mod 3 is a box of exactly 10^6 points, walked
    # exhaustively, and (0, 0) mod 3 one of 1001^2, sampled.
    for c0, size, exhaustive in ((1, 1000, True), (0, 1001, False)):
        ranges = counting._class_ranges(1500, (c0, c0, 3))
        assert [len(r) for r in ranges] == [size, size]
        assert counting._box_walk(ranges, 10, 0)[0] is exhaustive


def test_density_congruence_restriction():
    # F(u, v) = u restricted to u == 1 mod 4: odd values, squarefree density
    # rises to prod_{p odd} (1 - 1/p^2) = (6/pi^2)/(1 - 1/4) = 8/pi^2
    rep = greaves_density([1, 0], 2000, congruence=(1, 0, 4))
    assert abs(rep.empirical - 8 / math.pi**2) < 0.02


def test_density_sampled_mode_is_seeded():
    a = greaves_density([0, 1, 0], 5000, samples=4000, seed=3)
    b = greaves_density([0, 1, 0], 5000, samples=4000, seed=3)
    assert not a.exhaustive
    assert a == b


def test_density_sampled_stream_under_a_congruence():
    # The sampled walk draws the same (u, v) as c0 + M * randint(lo, hi)
    # per coordinate, here for residues outside [0, M) and one below 0: the
    # three counts are exact, and at trial bound 30 every kind of value
    # occurs.
    form, box, samples, seed, bound = [1, 0, 1], 10_000, 3000, 11, 30
    for congruence in [(2, -1, 5), (7, 3, 4)]:
        rep = greaves_density(form, box, congruence=congruence, samples=samples, seed=seed,
                              trial_bound=bound)
        want = sampled_density_counts(form, box, congruence, samples, seed, bound)
        assert not rep.exhaustive
        assert (rep.sampled, rep.squarefree, rep.undecided) == want
        assert 0 < rep.undecided and 0 < rep.squarefree < rep.sampled - rep.undecided


# -- coefficient boxes -----------------------------------------------------------


def test_ev_boxes_even_example():
    a_bounds, b_bounds = ev_boxes(6, F(1))
    assert a_bounds == [1, 1, 1]
    assert b_bounds == [1, 1]  # floor(1^(1/2)), floor(1^(3/2))


def test_ev_boxes_fractional_floors():
    a_bounds, b_bounds = ev_boxes(6, F(2))
    assert a_bounds == [2, 4, 8]
    assert b_bounds == [1, 2]  # floor(sqrt 2), floor(2 sqrt 2)


def test_ev_boxes_odd_shape():
    a_bounds, b_bounds = ev_boxes(7, F(2))
    # F: a_0..a_3 bounded by 2^(k+1/2); G monic with b_1, b_2 bounded by 2^k
    assert a_bounds == [1, 2, 5, 11]
    assert b_bounds == [2, 4]


def test_ev_instance_identity_and_special_point():
    model, _, _ = build_family((1, 1), 6)
    inst = ev_instance(model, 6, F(4), [0, 0, 0], [0, 2])
    assert inst.H == Poly([0] * 6 + [1]) - model.f.scale(4)
    assert inst.identity_holds(model.f)
    assert inst.bounds_ok


def test_ev_instance_is_kept_over_the_integers():
    # An instance keeps the integer F, G and m*H it is built from and m; the
    # rational H is derived from m*H when first read, once, and equals
    # F^2 - f*G^2 over Q.  identity_holds, decided over Z, agrees with the
    # rational identity, also for an f off by a rational or integer constant.
    model, _, _ = build_family((1, 1), 6)
    d, y = 6, F(8)
    m = model.f_cleared[1]
    cfg = EvConfig(seed=3, max_instances=30, certify=False)
    rng = random.Random(cfg.seed)
    a_bounds, b_bounds = ev_boxes(d, y)
    for inst in ev_generate(model, d, y, cfg):
        assert all(type(p) is IntPoly for p in (inst.F, inst.G, inst.mH)) and inst.m == m
        a = [rng.randint(-bound, bound) for bound in a_bounds]
        b = [rng.randint(-bound, bound) for bound in b_bounds]
        assert ev_instance(model, d, y, a, b) == inst
        assert "H" not in vars(inst)
        Fq, Gq = Poly(inst.F.coeffs), Poly(inst.G.coeffs)
        assert inst.H == Fq * Fq - model.f * Gq * Gq
        assert inst.H is inst.H and inst.H.coeffs == tuple(F(c, m) for c in inst.mH.coeffs)
        for f in (model.f, model.f + Poly([F(1, 3)]), model.f + Poly([1])):
            assert inst.identity_holds(f) == (inst.H == Fq * Fq - f * Gq * Gq)
        assert not inst.G or not inst.identity_holds(model.f + Poly([1]))


@pytest.mark.parametrize("d", range(4, 10))
def test_ev_instance_mh_matches_the_ring_operations(d):
    # m*H, accumulated on integer lists, is (F*F).scale(m) - f_int*(G*G) in
    # the IntPoly ring, and its bounds are read as on that polynomial, at
    # random box points and where the other square leads or vanishes: for
    # odd d, a0 = 0, so f*G^2 outranks F^2 by two degrees, and F = 0; for
    # even d, G = 0.
    model = build_family((1, 1), d)[0]
    f_int, m = model.f_cleared
    y = F(5)
    c_bound = ev_bound_constant(model, d)
    bounds = [math.floor(m * c_bound * y**k) for k in range(d + 1)]
    a_bounds, b_bounds = ev_boxes(d, y)
    rng = random.Random(d)

    def draw(box):
        return [rng.randint(-bound, bound) for bound in box]

    points = [(draw(a_bounds), draw(b_bounds)) for _ in range(40)]
    if d % 2:
        points += [([0, *draw(a_bounds[1:])], draw(b_bounds)), ([0] * len(a_bounds), draw(b_bounds))]
    else:
        points += [(draw(a_bounds), [0] * len(b_bounds))]
    for a, b in points:
        inst = ev_instance(model, d, y, a, b)
        if d % 2 == 0:
            Fi, Gi = IntPoly([*reversed(a), 1]), IntPoly(list(reversed(b)))
        else:
            Fi, Gi = IntPoly(list(reversed(a))), IntPoly([*reversed(b), 1])
        mH = (Fi * Fi).scale(m) - f_int * (Gi * Gi)
        assert (inst.F, inst.G, inst.mH, inst.m, inst.bound_constant) == (Fi, Gi, mH, m, c_bound)
        assert all(type(p) is IntPoly for p in (inst.F, inst.G, inst.mH))
        assert inst.bounds_ok == (
            mH.degree == d and all(abs(mH.coeff(d - k)) <= bounds[k] for k in range(d + 1))
        )


def test_ev_generate_exhaustive_all_pass_identity():
    model, _, _ = build_family((1, 1), 6)
    seen = list(ev_generate(model, 6, 1, EvConfig(max_instances=300, certify=False)))
    assert len(seen) == 3**5  # exhaustive: five coefficients, bounds all 1
    c = ev_bound_constant(model, 6)
    for inst in seen:
        assert inst.identity_holds(model.f)
        assert inst.bounds_ok
        assert inst.bound_constant == c


def box_volume(d, y):
    return math.prod(2 * bound + 1 for bound in sum(ev_boxes(d, y), []))


def test_ev_generate_sampled_is_seeded():
    model, _, _ = build_family((1, 1), 8)
    assert box_volume(8, F(3)) > counting.EXHAUSTIVE_LIMIT  # sampled, not walked
    cfg = EvConfig(seed=5, max_instances=20, certify=False)
    a = [i.H for i in ev_generate(model, 8, F(3), cfg)]
    b = [i.H for i in ev_generate(model, 8, F(3), cfg)]
    assert a == b


def test_ev_instance_rebuilds_generated_instances():
    # The public ev_instance at the coordinates ev_generate drew, in its
    # exhaustive and its sampling mode, gives the same instance.
    model, _, _ = build_family((1, 1), 6)
    d, y = 6, F(8)
    assert box_volume(d, y) > counting.EXHAUSTIVE_LIMIT
    a_bounds, b_bounds = ev_boxes(d, y)
    cfg = EvConfig(seed=9, max_instances=12, certify=False)
    rng = random.Random(cfg.seed)
    for inst in ev_generate(model, d, y, cfg):
        a = [rng.randint(-bound, bound) for bound in a_bounds]
        b = [rng.randint(-bound, bound) for bound in b_bounds]
        assert ev_instance(model, d, y, a, b) == inst
    small = EvConfig(max_instances=20, certify=False)
    coords = itertools.product(*[range(-1, 2)] * 5)  # every bound is 1 at Y = 1
    for inst, c in zip(ev_generate(model, d, 1, small), coords):
        assert ev_instance(model, d, F(1), c[:3], c[3:]) == inst


@pytest.mark.parametrize("certify", [False, True])
def test_ev_generate_blocks_match_one_instance_at_a_time(certify):
    # ev_generate takes its draws counting._BLOCK at a time; at one draw,
    # around one block and past two, it yields, in draw order, the instances
    # ev_instance builds at the drawn coordinates, each with the certificate
    # of the public collect_evidence(H), or none when not certifying.
    model, _, _ = build_family((1, 1), 6)
    d, y = 6, F(8)
    a_bounds, b_bounds = ev_boxes(d, y)
    block = counting._BLOCK
    for count in (1, block - 1, block, block + 1, 2 * block + 3):
        cfg = EvConfig(seed=count, max_instances=count, certify=certify, trial_bound=10_000)
        rng = random.Random(cfg.seed)
        got = list(ev_generate(model, d, y, cfg))
        assert len(got) == count
        for inst in got:
            a = [rng.randint(-bound, bound) for bound in a_bounds]
            b = [rng.randint(-bound, bound) for bound in b_bounds]
            want = ev_instance(model, d, y, a, b)
            if certify:
                evidence = collect_evidence(
                    want.H, d, cfg.prime_budget, trial_bound=cfg.trial_bound
                )
                want = dataclasses.replace(want, certificate=certify_sd(evidence))
            assert inst == want


def test_ev_instances_hash_no_model(monkeypatch):
    # Neither ev_instance nor ev_generate hashes the model's Fraction
    # coefficients, and both build the same instances.
    model, _, _ = build_family((1, 1), 6)
    d, y = 6, F(8)
    assert box_volume(d, y) > counting.EXHAUSTIVE_LIMIT
    a_bounds, b_bounds = ev_boxes(d, y)

    def refuse(self):
        raise AssertionError("model hashed")

    monkeypatch.setattr(family.WeierstrassModel, "__hash__", refuse)
    cfg = EvConfig(seed=4, max_instances=8, certify=False)
    rng = random.Random(cfg.seed)
    for inst in ev_generate(model, d, y, cfg):
        a = [rng.randint(-bound, bound) for bound in a_bounds]
        b = [rng.randint(-bound, bound) for bound in b_bounds]
        assert ev_instance(model, d, y, a, b) == inst


def test_ev_certificates_match_public_path():
    # ev_generate certifies the primitive part of m*H on integers, with
    # disc over Z; every certificate equals certify_sd of the public
    # collect_evidence(H), all evidence fields and provenance included.  The
    # draws, exhaustive at Y = 1 and sampled at Y = 8 with two seeds, include
    # certified instances whose m*H has content > 1 (49 at d = 6, where G is
    # divisible by p1 = 7; the other content > 1 draws are H = F^2) and a
    # negative lead (odd d).  F is monic for even d and G for odd d, so
    # lead(m*H) = +-m and every instance keeps degree d and gets a
    # certificate.
    budget, trial_bound = 25, 10_000
    content_above_one = negative_lead = 0
    for d in range(4, 9):
        model, _, _ = build_family((1, 1), d)
        m = model.f_cleared[1]
        for y, seed, count in ((1, 0, 150), (8, 1, 30), (8, 2, 30)):
            cfg = EvConfig(
                seed=seed, max_instances=count, certify=True,
                prime_budget=budget, trial_bound=trial_bound,
            )
            for inst in ev_generate(model, d, y, cfg):
                assert inst.H.degree == d and inst.certificate is not None
                public = collect_evidence(inst.H, d, budget, trial_bound=trial_bound)
                assert inst.certificate == certify_sd(public)
                mH = [int(c * m) for c in inst.H.coeffs]
                if inst.certificate.certified:
                    content_above_one += math.gcd(*mH) > 1
                    negative_lead += mH[-1] < 0
    assert content_above_one > 0 and negative_lead > 0


def test_candidates_build_no_rational_polynomial(monkeypatch, built_families):
    # Once the families and the model are set up, every candidate polynomial
    # stays in Z[x]: with the coercion into a Fraction Poly refused, sweeps
    # of the compact cubic family and of the built families of degrees 3 to
    # 8, and a certified ev_generate on the d = 6 model at Y = 8, give the
    # records of unpatched runs.
    monkeypatch.setenv(WORKERS_ENV, "1")
    families = [small_cubic_family(), *built_families.values()]
    model = built_families[6].model
    budgets = SweepBudgets(prime_budget=12, trial_bound=10_000)
    config = EvConfig(seed=1, max_instances=40, certify=True)

    def run():
        sweeps = [sweep(fam, 2, budgets=budgets) for fam in families]
        return sweeps, list(ev_generate(model, 6, F(8), config))

    want = run()

    def refuse(c):
        raise AssertionError(f"rational coefficient {c!r} coerced")

    monkeypatch.setattr(Poly, "_coerce", staticmethod(refuse))
    with pytest.raises(AssertionError):
        Poly([1])
    got = run()
    assert got == want
    assert all(type(c.poly) is IntPoly for cands in got[0] for c in cands)
    assert sum(inst.certificate.certified for inst in got[1]) > 0


def test_ev_generate_rejects_cubic():
    model, _, _ = build_family((1, 1), 4)
    with pytest.raises(ValueError):
        list(ev_generate(model, 3, 1))


# -- exponents ---------------------------------------------------------------------


def test_ev_exponent_values():
    assert ev_exponent(6) == 8
    assert ev_exponent(4) == F(7, 2)
    assert ev_exponent(7) == 11


def test_ev_exponent_identity_range():
    for d in range(4, 21):
        assert ev_exponent(d) == F(d * d, 4) - F(d, 4) + F(1, 2)


def test_c_exponent_table():
    assert [c_exponent(d, "theorem_general") for d in range(3, 9)] == [
        F(1, 3), F(1, 4), F(1, 5), F(1, 5), F(1, 6), F(1, 6)
    ]
    assert c_exponent(9, "large_degree") == F(1, 4) - F(115, 1296)
    assert c_exponent(7, "small_degree") == F(1, 6)
    assert c_exponent(7, "field_improvement") == F(1, 4) - F(1, 14)


def test_c_exponent_mode_bounds():
    with pytest.raises(ValueError):
        c_exponent(4, "large_degree")
    with pytest.raises(ValueError):
        c_exponent(6, "field_improvement")
    with pytest.raises(ValueError):
        c_exponent(2, "small_degree")
    with pytest.raises(ValueError):
        c_exponent(5, "bogus")


def test_min_degree_tables_are_where_each_exponent_starts():
    # Each mode of c_exponent answers from its entry in C_MIN_DEGREE on and
    # refuses the degree below; the same holds for the coefficient box.
    for mode, least in counting.C_MIN_DEGREE.items():
        with pytest.raises(ValueError, match=f"{mode} mode requires d >= {least}"):
            c_exponent(least - 1, mode)
        assert 0 < c_exponent(least, mode) < 1
    least = counting.BOX_MIN_DEGREE
    for call in (ev_exponent, lambda d: ev_boxes(d, F(2))):
        with pytest.raises(ValueError):
            call(least - 1)
    assert ev_exponent(least) == F(7, 2) and ev_boxes(least, F(2)) == ([2, 4], [1])


def test_c_exponent_monotonicity_and_limits():
    prev = c_exponent(9, "large_degree")
    for d in range(10, 201):
        cur = c_exponent(d, "large_degree")
        assert cur > prev
        assert cur < F(1, 4)
        prev = cur
    for d in range(4, 201):
        assert c_exponent(d, "conditional") > F(1, 4)


def test_alpha_small_degree_schmidt_dominates():
    bound = schmidt_ev_alpha(10)
    assert bound.alpha == F(12, 4)
    assert bound.witness is None


def test_alpha_large_degree_improvement():
    bound = schmidt_ev_alpha(17000)
    assert bound.r2_achieves_improved_bound
    assert bound.alpha < F(17002, 4)


def test_compact_cubic_sweep_computes_no_x_power(monkeypatch):
    # Every good prime of a compact cubic sweep lies below the cutoff of the
    # root count, so an even cubic is settled by its roots mod p: a [1, 1, 1]
    # or a [3] has three roots or none, and x^p mod (spec, p) is never taken.
    monkeypatch.setenv(WORKERS_ENV, "1")

    def refuse(*args):
        raise AssertionError("x^p mod f was computed")

    monkeypatch.setattr(padic, "_x_power", refuse)
    cands = sweep(small_cubic_family(), 12, budgets=SweepBudgets(prime_budget=10))
    assert sum(c.certificate.certified for c in cands) > 300
