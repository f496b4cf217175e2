import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sdtwists import counting, family, padic, polyarith
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
from sdtwists.polyarith import Poly

from oracles import reference_candidate

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
    # A sweep runs the subresultant once, for discriminant_in_t(P), and reads
    # every full-degree candidate's discriminant off it; only a distinct
    # specialization that drops degree (u = 0 on an even d) runs one more.
    # The discriminant is shared by the report, the evidence and the witness
    # search, and the certificates still equal the ones the public path
    # computes from the polynomial alone.
    monkeypatch.setenv(WORKERS_ENV, "1")
    core = polyarith._resultant_core
    calls = []

    def counted_core(a, b):
        calls.append(a.degree)
        return core(a, b)

    cases = (
        (small_cubic_family(), 3, SweepBudgets(prime_budget=10, kernel_bound=30_000)),
        (build_family((1, 1), 5)[1], 2, SweepBudgets()),
        (build_family((1, 1), 4)[1], 2, SweepBudgets()),
    )
    dropped_total = 0
    for fam, box, budgets in cases:
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(polyarith, "_resultant_core", counted_core)
            cands = sweep(fam, box, budgets=budgets)
        dropped = {t_key(fam.d, c.u, c.v) for c in cands if 1 <= c.poly.degree < fam.d}
        assert len(calls) == 1 + len(dropped)
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


def test_sweep_reads_cycle_types_off_the_table(monkeypatch):
    # For p not dividing v, the cycle type at p depends on u/v mod p only, so
    # a sweep factors each (p, t mod p) once instead of every candidate at
    # every good prime.
    monkeypatch.setenv(WORKERS_ENV, "1")
    real = padic.good_prime_cycle_type
    factored = []

    def counted(coeffs, p):
        factored.append(p)
        return real(coeffs, p)

    monkeypatch.setattr(padic, "good_prime_cycle_type", counted)
    monkeypatch.setattr(family, "good_prime_cycle_type", counted)
    cands = sweep(small_cubic_family(), 12, budgets=SweepBudgets(prime_budget=10))
    distinct = {c.poly: c.certificate.evidence for c in cands}
    scanned = sum(
        kind == "frobenius_cycle_type" for ev in distinct.values() for kind, _, _ in ev.provenance
    )
    assert scanned > 1500
    assert 4 * len(factored) < scanned


FIELDS = [f.name for f in dataclasses.fields(counting.FieldCandidate)]


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert {f: getattr(a, f) for f in FIELDS} == {f: getattr(b, f) for f in FIELDS}


def counted_sweep(monkeypatch, fam, box, **kwargs):
    """sweep(fam, box, **kwargs) and the (u, v) of every evaluation it made."""
    evaluated = []
    real = counting._candidate

    def counted(family, u, v, *rest):
        evaluated.append((u, v))
        return real(family, u, v, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(counting, "_candidate", counted)
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


def test_density_degree_cap():
    with pytest.raises(ValueError):
        greaves_density([1, 0, 0, 0, 0, 0, 0, 1], 10)


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


def test_ev_generate_exhaustive_all_pass_identity():
    model, _, _ = build_family((1, 1), 6)
    seen = list(ev_generate(model, 6, 1, EvConfig(max_instances=300, certify=False)))
    assert len(seen) == 3**5  # exhaustive: five coefficients, bounds all 1
    c = ev_bound_constant(model, 6)
    for inst in seen:
        assert inst.identity_holds(model.f)
        assert inst.bounds_ok
        assert inst.bound_constant == c


def test_ev_generate_sampled_is_seeded():
    model, _, _ = build_family((1, 1), 8)
    cfg = EvConfig(seed=5, max_instances=20, exhaustive_limit=10, certify=False)
    a = [i.H for i in ev_generate(model, 8, F(3), cfg)]
    b = [i.H for i in ev_generate(model, 8, F(3), cfg)]
    assert a == b


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
