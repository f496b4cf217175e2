"""Specialization sweeps, field counting and exponent bookkeeping.

A sweep walks coprime pairs (u, v) in a box, specializes the twist family at
t = u/v, certifies the Galois group, verifies the induced point and reduces
the polynomial discriminant to its signed squarefree kernel.  A sweep runs
on the family itself: every specialization is read off the family's integer
forms (``TwistFamily.specialization``), with its discriminant
(``TwistFamily.discriminant_at``), and certified by the same good-prime scan
as any other polynomial.  Each distinct specialization is evaluated once, in
blocks, one layer at a time: the specializations and discriminants of a
block, then one batched small-prime pass over its discriminants
(``primes.factor_batch``), then the kernel and certificate of each.  An
evaluation yields the facts of the specialization alone, and ``sweep``
builds each pair's record from them once.  The point holds at every
specialization of degree >= 1 by the family identity, which ``sweep``
checks once per family.  Distinct fields are distinguished by the kernel
(the square class of the discriminant), so deduplication groups by it;
kernels whose factorization is incomplete at the kernel bound are
quarantined and never counted as distinct, which keeps every reported count
a true lower bound.

The coefficient-box construction generates pairs (F, G) with H = F^2 - f G^2
so that each root x0 of H carries the point (x0, F(x0)/G(x0)) of the curve.
Each instance is built and kept over Z, as the ``IntPoly``s F, G and m*H, m
the denominator of f: it is bounded, certified on the primitive part of m*H
(as a sweep certifies its specializations) and checked against its identity
in integer arithmetic, and the rational H is derived only when read.
``ev_generate`` builds and certifies its draws in blocks too, by the one
generator (``_ev_instances``) that ``ev_instance`` runs on a single point.
The box volume exponent, the counting exponents c_d and the field-count bound
alpha(d) live here too, all as exact rationals.  The least degree of each
is declared once (``C_MIN_DEGREE``, ``BOX_MIN_DEGREE``, ``ALPHA_MIN_DEGREE``),
for the functions and for the reports that tabulate them.

The members of a residue class (u0, v0) mod M in [-box, box] are computed
once (``_class_ranges``): a sweep walks their coprime pairs and the density
walks all their points.  The coefficient box and the density class are
walked by one ``_box_walk``: every point when the exact number of points,
the product of the range lengths, is at most ``EXHAUSTIVE_LIMIT``,
otherwise seeded uniform draws.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Optional, Sequence

from . import galois
from .family import TwistFamily, WeierstrassModel
from .galois import SdCertificate
from .polyarith import (
    IntPoly,
    Poly,
    _discriminant,
    _primitive_int,
    binary_form_value,
    clear_denominators,
    squarefree_decompose,
)
from .primes import factor_batch, factor_trial, is_square, primes_up_to

KERNEL_COMPLETE = "complete"
KERNEL_PARTIAL = "partial"
KERNEL_ZERO = "zero-disc"

WORKERS_ENV = "SDTWISTS_WORKERS"

# A box of at most this many points, counted exactly, is walked
# exhaustively, a larger one sampled (``_box_walk``): the coefficient box of
# ``ev_generate`` and the points of a residue class in the box of
# ``greaves_density``.
EXHAUSTIVE_LIMIT = 1_000_000

# The least degree of each counting exponent c_d (``c_exponent``), by mode,
# of the coefficient box (``ev_boxes``, ``ev_exponent``) and of the
# field-count bound (``schmidt_ev_alpha``), which every row of the exponents
# report carries.  The order of
# the modes is the column order of the exponents report, which names the
# column of mode m c_m, with the prefix "theorem_" dropped: c_general,
# c_small_degree, c_large_degree, c_field_improvement, c_conditional.
C_MIN_DEGREE = {
    "theorem_general": 2,
    "small_degree": 3,
    "large_degree": 5,
    "field_improvement": 7,
    "conditional": 2,
}
BOX_MIN_DEGREE = 4
ALPHA_MIN_DEGREE = 3

ALPHA_R_MAX = 6


# ---------------------------------------------------------------------------
# Squarefree kernels.
# ---------------------------------------------------------------------------


def squarefree_kernel(n: int, trial_bound: int) -> tuple[int, str, int]:
    """Signed squarefree part of n from trial division up to the bound.

    Returns (kernel, flag, cofactor).  The kernel collects the primes <= B
    of odd exponent with the sign of n; the unfactored cofactor makes the
    result exact when it is 1 or a perfect square, otherwise the flag is
    partial and the cofactor is reported so distinct classes are never
    merged on a guess.
    """
    if n == 0:
        raise ValueError("kernel of zero is undefined")
    return _kernel_of(n, *factor_trial(n, _checked_bound(trial_bound)))


def _checked_bound(trial_bound: int) -> int:
    if trial_bound < 2:
        raise ValueError("trial bound must be at least 2")
    return trial_bound


def _kernel_of(n: int, exponents: dict[int, int], cofactor: int) -> tuple[int, str, int]:
    """``squarefree_kernel`` of n from (exponents, cofactor) = factor_trial(n, B)."""
    kernel = math.prod(p for p, e in exponents.items() if e % 2)
    if n < 0:
        kernel = -kernel
    if cofactor == 1 or is_square(cofactor):
        return kernel, KERNEL_COMPLETE, 1
    return kernel, KERNEL_PARTIAL, cofactor


# ---------------------------------------------------------------------------
# Sweeps over (u, v) boxes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepBudgets:
    prime_budget: int = 25
    trial_bound: int = 100_000
    polygon_primes: tuple[int, ...] = ()
    kernel_bound: int = 10_000


@dataclass(frozen=True)
class FieldCandidate:
    u: int
    v: int
    poly: IntPoly
    disc: int
    disc_sign: int
    kernel: int
    kernel_flag: str
    kernel_cofactor: int
    certificate: SdCertificate
    point_verified: bool
    residue_class: Optional[tuple[int, int]]

    @property
    def eligible(self) -> bool:
        """Counts toward distinct fields: certified S_d with a verified point."""
        return self.certificate.certified and self.point_verified


def _candidate(
    d: int,
    budgets: SweepBudgets,
    spec: IntPoly,
    disc: int,
    factored: Optional[tuple[dict[int, int], int]],
) -> tuple:
    """The facts of one specialization of a degree-d family, from the
    staged facts of ``_block``: the specialization ``spec``, an ``IntPoly``
    primitive with positive lead (the normalized form the galois helpers
    expect), its discriminant and, when that is nonzero,
    ``factor_trial(disc, budgets.kernel_bound)``, which the kernel and the
    witness search share.

    Returns the fields of a ``FieldCandidate`` between ``v`` and
    ``residue_class``, in declaration order: (poly, disc, disc_sign, kernel,
    kernel_flag, kernel_cofactor, certificate, point_verified).  Nothing in
    it depends on the pair (u, v) that names the specialization.
    """
    # The family identity F^2 - f*G^2 = +-P, which ``sweep`` has checked,
    # puts the point on the curve modulo every specialization of degree >= 1.
    point_ok = spec.degree >= 1
    if factored is None:
        kernel, flag, cofactor = 0, KERNEL_ZERO, 0
    else:
        kernel, flag, cofactor = _kernel_of(disc, *factored)

    if disc == 0 or spec.degree != d:
        evidence = galois.GaloisEvidence(
            degree=max(spec.degree, 2),
            observed_cycle_types=frozenset(),
            transposition_prime=None,
            irreducibility=galois.INCONCLUSIVE,
            irreducibility_route=None,
            disc_is_square=True,
        )
        cert = SdCertificate(galois.INCONCLUSIVE, evidence)
    else:
        evidence = galois._evidence(
            spec,
            disc,
            budgets.prime_budget,
            polygon_primes=budgets.polygon_primes,
            trial_bound=budgets.trial_bound,
            factored=(*factored, budgets.kernel_bound),
        )
        cert = galois.certify_sd(evidence)

    return spec, disc, (disc > 0) - (disc < 0), kernel, flag, cofactor, cert, point_ok


def _even_in_t(family: TwistFamily) -> bool:
    """Whether P(x, -t) = P(x, t): no x-coefficient has an odd power of t."""
    return not any(c for xc in family.P.xcoeffs for c in xc.coeffs[1::2])


def _t_key(u: int, v: int, even: bool) -> tuple[int, int]:
    """The pair up to the signs that leave the specialization unchanged.

    (u, v) and (-u, -v) give the same t; when P is even in t, t and -t give
    the same polynomial as well.  A pair that ``specialize`` rejects keeps a
    key of its own, so it is still evaluated and still raises.
    """
    if even:
        return abs(u), abs(v)
    return (u, v) if v > 0 else (-u, -v)


def _class_ranges(box: int, congruence: Optional[tuple[int, int, int]]) -> list[range]:
    """The members of the class (u0, v0) mod M in [-box, box], one range
    per coordinate, least first; every integer there without a congruence."""
    u0, v0, mod = congruence or (0, 0, 1)
    return [range(-box + (c0 + box) % mod, box + 1, mod) for c0 in (u0, v0)]


def _box_pairs(
    box: int, congruence: Optional[tuple[int, int, int]]
) -> Iterator[tuple[int, int]]:
    """The coprime pairs (u, v), v != 0, of the class in [-box, box]^2, in
    lexicographic order."""
    for u, v in itertools.product(*_class_ranges(box, congruence)):
        if v and math.gcd(u, v) == 1:
            yield u, v


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


# A sweep evaluates its distinct pairs in blocks of this many, one layer at
# a time over the block (``_block``).  On the 183 distinct pairs of a
# compact cubic sweep at box 12 (CPython 3.11, 2 cores), a block of 64 took
# 9% less time than a block of 16, 35% less than one pair at a time, and as
# long as a block of 256 to within 1%.
_BLOCK = 64


def _chunk_worker(
    family: TwistFamily, budgets: SweepBudgets, pairs: Sequence[tuple[int, int]]
) -> list[tuple]:
    out: list[tuple] = []
    for start in range(0, len(pairs), _BLOCK):
        out += _block(family, budgets, pairs[start : start + _BLOCK])
    return out


def _block(
    family: TwistFamily, budgets: SweepBudgets, pairs: Sequence[tuple[int, int]]
) -> list[tuple]:
    """The facts (``_candidate``) of the specialization of each pair, one
    layer at a time: every specialization and its discriminant, then one
    ``factor_batch`` of the nonzero discriminants to the kernel bound, then
    ``_candidate`` per specialization."""
    specs = [family.specialization(u, v) for u, v in pairs]
    discs = [
        family.discriminant_at(spec, lam, u, v) if spec.degree >= 1 else 0
        for (spec, lam), (u, v) in zip(specs, pairs)
    ]
    nonzero = [disc for disc in discs if disc]
    factored = iter(
        factor_batch(nonzero, _checked_bound(budgets.kernel_bound)) if nonzero else ()
    )
    return [
        _candidate(family.d, budgets, spec, disc, next(factored) if disc else None)
        for (spec, _), disc in zip(specs, discs)
    ]


def sweep(
    family: TwistFamily,
    box: int,
    congruence: Optional[tuple[int, int, int]] = None,
    region: Optional[int] = None,
    budgets: SweepBudgets = SweepBudgets(),
    pairs: Optional[Sequence[tuple[int, int]]] = None,
) -> list[FieldCandidate]:
    """Candidates for coprime (u, v) in [-box, box]^2, in lexicographic order.

    ``congruence`` restricts to (u, v) == (u0, v0) mod M; ``region`` keeps
    only candidates whose discriminant has the given sign.  ``pairs``
    overrides the box walk with an explicit pair list (used for sampled
    runs).  Worker count comes from the SDTWISTS_WORKERS environment
    variable, which must be a positive integer (ValueError otherwise); the
    output order is independent of it.

    Each distinct specialization is evaluated once: pairs are keyed by
    t = u/v, or by |t| when P is even in t (``_t_key``), the first pair of
    each key names its specialization, and those are evaluated in order (in
    the worker pool when there is one).  The evaluations run in blocks of
    ``_BLOCK`` (``_block``), whose discriminants share one batched
    factorization to the kernel bound, and return the facts of the
    specialization alone; each pair's record is then built once, from the
    facts of its key and its own u, v and residue class.  The evaluations
    read P's integer forms and Disc_t off the family, which builds them once
    and keeps them, and share nothing else: each scans its own good primes,
    so a sweep leaves nothing behind on the family or between the workers of
    its pool.

    Every record's ``point_verified`` rests on the family identity
    F^2 - f*G^2 = +-P (``TwistFamily.identity_holds``, computed once per
    family); a family for which it fails raises ValueError.
    """
    if box < 1:
        raise ValueError("box must be at least 1")
    if not family.identity_holds:
        raise ValueError("point_num^2 - f*point_den^2 is not identity_sign * P for this family")
    if congruence:
        u0, v0, m = congruence
        if m < 1:
            raise ValueError("congruence modulus must be positive")
        if math.gcd(math.gcd(u0, v0), m) != 1:
            raise ValueError("congruence class admits no coprime pairs")
    modulus = congruence[2] if congruence else None
    pair_list = list(pairs) if pairs is not None else list(_box_pairs(box, congruence))

    even = _even_in_t(family)
    keys = [_t_key(u, v, even) for u, v in pair_list]
    reps: dict[tuple[int, int], tuple[int, int]] = {}
    for key, pair in zip(keys, pair_list):
        reps.setdefault(key, pair)
    distinct = list(reps.values())

    workers = _worker_count()
    if workers > 1 and len(distinct) > 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        size = (len(distinct) + workers - 1) // workers
        chunks = [distinct[i : i + size] for i in range(0, len(distinct), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _chunk_worker, itertools.repeat(family), itertools.repeat(budgets), chunks
            )
            evaluated = [facts for part in parts for facts in part]
    else:
        evaluated = _chunk_worker(family, budgets, distinct)
    facts = dict(zip(reps, evaluated))

    out = [
        FieldCandidate(u, v, *facts[key], (u % modulus, v % modulus) if modulus else None)
        for (u, v), key in zip(pair_list, keys)
    ]
    if region is not None:
        out = [c for c in out if c.disc_sign == region]
    return out


# ---------------------------------------------------------------------------
# Deduplication by square class and the count report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dedup:
    groups: dict[int, tuple[FieldCandidate, ...]]
    quarantine: tuple[FieldCandidate, ...]
    multiplicity_histogram: dict[int, int]


@dataclass(frozen=True)
class CountReport:
    degree: int
    x_grid: tuple[int, ...]
    counts: tuple[int, ...]
    class_count: int
    quarantined: int
    fit_slope: Optional[float]
    target_exponent: Fraction
    sign_histogram: dict[int, int]
    multiplicity_histogram: dict[int, int]


def dedup_classes(candidates: Iterable[FieldCandidate]) -> Dedup:
    """Group eligible candidates by complete signed kernel; quarantine the rest.

    Partial kernels never merge distinct classes, so they are excluded from
    the distinct-field count outright.
    """
    groups: dict[int, list[FieldCandidate]] = {}
    quarantine: list[FieldCandidate] = []
    for cand in candidates:
        if not cand.eligible:
            continue
        if cand.kernel_flag == KERNEL_COMPLETE:
            groups.setdefault(cand.kernel, []).append(cand)
        else:
            quarantine.append(cand)
    hist: dict[int, int] = {}
    for members in groups.values():
        hist[len(members)] = hist.get(len(members), 0) + 1
    return Dedup(
        groups={k: tuple(v) for k, v in sorted(groups.items())},
        quarantine=tuple(quarantine),
        multiplicity_histogram=dict(sorted(hist.items())),
    )


def build_count_report(dedup: Dedup, d: int) -> CountReport:
    """N(X) over a dyadic X grid, X = |disc| of the defining polynomial."""
    mins = sorted(min(abs(c.disc) for c in members) for members in dedup.groups.values())
    if mins:
        top = max(mins)
        grid = []
        x = 2
        while x < top:
            grid.append(x)
            x *= 2
        grid.append(x)
        counts = [bisect.bisect_right(mins, g) for g in grid]
    else:
        grid, counts = [], []

    slope = None
    pts = [(math.log(g), math.log(n)) for g, n in zip(grid, counts) if n > 0]
    if len(pts) >= 2 and pts[0][1] != pts[-1][1]:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        denom = sum((x - mx) ** 2 for x in xs)
        if denom:
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom

    signs = {1: 0, -1: 0}
    for kernel in dedup.groups:
        signs[1 if kernel > 0 else -1] += 1

    return CountReport(
        degree=d,
        x_grid=tuple(grid),
        counts=tuple(counts),
        class_count=len(dedup.groups),
        quarantined=len(dedup.quarantine),
        fit_slope=slope,
        target_exponent=c_exponent(d, "theorem_general"),
        sign_histogram=signs,
        multiplicity_histogram=dedup.multiplicity_histogram,
    )


# ---------------------------------------------------------------------------
# Squarefree-value density of binary forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    empirical: float
    local_product: float
    sampled: int
    squarefree: int
    undecided: int
    square_form: bool
    exhaustive: bool


def _squarefree_status(n: int, bound: int) -> Optional[bool]:
    """True/False when decided by trial division to the bound, None otherwise;
    a square factor below ``primes.SMALL_PRIME_BOUND`` stops the division."""
    if n == 0:
        return False
    exponents, m = factor_trial(n, bound, until_square=True)
    if any(e >= 2 for e in exponents.values()):
        return False
    if m == 1:
        return True
    if is_square(m):
        return False
    if m < bound**3:
        return True  # at most two prime factors, not a square
    return None


def _is_square_form(form: Sequence[int]) -> bool:
    """Whether F(u, v) = c * (binary form)^2 identically."""
    coeffs = list(form)
    m = len(coeffs) - 1
    poly = Poly(list(reversed(coeffs)))  # F(x, 1)
    if not poly:
        return False
    v_exponent = m - poly.degree
    if v_exponent % 2:
        return False
    return all(mult % 2 == 0 for _, mult in squarefree_decompose(poly))


def _rho_p2(form: Sequence[int], p: int) -> int:
    """rho(p^2) = #{(a, b) mod p^2 : F(a, b) == 0 mod p^2} for the binary
    form F(u, v) = sum(form[i] u^(m-i) v^i), by 2p^2 + p evaluations of F.

    The pairs with p | a and p | b are the (pa', pb') for (a', b') mod p.
    Every other pair is w * (a, b) for a unit w mod p^2 and exactly one of
    the p^2 + p points (a : 1) and (1 : pj) of P^1(Z/p^2), with p(p - 1)
    such pairs per point; F(wa, wb) = w^m F(a, b), so they are all roots
    or none.
    """
    m = len(form) - 1
    as_t = tuple(reversed(form))  # F(t, 1), constant first
    p2 = p * p

    def root(u: int, v: int) -> bool:
        return binary_form_value(as_t, m, u, v) % p2 == 0

    inner = sum(root(p * a, p * b) for a in range(p) for b in range(p))
    points = sum(root(a, 1) for a in range(p2)) + sum(root(1, p * j) for j in range(p))
    return inner + p * (p - 1) * points


def _box_walk(
    ranges: Sequence[range], samples: int, seed: int
) -> tuple[bool, Iterator[tuple[int, ...]]]:
    """(exhaustive, points) for the box ranges[0] x ranges[1] x ...: a box
    of at most ``EXHAUSTIVE_LIMIT`` points, counted exactly as the product
    of the range lengths, is exhaustive and its points are every one, in
    lexicographic order; a larger box gives ``samples`` uniform draws seeded
    by ``seed``, one ``randrange(len(r))`` per coordinate, the draw
    ``randint`` makes for the same range."""
    if math.prod(map(len, ranges)) <= EXHAUSTIVE_LIMIT:
        return True, itertools.product(*ranges)
    rng = random.Random(seed)
    return False, (tuple(r[rng.randrange(len(r))] for r in ranges) for _ in range(samples))


def greaves_density(
    form: Sequence[int],
    box: int,
    congruence: Optional[tuple[int, int, int]] = None,
    local_bound: int = 31,
    samples: int = 80_000,
    seed: int = 0,
    trial_bound: int = 10_000,
) -> DensityReport:
    """Empirical squarefree density of F(u,v) on the box, plus the local product.

    ``form`` lists the coefficients of F(u,v) = sum(form[i] u^(m-i) v^i).
    The points are those of the class (u0, v0) mod M in the box
    (``_class_ranges``), walked exhaustively when the class has at most
    ``EXHAUSTIVE_LIMIT`` (10^6) of them, counted exactly, and otherwise
    sampled uniformly with the given seed (``_box_walk``).  The reference
    value is prod_{p <= local_bound} (1 - rho(p^2)/p^4), with rho(p^2) the
    number of roots of F among the pairs mod p^2, counted on the points of
    P^1(Z/p^2) (``_rho_p2``).  Undecided values (trial bound exhausted) stay
    in the denominator and out of the numerator.  Raises ValueError, as
    ``sweep`` does, for a box below 1 or a congruence modulus below 1; the
    classes need not hold coprime pairs.
    """
    form = [int(c) for c in form]
    m = len(form) - 1
    if m > 6:
        raise ValueError("binary form degree must be at most 6")
    if m < 1 or all(c == 0 for c in form):
        raise ValueError("form must be nonconstant")
    if box < 1:
        raise ValueError("box must be at least 1")
    if congruence and congruence[2] < 1:
        raise ValueError("congruence modulus must be positive")

    square_form = _is_square_form(form)
    as_t = tuple(reversed(form))  # F(t, 1), constant first

    exhaustive, points = _box_walk(_class_ranges(box, congruence), samples, seed)
    total = sq = und = 0
    for u, v in points:
        total += 1
        status = _squarefree_status(binary_form_value(as_t, m, u, v), trial_bound)
        if status is True:
            sq += 1
        elif status is None:
            und += 1

    empirical = sq / total if total else 0.0

    product = 1.0
    for p in primes_up_to(local_bound):
        product *= 1.0 - _rho_p2(form, p) / (p * p) ** 2

    return DensityReport(
        empirical=empirical,
        local_product=product,
        sampled=total,
        squarefree=sq,
        undecided=und,
        square_form=square_form,
        exhaustive=exhaustive,
    )


# ---------------------------------------------------------------------------
# Coefficient-box construction H = F^2 - f G^2.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvConfig:
    exhaustive_limit: ClassVar[int] = EXHAUSTIVE_LIMIT  # the box walk's limit, not a setting
    seed: int = 0
    max_instances: int = 200
    certify: bool = False
    prime_budget: int = 25
    trial_bound: int = 10_000


@dataclass(frozen=True)
class EVInstance:
    """One box instance H = F^2 - f G^2, kept as the integer F, G and m*H it
    is built from, m the denominator of the model's f."""

    d: int
    Y: Fraction
    F: IntPoly
    G: IntPoly
    mH: IntPoly
    m: int
    bound_constant: Fraction
    bounds_ok: bool
    certificate: Optional[SdCertificate] = None

    @cached_property
    def H(self) -> Poly:
        """H = m*H / m over Q, derived once, when first read."""
        return Poly([Fraction(c, self.m) for c in self.mH.coeffs])

    def identity_holds(self, f: Poly) -> bool:
        """Whether H == F^2 - f*G^2, decided over Z for f = fi/k
        (``clear_denominators``) as k*(m*H) == m*(k*F^2 - fi*G^2)."""
        fi, k = clear_denominators(f)
        F, G = self.F, self.G
        return self.mH.scale(k) == ((F * F).scale(k) - fi * G * G).scale(self.m)


def _floor_power(y: Fraction, num: int, half: bool) -> int:
    """floor(y**num) or floor(y**(num/2)) in exact arithmetic (num >= 0)."""
    if not half:
        return math.floor(y**num)
    q = y**num  # floor of sqrt(q)
    return math.isqrt(q.numerator * q.denominator) // q.denominator


def ev_boxes(d: int, y: Fraction) -> tuple[list[int], list[int]]:
    """Integer coefficient bounds for (F, G) at scale Y, by parity."""
    if d < BOX_MIN_DEGREE:
        raise ValueError(f"coefficient-box construction needs degree >= {BOX_MIN_DEGREE}")
    if y < 1:
        raise ValueError("scale must be at least 1")
    if d % 2 == 0:
        a_bounds = [_floor_power(y, k, False) for k in range(1, d // 2 + 1)]
        b_bounds = [_floor_power(y, 2 * k - 3, True) for k in range(2, d // 2 + 1)]
    else:
        a_bounds = [_floor_power(y, 2 * k + 1, True) for k in range(0, (d - 1) // 2 + 1)]
        b_bounds = [_floor_power(y, k, False) for k in range(1, (d - 3) // 2 + 1)]
    return a_bounds, b_bounds


def ev_bound_constant(model: WeierstrassModel, d: int) -> Fraction:
    """C with |coeff of x^(d-k) in H| <= C * Y^k for every box instance."""
    mf = max(Fraction(1), abs(model.B), abs(model.C), abs(model.D))
    return (d + 1) * (1 + 4 * mf)


def ev_instance(
    model: WeierstrassModel, d: int, y: Fraction, a: Sequence[int], b: Sequence[int]
) -> EVInstance:
    """Assemble H = F^2 - f G^2 from box coordinates and check the bounds:
    the one-point case of ``ev_generate``, not certified."""
    return next(_ev_instances(model, d, y, iter([(*a, *b)]), len(a), EvConfig()))


def _add_square(out: list, cs: Sequence[int], k: int) -> list:
    """out plus k * (the polynomial cs)^2, coefficient lists constant first,
    accumulated in out, which must be long enough."""
    for i, x in enumerate(cs):
        if x:
            out[2 * i] += k * x * x
            x2 = 2 * k * x
            for j in range(i + 1, len(cs)):
                out[i + j] += x2 * cs[j]
    return out


def _ev_coeffs(
    f_int: IntPoly, m: int, d: int, a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """The coefficient lists of F, G and m*H, constant first, for f = f_int/m.

    m*H = m*F^2 - f_int*G^2 is accumulated in one integer list from the
    coefficient lists of F, G and f_int, with no intermediate polynomial.
    """
    if d % 2 == 0:
        # F monic of degree d/2; a[k-1] multiplies x^(d/2 - k)
        F = [*reversed(a), 1]
        G = list(reversed(b))  # degrees d/2-2 .. 0
    else:
        F = list(reversed(a))  # a0 x^((d-1)/2) + ...
        G = [*reversed(b), 1]
    # m*F^2 and f*G^2 both have degree <= d, whichever of them leads
    mh = _add_square([0] * (d + 1), F, m)
    for i, x in enumerate(_add_square([0] * max(2 * len(G) - 1, 0), G, 1)):
        if x:
            for j, c in enumerate(f_int.coeffs):
                mh[i + j] -= c * x
    return F, G, mh


def _ev_instances(
    model: WeierstrassModel,
    d: int,
    y: Fraction,
    points: Iterator[Sequence[int]],
    split: int,
    config: EvConfig,
) -> Iterator[EVInstance]:
    """The instance at each box point (a, b), a = point[:split], in order.

    The points are taken ``_BLOCK`` at a time, as a sweep takes its pairs,
    and each block one layer at a time: m*H for every point (``_ev_coeffs``),
    then, with ``config.certify``, every primitive part of m*H with positive
    lead, every discriminant and every certificate, for the instances of
    full degree d.  Each instance is then bounded on the list of m*H, whose
    coefficient of x^(d-k) is at most floor(m*C*Y^k) in absolute value for
    C = ``ev_bound_constant``, and built once.
    """
    f_int, m = model.f_cleared
    c_bound = ev_bound_constant(model, d)
    limits = [math.floor(m * c_bound * y**k) for k in range(d + 1)]
    while block := list(itertools.islice(points, _BLOCK)):
        built = [_ev_coeffs(f_int, m, d, c[:split], c[split:]) for c in block]
        certificates: Iterable[Optional[SdCertificate]] = itertools.repeat(None)
        if config.certify:
            prims = [IntPoly._of(_primitive_int(mh)[0]) if mh[d] else None for _, _, mh in built]
            discs = [_discriminant(g) if g is not None else 0 for g in prims]
            certificates = [
                None if g is None else galois.certify_sd(galois._evidence(
                    g, disc, config.prime_budget, polygon_primes=(), trial_bound=config.trial_bound,
                ))
                for g, disc in zip(prims, discs)
            ]
        for (F, G, mh), certificate in zip(built, certificates):
            ok = mh[d] != 0 and all(abs(mh[d - k]) <= limits[k] for k in range(d + 1))
            yield EVInstance(
                d, y, IntPoly._of(F), IntPoly._of(G), IntPoly._of(mh), m, c_bound, ok, certificate
            )


def ev_generate(
    model: WeierstrassModel, d: int, y: Fraction | int, config: EvConfig = EvConfig()
) -> Iterator[EVInstance]:
    """Stream box instances from ``_box_walk``: the first
    ``config.max_instances`` points of a box of at most ``EXHAUSTIVE_LIMIT``
    points, else that many draws seeded by ``config.seed``.

    The instances are built, and with ``config.certify`` certified, in
    blocks by ``_ev_instances``, which ``ev_instance`` runs on one point.
    An instance of full degree d is certified on the primitive part of m*H
    with positive lead and its integer discriminant, the ones
    ``galois.collect_evidence(H, d, ...)`` derives from H, without the
    rational arithmetic.
    """
    y = Fraction(y)
    a_bounds, b_bounds = ev_boxes(d, y)
    ranges = [range(-bound, bound + 1) for bound in a_bounds + b_bounds]
    _, walk = _box_walk(ranges, config.max_instances, config.seed)
    points = itertools.islice(walk, config.max_instances)
    yield from _ev_instances(model, d, y, points, len(a_bounds), config)


# ---------------------------------------------------------------------------
# Exponents.
# ---------------------------------------------------------------------------


def ev_exponent(d: int) -> Fraction:
    """Box-volume exponent c = d^2/4 - d/4 + 1/2, cross-checked by summation."""
    if d < BOX_MIN_DEGREE:
        raise ValueError(f"degree >= {BOX_MIN_DEGREE} required")
    formula = Fraction(d * d, 4) - Fraction(d, 4) + Fraction(1, 2)
    if d % 2 == 0:
        direct = sum(Fraction(i) for i in range(1, d // 2 + 1)) + sum(
            Fraction(j) - Fraction(3, 2) for j in range(2, d // 2 + 1)
        )
    else:
        direct = sum(Fraction(k) + Fraction(1, 2) for k in range(0, (d - 1) // 2 + 1)) + sum(
            Fraction(k) for k in range(1, (d - 3) // 2 + 1)
        )
    if direct != formula:
        raise AssertionError(f"exponent identity failed at d={d}: {direct} != {formula}")
    return formula


def c_exponent(d: int, mode: str) -> Fraction:
    """Counting exponents: distinct fields with the new point are >> X^(c_d - eps).

    ``mode`` is a key of ``C_MIN_DEGREE``, and d at least its value there.
    """
    if mode not in C_MIN_DEGREE:
        raise ValueError(f"unknown mode {mode!r}; expected one of {tuple(C_MIN_DEGREE)}")
    if d < C_MIN_DEGREE[mode]:
        raise ValueError(f"{mode} mode requires d >= {C_MIN_DEGREE[mode]}")
    if mode == "small_degree":
        if d == 3:
            return Fraction(1, 3)
        if d == 4:
            return Fraction(1, 4)
        return Fraction(1, math.ceil(Fraction(d, 2)) + 2)
    if mode == "large_degree":
        return Fraction(1, 4) - Fraction(d * d + 4 * d - 2, 2 * d * d * (d - 1))
    if mode == "field_improvement":
        return Fraction(1, 4) - Fraction(1, 2 * d)
    if mode == "conditional":
        return Fraction(1, 4) + Fraction(1, 2 * (d * d - d))
    # theorem_general
    if d == 2:
        return Fraction(1, 2)
    if d <= 4:
        return c_exponent(d, "small_degree")
    return max(c_exponent(d, "small_degree"), c_exponent(d, "large_degree"))


@dataclass(frozen=True)
class AlphaBound:
    alpha: Fraction
    witness: Optional[tuple[int, int]]  # (r, k) when the grid search wins
    r2_k: Optional[int]
    r2_alpha: Optional[Fraction]
    r2_achieves_improved_bound: bool


def _alpha_formula(d: int, r: int, k: int) -> Fraction:
    return Fraction(4 * k, d - 2) * math.comb(r + 4 * k, r)


def _alpha_constraint(d: int, r: int, k: int) -> bool:
    return math.comb(r + k, r) > Fraction(d, 2)


def _min_feasible_k(d: int, r: int) -> int:
    """Smallest k with C(r+k, r) > d/2 (binary search; constraint monotone)."""
    lo, hi = 1, 2
    while not _alpha_constraint(d, r, hi):
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if _alpha_constraint(d, r, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def schmidt_ev_alpha(d: int) -> AlphaBound:
    """Field-count exponent bound alpha(d): min of (d+2)/4 and the grid value
    4k/(d-2) * C(r+4k, r) over pairs with C(r+k, r) > d/2 and
    r <= ``ALPHA_R_MAX`` (6).

    For fixed r the objective increases in k, so only the smallest feasible
    k per r matters.  The r = 2 entry is reported separately together with
    whether it reaches d/4 - 3/4 + 1/(2d).
    """
    if d < ALPHA_MIN_DEGREE:
        raise ValueError(f"d >= {ALPHA_MIN_DEGREE} required")
    schmidt = Fraction(d + 2, 4)
    best = None
    best_witness = None
    r2_k = None
    r2_alpha = None
    for r in range(1, ALPHA_R_MAX + 1):
        k = _min_feasible_k(d, r)
        value = _alpha_formula(d, r, k)
        if best is None or value < best:
            best, best_witness = value, (r, k)
        if r == 2:
            r2_k, r2_alpha = k, value
    improved = Fraction(d, 4) - Fraction(3, 4) + Fraction(1, 2 * d)
    achieves = r2_alpha is not None and r2_alpha <= improved
    if best is not None and best < schmidt:
        return AlphaBound(best, best_witness, r2_k, r2_alpha, achieves)
    return AlphaBound(schmidt, None, r2_k, r2_alpha, achieves)
