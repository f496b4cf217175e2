"""Specialization sweeps, field counting and exponent bookkeeping.

A sweep walks coprime pairs (u, v) in a box, specializes the twist family at
t = u/v, certifies the Galois group, verifies the induced point and reduces
the polynomial discriminant to its signed squarefree kernel.  Each sweep
builds one ``IntegerFamily``, the integer view of the family, and every
candidate reads its specialization, discriminant, point check and Frobenius
cycle types off it.  Distinct fields are distinguished by the kernel (the
square class of the discriminant), so deduplication groups by it; kernels
whose factorization is incomplete at the trial bound are quarantined and
never counted as distinct, which keeps every reported count a true lower
bound.

The coefficient-box construction generates pairs (F, G) with H = F^2 - f G^2
so that each root x0 of H carries the point (x0, F(x0)/G(x0)) of the curve;
its box volume exponent, the counting exponents c_d and the field-count
bound alpha(d) live here too, all as exact rationals.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import galois
from .family import IntegerFamily, TwistFamily, WeierstrassModel
from .galois import SdCertificate
from .polyarith import Poly, binary_form_value, squarefree_decompose
from .primes import factor_trial, is_square, iter_primes_up_to, primes_up_to

KERNEL_COMPLETE = "complete"
KERNEL_PARTIAL = "partial"
KERNEL_ZERO = "zero-disc"

WORKERS_ENV = "SDTWISTS_WORKERS"


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
    if trial_bound < 2:
        raise ValueError("trial bound must be at least 2")
    exponents, cofactor = factor_trial(n, trial_bound)
    kernel = 1
    for p, e in exponents.items():
        if e % 2:
            kernel *= p
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
    poly: Poly
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
    family: IntegerFamily,
    u: int,
    v: int,
    budgets: SweepBudgets,
    modulus: Optional[int],
) -> FieldCandidate:
    # The specialization is primitive integral with positive lead, the
    # normalized form the galois helpers expect with its discriminant.
    p_spec, lam = family.specialize(u, v)
    d = family.d
    disc = family.discriminant(p_spec, lam, u, v) if p_spec.degree >= 1 else 0
    point_ok = p_spec.degree >= 1 and family.point_holds(p_spec, u, v)

    if disc == 0 or p_spec.degree != d:
        evidence = galois.GaloisEvidence(
            degree=max(p_spec.degree, 2),
            observed_cycle_types=frozenset(),
            transposition_prime=None,
            irreducibility=galois.INCONCLUSIVE,
            irreducibility_route=None,
            disc_is_square=True,
        )
        cert = SdCertificate(galois.INCONCLUSIVE, evidence)
    else:
        evidence = galois._evidence(
            p_spec,
            Fraction(disc),
            budgets.prime_budget,
            polygon_primes=budgets.polygon_primes,
            trial_bound=budgets.trial_bound,
            lookup=lambda coeffs, p: family.cycle_type(coeffs, p, u, v),
        )
        cert = galois.certify_sd(evidence)

    if disc == 0:
        kernel, flag, cofactor = 0, KERNEL_ZERO, 0
    else:
        kernel, flag, cofactor = squarefree_kernel(disc, budgets.kernel_bound)

    return FieldCandidate(
        u=u,
        v=v,
        poly=p_spec,
        disc=disc,
        disc_sign=(disc > 0) - (disc < 0),
        kernel=kernel,
        kernel_flag=flag,
        kernel_cofactor=cofactor,
        certificate=cert,
        point_verified=point_ok,
        residue_class=_residue(u, v, modulus),
    )


def _residue(u: int, v: int, modulus: Optional[int]) -> Optional[tuple[int, int]]:
    return (u % modulus, v % modulus) if modulus else None


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


def _box_pairs(
    box: int, congruence: Optional[tuple[int, int, int]]
) -> Iterator[tuple[int, int]]:
    for u in range(-box, box + 1):
        for v in range(-box, box + 1):
            if v == 0 or math.gcd(u, v) != 1:
                continue
            if congruence:
                u0, v0, m = congruence
                if (u - u0) % m or (v - v0) % m:
                    continue
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


def _chunk_worker(args):
    family, budgets, modulus, pairs = args
    view = IntegerFamily(family)
    return [_candidate(view, u, v, budgets, modulus) for u, v in pairs]


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

    Every pair gets its own record, but each distinct specialization is
    evaluated once: pairs are grouped by t = u/v, or by |t| when P is even
    in t, the first pair of each group is evaluated (in the worker pool when
    there is one), and the other pairs get a copy of its record with their
    own u, v and residue class.  The evaluations share one ``IntegerFamily``
    per call (one per worker chunk with a pool): discriminant_in_t(P) is
    computed on first use, and the Frobenius tables fill as the sweep goes.
    """
    if box < 1:
        raise ValueError("box must be at least 1")
    if congruence:
        u0, v0, m = congruence
        if m < 1:
            raise ValueError("congruence modulus must be positive")
        if math.gcd(math.gcd(u0, v0), m) != 1:
            raise ValueError("congruence class admits no coprime pairs")
    modulus = congruence[2] if congruence else None
    pair_list = list(pairs) if pairs is not None else list(_box_pairs(box, congruence))

    even = _even_in_t(family)
    slots: dict[tuple[int, int], int] = {}
    reps: list[tuple[int, int]] = []
    slot_of: list[int] = []
    for u, v in pair_list:
        key = _t_key(u, v, even)
        if key not in slots:
            slots[key] = len(reps)
            reps.append((u, v))
        slot_of.append(slots[key])

    workers = _worker_count()
    if workers > 1 and len(reps) > 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        size = (len(reps) + workers - 1) // workers
        chunks = [reps[i : i + size] for i in range(0, len(reps), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_chunk_worker, [(family, budgets, modulus, c) for c in chunks])
            )
        evaluated = [cand for part in parts for cand in part]
    else:
        evaluated = _chunk_worker((family, budgets, modulus, reps))

    out = []
    for (u, v), slot in zip(pair_list, slot_of):
        cand = evaluated[slot]
        if (cand.u, cand.v) != (u, v):
            cand = replace(cand, u=u, v=v, residue_class=_residue(u, v, modulus))
        out.append(cand)

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
    ineligible: int
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
    ineligible = 0
    for cand in candidates:
        if not cand.eligible:
            ineligible += 1
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
        ineligible=ineligible,
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
        counts = []
        import bisect

        for g in grid:
            counts.append(bisect.bisect_right(mins, g))
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
    """True/False when decided by trial division to the bound, None otherwise."""
    if n == 0:
        return False
    m = abs(n)
    for p in iter_primes_up_to(bound):
        if p * p > m:
            return True  # remaining cofactor is prime
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
            # p removed exactly once
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


def greaves_density(
    form: Sequence[int],
    box: int,
    congruence: Optional[tuple[int, int, int]] = None,
    local_bound: int = 31,
    samples: int = 80_000,
    seed: int = 0,
    trial_bound: int = 10_000,
    exhaustive_limit: int = 1_000_000,
) -> DensityReport:
    """Empirical squarefree density of F(u,v) on the box, plus the local product.

    ``form`` lists the coefficients of F(u,v) = sum(form[i] u^(m-i) v^i).
    The box is walked exhaustively when it has at most ``exhaustive_limit``
    points, otherwise sampled uniformly with the given seed.  The reference
    value is prod_{p <= local_bound} (1 - rho(p^2)/p^4) with rho counted by
    exhaustive residue enumeration mod p^2.  Undecided values (trial bound
    exhausted) stay in the denominator and out of the numerator.
    """
    form = [int(c) for c in form]
    m = len(form) - 1
    if m > 6:
        raise ValueError("binary form degree must be at most 6")
    if m < 1 or all(c == 0 for c in form):
        raise ValueError("form must be nonconstant")

    square_form = _is_square_form(form)
    as_t = tuple(reversed(form))  # F(t, 1), constant first

    if congruence:
        u0, v0, mod = congruence
    else:
        u0, v0, mod = 0, 0, 1

    total = sq = und = 0
    n_side = 2 * box + 1
    exhaustive = (n_side * n_side) // (mod * mod) <= exhaustive_limit

    def account(value: int):
        nonlocal total, sq, und
        total += 1
        status = _squarefree_status(value, trial_bound)
        if status is True:
            sq += 1
        elif status is None:
            und += 1

    if exhaustive:
        # first residue-class members >= -box
        ustart = -box + ((u0 + box) % mod)
        vstart = -box + ((v0 + box) % mod)
        for u in range(ustart, box + 1, mod):
            for v in range(vstart, box + 1, mod):
                account(binary_form_value(as_t, m, u, v))
    else:
        rng = random.Random(seed)
        lo_u = math.ceil((-box - u0) / mod)
        hi_u = math.floor((box - u0) / mod)
        lo_v = math.ceil((-box - v0) / mod)
        hi_v = math.floor((box - v0) / mod)
        for _ in range(samples):
            u = u0 + mod * rng.randint(lo_u, hi_u)
            v = v0 + mod * rng.randint(lo_v, hi_v)
            account(binary_form_value(as_t, m, u, v))

    empirical = sq / total if total else 0.0

    product = 1.0
    for p in primes_up_to(local_bound):
        p2 = p * p
        reduced = [c % p2 for c in form]
        rho = 0
        for a in range(p2):
            apow = [pow(a, m - i, p2) for i in range(m + 1)]
            row = [reduced[i] * apow[i] % p2 for i in range(m + 1)]
            # F(a, b) = sum(row[i] * b^i); Horner over b
            for bb in range(p2):
                acc = 0
                for c in reversed(row):
                    acc = (acc * bb + c) % p2
                if acc == 0:
                    rho += 1
        product *= 1.0 - rho / p2**2

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
    seed: int = 0
    max_instances: int = 200
    exhaustive_limit: int = 1_000_000
    certify: bool = False
    prime_budget: int = 25
    trial_bound: int = 10_000


@dataclass(frozen=True)
class EVInstance:
    d: int
    Y: Fraction
    F: Poly
    G: Poly
    H: Poly
    bound_constant: Fraction
    bounds_ok: bool
    certificate: Optional[SdCertificate] = None

    def identity_holds(self, f: Poly) -> bool:
        return self.H == self.F * self.F - f * self.G * self.G


def _floor_power(y: Fraction, num: int, half: bool) -> int:
    """floor(y**num) or floor(y**(num/2)) in exact arithmetic (num >= 0)."""
    if not half:
        return math.floor(y**num)
    q = y**num  # floor of sqrt(q)
    return math.isqrt(q.numerator * q.denominator) // q.denominator


def ev_boxes(d: int, y: Fraction) -> tuple[list[int], list[int]]:
    """Integer coefficient bounds for (F, G) at scale Y, by parity."""
    if d < 4:
        raise ValueError("coefficient-box construction needs degree >= 4")
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
    """Assemble H = F^2 - f G^2 from box coordinates and check the bounds."""
    f = model.f
    if d % 2 == 0:
        # F monic of degree d/2; a[k-1] multiplies x^(d/2 - k)
        fc = [Fraction(1)] + [Fraction(c) for c in a]
        F = Poly(list(reversed(fc)))
        gc = [Fraction(c) for c in b]  # degrees d/2-2 .. 0
        G = Poly(list(reversed(gc))) if gc else Poly()
    else:
        fc = [Fraction(c) for c in a]  # a0 x^((d-1)/2) + ...
        F = Poly(list(reversed(fc)))
        gc = [Fraction(1)] + [Fraction(c) for c in b]
        G = Poly(list(reversed(gc)))
    H = F * F - f * G * G
    c_bound = ev_bound_constant(model, d)
    ok = H.degree == d and all(
        abs(H.coeff(d - k)) <= c_bound * y**k for k in range(0, d + 1)
    )
    return EVInstance(d=d, Y=y, F=F, G=G, H=H, bound_constant=c_bound, bounds_ok=ok)


def ev_generate(
    model: WeierstrassModel, d: int, y: Fraction | int, config: EvConfig = EvConfig()
) -> Iterator[EVInstance]:
    """Stream box instances: exhaustive for small boxes, else seeded sampling."""
    y = Fraction(y)
    a_bounds, b_bounds = ev_boxes(d, y)
    volume = 1
    for bound in a_bounds + b_bounds:
        volume *= 2 * bound + 1

    def finish(instance: EVInstance) -> EVInstance:
        if config.certify and instance.H.degree == d:
            ev = galois.collect_evidence(
                instance.H, d, config.prime_budget, trial_bound=config.trial_bound
            )
            return replace(instance, certificate=galois.certify_sd(ev))
        return instance

    if volume <= config.exhaustive_limit:
        ranges = [range(-bound, bound + 1) for bound in a_bounds + b_bounds]
        count = 0
        for coords in itertools.product(*ranges):
            if count >= config.max_instances:
                return
            count += 1
            a = coords[: len(a_bounds)]
            b = coords[len(a_bounds) :]
            yield finish(ev_instance(model, d, y, a, b))
    else:
        rng = random.Random(config.seed)
        for _ in range(config.max_instances):
            a = [rng.randint(-bound, bound) for bound in a_bounds]
            b = [rng.randint(-bound, bound) for bound in b_bounds]
            yield finish(ev_instance(model, d, y, a, b))


# ---------------------------------------------------------------------------
# Exponents.
# ---------------------------------------------------------------------------


def ev_exponent(d: int) -> Fraction:
    """Box-volume exponent c = d^2/4 - d/4 + 1/2, cross-checked by summation."""
    if d < 4:
        raise ValueError("degree >= 4 required")
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


_MODES = ("theorem_general", "small_degree", "large_degree", "field_improvement", "conditional")


def c_exponent(d: int, mode: str) -> Fraction:
    """Counting exponents: distinct fields with the new point are >> X^(c_d - eps)."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    if mode == "small_degree":
        if d < 3:
            raise ValueError("small_degree mode requires d >= 3")
        if d == 3:
            return Fraction(1, 3)
        if d == 4:
            return Fraction(1, 4)
        return Fraction(1, math.ceil(Fraction(d, 2)) + 2)
    if mode == "large_degree":
        if d < 5:
            raise ValueError("large_degree mode requires d >= 5")
        return Fraction(1, 4) - Fraction(d * d + 4 * d - 2, 2 * d * d * (d - 1))
    if mode == "field_improvement":
        if d < 7:
            raise ValueError("field_improvement mode requires d >= 7")
        return Fraction(1, 4) - Fraction(1, 2 * d)
    if mode == "conditional":
        if d < 2:
            raise ValueError("conditional mode requires d >= 2")
        return Fraction(1, 4) + Fraction(1, 2 * (d * d - d))
    # theorem_general
    if d < 2:
        raise ValueError("theorem_general mode requires d >= 2")
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


def schmidt_ev_alpha(d: int, r_max: int = 6) -> AlphaBound:
    """Field-count exponent bound alpha(d): min of (d+2)/4 and the grid value
    4k/(d-2) * C(r+4k, r) over pairs with C(r+k, r) > d/2.

    For fixed r the objective increases in k, so only the smallest feasible
    k per r matters.  The r = 2 entry is reported separately together with
    whether it reaches d/4 - 3/4 + 1/(2d).
    """
    if d < 3:
        raise ValueError("d >= 3 required")
    schmidt = Fraction(d + 2, 4)
    best = None
    best_witness = None
    r2_k = None
    r2_alpha = None
    for r in range(1, r_max + 1):
        k = 1 if _alpha_constraint(d, r, 1) else _min_feasible_k(d, r)
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
