"""Independent oracles for the test suite.

These deliberately avoid the code paths they check: the Sylvester
determinant is expanded by exact Gaussian elimination instead of the
subresultant sequence, bivariate discriminants come from specialization
plus Lagrange interpolation, mod-p factorizations are found by exhaustive
trial division over all monic polynomials, and specializations, point
checks, the discriminant form of a family and whole sweep candidates are
computed in ``Fraction`` arithmetic from P itself, with the public galois
entry points, instead of from the integer forms a sweep uses, and the
normalized model is searched for and checked in ``Fraction`` arithmetic,
instead of on the integer numerators ``build_model`` keeps.  Trial
factorizations and transposition witnesses walk the prime sieve one
remainder per prime, instead of the staged product gcd of
``primes.factor_trial``.  Galois evidence walks every good prime of the
budget with the public ``frobenius_cycle_type``, which finds bad primes by
reduction rather than from the discriminant, and is then cut where its own
statement of the S_d criterion first holds: irreducibility from the subset
sums of the prefix, a transposition from powers of each cycle type taken
one exponent at a time, and primitivity against the cycle types of every
element of each wreath product S_b wr S_(d/b), enumerated as explicit
permutations.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import islice, permutations, product
from typing import Optional, Sequence

import sdtwists.family
from sdtwists import galois
from sdtwists.counting import KERNEL_COMPLETE, KERNEL_PARTIAL, KERNEL_ZERO, FieldCandidate
from sdtwists.family import (
    SIGN_GRID_DENOMINATOR,
    DiscriminantForm,
    ModelCheck,
    WeierstrassModel,
    _admissible_primes,
    _exclusion_base,
)
from sdtwists.padic import CycleType, frobenius_cycle_type, reduce_poly_mod, valuation
from sdtwists.polyarith import (
    BivarPoly,
    Poly,
    _normalize_factor,
    discriminant,
    discriminant_in_t,
    reduce_mod,
    squarefree_decompose,
)
from sdtwists.primes import is_square, iter_primes_up_to, multiplicative_order, primes, valuation_int


def factor_trial_walk(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Factor |n| by primes <= bound; return (exponents, unfactored cofactor)."""
    if n == 0:
        raise ValueError("cannot factor zero")
    m = abs(n)
    out: dict[int, int] = {}
    for p in iter_primes_up_to(bound):
        if p * p > m:
            break
        if m % p == 0:
            v = 0
            while m % p == 0:
                m //= p
                v += 1
            out[p] = v
    if 1 < m and m <= bound:
        out[m] = out.get(m, 0) + 1
        m = 1
    return out, m


def witness_walk(f: Poly, trial_bound: int) -> Optional[int]:
    """Smallest prime p <= trial_bound, p not dividing lc(f), with
    v_p(Disc f) = 1, by a walk over the primes up to trial_bound."""
    g = _normalize_factor(f)
    disc = discriminant(g)
    if disc == 0:
        raise ValueError("discriminant vanishes; no transposition witness exists")
    n = abs(disc.numerator)
    lead = g.lead.numerator
    for p in iter_primes_up_to(trial_bound):
        if p > n:
            break
        if lead % p == 0 or n % p:
            continue
        if valuation_int(n, p) == 1:
            return p
    return None


def squarefree_status_walk(n: int, bound: int) -> Optional[bool]:
    """``counting._squarefree_status`` by a walk that stops at the first
    square factor: True/False when decided by trial division to the bound,
    None otherwise."""
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


def rho_p2_walk(form: Sequence[int], p: int) -> int:
    """#{(a, b) mod p^2 : F(a, b) == 0 mod p^2} for F(u, v) =
    sum(form[i] u^(m-i) v^i), by trying all p^4 residue pairs."""
    m = len(form) - 1
    p2 = p * p
    reduced = [c % p2 for c in form]
    rho = 0
    for a in range(p2):
        row = [reduced[i] * pow(a, m - i, p2) % p2 for i in range(m + 1)]
        for b in range(p2):
            acc = 0
            for c in reversed(row):  # F(a, b) = sum(row[i] * b^i), by Horner
                acc = (acc * b + c) % p2
            if acc == 0:
                rho += 1
    return rho


def squarefree_kernel_walk(n: int, trial_bound: int) -> tuple[int, str, int]:
    """``counting.squarefree_kernel`` on ``factor_trial_walk``."""
    exponents, cofactor = factor_trial_walk(n, trial_bound)
    kernel = math.prod(p for p, e in exponents.items() if e % 2)
    if n < 0:
        kernel = -kernel
    if cofactor == 1 or is_square(cofactor):
        return kernel, KERNEL_COMPLETE, 1
    return kernel, KERNEL_PARTIAL, cofactor


def specialize_fraction(family, u: int, v: int) -> tuple[Poly, Fraction]:
    """(spec, lam): P(x, u/v) = lam * spec with spec primitive integral and
    positive lead, evaluated in Fraction arithmetic."""
    if v == 0:
        raise ValueError("v must be nonzero")
    if math.gcd(u, v) != 1:
        raise ValueError(f"({u}, {v}) is not a coprime pair")
    value = family.P.eval_t(Fraction(u, v))
    if not value:
        raise ValueError("specialization vanished identically")
    # the content: the gcd of the numerators over the lcm of the denominators
    content = Fraction(
        math.gcd(*(c.numerator for c in value.coeffs)),
        math.lcm(*(c.denominator for c in value.coeffs)),
    )
    spec = Poly([c / content for c in value.coeffs])
    if spec.lead < 0:
        spec = -spec
    return spec, value.lead / spec.lead


def verify_new_point_fraction(p_spec: Poly, family, u: int, v: int) -> bool:
    """F^2 - f*G^2 == 0 modulo p_spec, evaluated in Fraction arithmetic."""
    if p_spec.degree < 1:
        raise ValueError("specialized polynomial must have degree >= 1")
    t0 = Fraction(u, v)
    fnum = family.point_num.eval_t(t0)
    fden = family.point_den.eval_t(t0)
    expr = fnum * fnum - family.model.f * fden * fden
    return not reduce_mod(expr, p_spec)


def simple_factor_fraction(h: Poly) -> Optional[Poly]:
    """The first multiplicity-one factor of the Yun split of h over Q, with
    t divided out once, if it keeps degree >= 1."""
    for factor, mult in squarefree_decompose(h):
        if mult != 1:
            continue
        if factor.coeff(0) == 0:
            factor = factor // Poly([0, 1])
        if factor.degree >= 1:
            return factor
    return None


def disc_form_fraction(family) -> DiscriminantForm:
    """``disc_form`` in Fraction arithmetic: Disc_t = discriminant_in_t(P)
    taken apart as a rational polynomial and evaluated by rational Horner
    on the grid {k/64 : |k| <= 64}, stopping once both signs are seen."""
    d = family.d
    disc = discriminant_in_t(family.P)
    power = 0 if d == 3 else 2 * d - 8
    h_raw = Poly(disc.coeffs[power:])
    h = h_raw.monic()
    simple = simple_factor_fraction(h)
    pos = neg = False
    for k in range(-SIGN_GRID_DENOMINATOR, SIGN_GRID_DENOMINATOR + 1):
        value = disc(Fraction(k, SIGN_GRID_DENOMINATOR))
        pos, neg = pos or value > 0, neg or value < 0
        if pos and neg:
            break
    return DiscriminantForm(power, h, h_raw.lead, h.degree, simple, pos, neg)


def compose_linear(f: Poly, a, b) -> Poly:
    """f(a*x + b), by Horner's rule over Q."""
    lin = Poly([b, a])
    acc = Poly()
    for c in reversed(f.coeffs):
        acc = acc * lin + Poly([c])
    return acc


def build_model_fraction(
    curve: tuple[int, int],
    shift_target: int,
    alpha: Fraction | int,
    epsilon: Fraction | int,
    d: int,
    force_cubic_mod: Optional[int] = None,
) -> WeierstrassModel:
    """``family.build_model`` in Fraction arithmetic: Poly evaluation in the
    p2 root search, and Fraction substitutions x -> a*x + b
    (``compose_linear``) for the shift, the p3 and the p1-power rescales,
    each k checked by ``verify_model_fraction`` on a Fraction model.

    p2 is searched among the admissible primes up to ``MAX_PRIME`` (1000)
    and the rescale exponent k up to ``MAX_K`` (400), both read off
    ``sdtwists.family`` at the call; ValueError when either search comes up
    empty.

    ``force_cubic_mod`` additionally demands f == x^3 modulo that integer
    (used to pin the discriminant class against a conductor); it requires
    shift_target = 0 and alpha = 0.
    """
    a, b = curve
    alpha = Fraction(alpha)
    epsilon = Fraction(epsilon)
    if d < 3:
        raise ValueError("degree must be at least 3")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if force_cubic_mod is not None:
        if force_cubic_mod < 2:
            raise ValueError("forced modulus must be >= 2")
        if shift_target != 0 or alpha != 0:
            raise ValueError("forced cubic congruence needs shift_target = 0 and alpha = 0")
    excluded = _exclusion_base(a, b, d, force_cubic_mod)
    g = Poly([b, a, 0, 1])
    gp = g.derivative()

    # p2 and a simple root of g mod p2, lifted so v_p2(g(r)) = 1.
    p2 = r = None
    for p in _admissible_primes(excluded):
        if p > sdtwists.family.MAX_PRIME:
            raise ValueError(
                f"no admissible p2 with a simple root below {sdtwists.family.MAX_PRIME} "
                f"(curve {curve}, d={d})"
            )
        for r0 in range(p):
            if g(r0) % p == 0 and gp(r0) % p != 0:
                p2, r = p, r0
                break
        if p2:
            break
    assert p2 is not None and r is not None
    for j in range(4):
        cand = r + j * p2
        val = g(cand)
        if val != 0 and valuation_int(int(val), p2) == 1:
            r = cand
            break
    else:
        raise ValueError(f"could not lift the root {r} mod {p2} to exact divisibility")

    f_cur = compose_linear(g, 1, r)  # (x + r)^3 + a(x + r) + b

    if force_cubic_mod:
        n = force_cubic_mod
        f_cur = compose_linear(f_cur, Fraction(1, n**2), 0).scale(n**6)

    # p3 congruence step: x -> (x + s)/p3^2, rescaled by p3^6.
    gen = _admissible_primes(excluded * p2)
    p3 = next(gen)
    if shift_target:
        p2bar = pow(p2, -1, p3**2)
        s = shift_target * p2**2 * p2bar**2
    else:
        s = 0
    f_cur = compose_linear(f_cur, Fraction(1, p3**2), Fraction(s, p3**2)).scale(p3**6)
    if not f_cur.is_integral():
        raise AssertionError("p3 rescale left non-integral coefficients")

    gen = _admissible_primes(excluded * p2 * p3)
    p1 = next(gen)

    # u in Z[1/p1], divisible by p2^2 p3, with u^i within epsilon/4 of alpha^i.
    quarter = epsilon / 4
    if alpha == 0:
        u = Fraction(0)
    else:
        base = p2**2 * p3
        u = None
        for j in range(1, 500):
            scale = Fraction(p1) ** j
            m = math.floor(alpha * scale / base + Fraction(1, 2))
            cand = Fraction(m * base, p1**j)
            if all(abs(cand**i - alpha**i) < quarter for i in (1, 2, 3)):
                u = cand
                break
        if u is None:
            raise ValueError("could not approximate alpha inside Z[1/p1]")

    k_step = multiplicative_order(p1 * p1 % p3, p3) if shift_target else 1
    for k in range(k_step, sdtwists.family.MAX_K + 1, k_step):
        q = Fraction(1, p1 ** (2 * k))
        f_try = compose_linear(f_cur, p1 ** (2 * k), p1 ** (2 * k) * u).scale(q**3)
        model = WeierstrassModel(
            B=f_try.coeff(2),
            C=f_try.coeff(1),
            D=f_try.coeff(0),
            p1=p1,
            p2=p2,
            p3=p3,
            shift_target=shift_target,
            alpha=alpha,
            epsilon=epsilon,
            forced_modulus=force_cubic_mod,
        )
        if verify_model_fraction(model).all_ok():
            return model
    raise ValueError(
        f"no admissible rescale exponent k <= {sdtwists.family.MAX_K} met the epsilon box "
        f"(curve {curve}, d={d}, epsilon={epsilon})"
    )


def verify_model_fraction(model: WeierstrassModel) -> ModelCheck:
    """``family.verify_model`` on the model's Fraction coefficients."""
    p1, p2, p3 = model.p1, model.p2, model.p3
    denoms_ok = True
    for c in (model.B, model.C, model.D):
        den = c.denominator
        while den % p1 == 0:
            den //= p1
        if den != 1:
            denoms_ok = False

    div_ok = valuation(model.D, p2) == 1 and valuation(model.C, p2) == 0

    a0 = model.shift_target
    target = Poly([a0, 1]) ** 3
    diff = model.f - target
    cubic_ok = _zero_mod_fraction(diff, p3)

    al, eps = model.alpha, model.epsilon
    box_ok = (
        abs(model.B - 3 * al) < eps
        and abs(model.C - 3 * al**2) < eps
        and abs(model.D - al**3) < eps
    )

    forced_ok = None
    if model.forced_modulus:
        forced_ok = _zero_mod_fraction(Poly([model.D, model.C, model.B]), model.forced_modulus)

    return ModelCheck(denoms_ok, div_ok, cubic_ok, box_ok, forced_ok)


def _zero_mod_fraction(f: Poly, n: int) -> bool:
    """Whether every coefficient of f is 0 mod n (False if one is not n-integral)."""
    try:
        return not reduce_poly_mod(f, n)
    except ValueError:
        return False


def good_prime_walk(g: Poly, budget: int) -> list[tuple[int, CycleType]]:
    """(p, cycle type of Frobenius) at the first ``budget`` good primes of g,
    each found by reducing g mod p, among as many primes as the scan's cap
    allows."""
    cap = max(galois._SCAN_CAP_MIN, galois._SCAN_CAP_FACTOR * budget)
    walk = []
    for p in islice(primes(), cap):
        ct = frobenius_cycle_type(g, p)
        if ct is not None:
            walk.append((p, ct))
            if len(walk) == budget:
                break
    return walk


def single_cycle_power(ct: CycleType, n: int) -> bool:
    """Whether some power of a permutation of cycle type ``ct`` is a single
    n-cycle, n >= 2: a k-th power splits a cycle of length m into gcd(m, k)
    cycles of length m / gcd(m, k), tried for every k up to the order."""
    for k in range(1, math.lcm(*ct.parts) + 1):
        moved = [m // math.gcd(m, k) for m in ct.parts for _ in range(math.gcd(m, k))]
        if [m for m in moved if m > 1] == [n]:
            return True
    return False


def permutation_type(perm: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of a permutation of range(len(perm)), descending."""
    seen, parts = set(), []
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


@functools.lru_cache(maxsize=None)
def wreath_types(b: int, k: int) -> frozenset[tuple[int, ...]]:
    """Cycle types of every element of S_b wr S_k, enumerated as explicit
    permutations of k blocks of b points: point j of block i goes to point
    sigma_i(j) of block pi(i)."""
    return frozenset(
        permutation_type([pi[i] * b + sigma[i][j] for i in range(k) for j in range(b)])
        for pi in permutations(range(k))
        for sigma in product(permutations(range(b)), repeat=k)
    )


def lattice(types, d: int) -> set[int]:
    """The factor degrees over Q that every one of these patterns allows."""
    possible = set(range(d + 1))
    for ct in types:
        sums = {0}
        for part in ct.parts:
            sums |= {s + part for s in sums}
        possible &= sums
    return possible


def meets_sd_criterion(
    d: int, types: set[CycleType], disc_square: bool, witness: Optional[int]
) -> bool:
    """The S_d criterion on facts read off a good-prime walk, d >= 2:
    irreducibility from the walk's own subset sums, and then d = 2, or d = 3
    with a nonsquare discriminant, or a transposition, from a cycle type or
    the witness, and primitivity: for every divisor 1 < b < d of d some type
    that no element of the enumerated S_b wr S_(d/b) has."""
    if lattice(types, d) != {0, d}:
        return False
    if d == 2 or (d == 3 and not disc_square):
        return True
    primitive = all(
        any(ct.parts not in wreath_types(b, d // b) for ct in types)
        for b in range(2, d) if d % b == 0
    )
    return primitive and (witness is not None or any(single_cycle_power(ct, 2) for ct in types))


def irreducibility_route(walk: list[tuple[int, CycleType]], d: int):
    """(status, route) of the irreducibility a good-prime walk proves."""
    if any(ct.parts == (d,) for _, ct in walk):
        return galois.CERTIFIED, "mod-p"
    if walk and lattice([ct for _, ct in walk], d) == {0, d}:
        return galois.CERTIFIED, "degree-lattice"
    return galois.INCONCLUSIVE, None


def walk_evidence(
    f: Poly, budget: int, trial_bound: int, stop: bool = True
) -> galois.GaloisEvidence:
    """``collect_evidence(f, deg f, budget, trial_bound=trial_bound)``
    without polygon primes, from a full good-prime walk and the witness
    walk; with ``stop``, the walk is cut at its shortest prefix that meets
    ``meets_sd_criterion``, and the irreducibility route is that prefix's."""
    g = _normalize_factor(f)
    d = g.degree
    disc = discriminant(g).numerator
    disc_square = disc >= 0 and math.isqrt(disc) ** 2 == disc
    walk = good_prime_walk(g, budget)
    irreducibility, _ = irreducibility_route(walk, d)
    cubic_shortcut = d == 3 and not disc_square
    witness = None
    if irreducibility == galois.CERTIFIED and not cubic_shortcut:
        witness = witness_walk(g, trial_bound)
    if stop:
        walk = next(
            (walk[:k] for k in range(1, len(walk) + 1)
             if meets_sd_criterion(d, {ct for _, ct in walk[:k]}, disc_square, witness)),
            walk,
        )
    irreducibility, route = irreducibility_route(walk, d)
    provenance = [("frobenius_cycle_type", p, str(ct)) for p, ct in walk]
    if witness is not None:
        provenance.append(("transposition_witness", witness, "v_p(disc)=1"))
    return galois.GaloisEvidence(
        degree=d,
        observed_cycle_types=frozenset(ct for _, ct in walk),
        transposition_prime=witness,
        irreducibility=irreducibility,
        irreducibility_route=route,
        disc_is_square=disc_square if disc else True,
        provenance=tuple(provenance),
    )


def reference_candidate(family, u, v, budgets, modulus=None) -> FieldCandidate:
    """One sweep record from the Fraction references, the subresultant
    discriminant, ``walk_evidence`` and the prime walks above for the
    kernel."""
    if budgets.polygon_primes:
        raise ValueError("the reference walk takes no polygon primes")
    poly, _ = specialize_fraction(family, u, v)
    disc = int(discriminant(poly)) if poly.degree >= 1 else 0
    point_ok = poly.degree >= 1 and verify_new_point_fraction(poly, family, u, v)
    if disc == 0 or poly.degree != family.d:
        evidence = galois.GaloisEvidence(
            degree=max(poly.degree, 2),
            observed_cycle_types=frozenset(),
            transposition_prime=None,
            irreducibility=galois.INCONCLUSIVE,
            irreducibility_route=None,
            disc_is_square=True,
        )
    else:
        evidence = walk_evidence(poly, budgets.prime_budget, budgets.trial_bound)
    cert = galois.certify_sd(evidence)
    if disc == 0:
        kernel, flag, cofactor = 0, KERNEL_ZERO, 0
    else:
        kernel, flag, cofactor = squarefree_kernel_walk(disc, budgets.kernel_bound)
    return FieldCandidate(
        u=u, v=v, poly=poly, disc=disc, disc_sign=(disc > 0) - (disc < 0),
        kernel=kernel, kernel_flag=flag, kernel_cofactor=cofactor,
        certificate=cert, point_verified=point_ok,
        residue_class=(u % modulus, v % modulus) if modulus else None,
    )


def det_exact(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination with pivoting."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def sylvester_resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) as the determinant of the Sylvester matrix."""
    n, m = f.degree, g.degree
    size = n + m
    if size == 0:
        return Fraction(1)
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([Fraction(0)] * i + fd + [Fraction(0)] * (m - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + gd + [Fraction(0)] * (n - 1 - i))
    return det_exact(rows)


def lagrange_interpolate(points: list[tuple[Fraction, Fraction]]) -> Poly:
    total = Poly()
    for i, (xi, yi) in enumerate(points):
        basis = Poly([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = basis * Poly([-xj, 1]).scale(1 / (xi - xj))
        total = total + basis
    return total


def interpolated_disc_in_t(p: BivarPoly, extra: int = 3) -> Poly:
    """Disc_x of p as a polynomial in t via specialization and interpolation."""
    degree_bound = (2 * p.degree - 1) * max(c.degree for c in p.xcoeffs if c) + 1
    pts = []
    t0 = 0
    while len(pts) < degree_bound + extra:
        t0 += 1
        for cand in (Fraction(t0), Fraction(-t0)):
            spec = p.eval_t(cand)
            if spec.degree == p.degree:
                pts.append((cand, discriminant(spec)))
            if len(pts) >= degree_bound + extra:
                break
    return lagrange_interpolate(pts)


def modp_all_monic(degree: int, p: int):
    """All monic coefficient vectors (constant first) of the given degree."""
    if degree == 0:
        yield [1]
        return
    counters = [0] * degree
    while True:
        yield counters + [1]
        i = 0
        while i < degree:
            counters[i] += 1
            if counters[i] < p:
                break
            counters[i] = 0
            i += 1
        else:
            break


def modp_is_zero_poly(a):
    return all(c == 0 for c in a)


def modp_divides(a, b, p) -> bool:
    """Whether a divides b in F_p[x] (a monic)."""
    b = list(b)
    da = len(a) - 1
    while len(b) - 1 >= da and not modp_is_zero_poly(b):
        c = b[-1]
        k = len(b) - 1 - da
        for j, ca in enumerate(a):
            b[j + k] = (b[j + k] - c * ca) % p
        while b and b[-1] == 0:
            b.pop()
    return modp_is_zero_poly(b) or not b


@functools.lru_cache(maxsize=None)
def modp_irreducibles(max_degree: int, p: int) -> tuple[list[int], ...]:
    """Monic irreducibles of degree <= max_degree, by sieving trial division,
    built once per (max_degree, p)."""
    irr: list[list[int]] = []
    for deg in range(1, max_degree + 1):
        for cand in modp_all_monic(deg, p):
            if not any(
                modp_divides(q, cand, p) for q in irr if len(q) - 1 <= deg // 2
            ):
                irr.append(cand)
    return tuple(irr)


def modp_factor_degrees(fbar: list[int], p: int) -> list[int]:
    """Multiset of irreducible factor degrees by exhaustive trial division.

    Divides out every irreducible of degree <= deg/2; whatever survives with
    positive degree admits no small factor and is itself irreducible.
    """
    f = [c % p for c in fbar]
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    out = []
    for q in modp_irreducibles((len(f) - 1) // 2, p):
        while len(f) - 1 >= len(q) - 1 and modp_divides(q, f, p):
            out.append(len(q) - 1)
            f = _modp_quotient(f, q, p)
            if len(f) - 1 == 0:
                break
    if len(f) - 1 > 0:
        out.append(len(f) - 1)
    return sorted(out)


def modp2_pair_count(f: list[int], p: int) -> int:
    """The number of conjugate pairs of roots of f in F_(p^2) outside F_p,
    by evaluating f at every element a + b*t, b != 0, of F_p[t]/(q), q the
    first quadratic of ``modp_irreducibles``: for a squarefree f, the
    number of its irreducible quadratic factors."""
    q0, q1, _ = next(g for g in modp_irreducibles(2, p) if len(g) == 3)  # t^2 = -q1 t - q0
    zeros = 0
    for a in range(p):
        for b in range(1, p):
            u = v = 0  # f(a + b t) = u + v t, by Horner
            for c in reversed(f):
                top = v * b
                u, v = (u * a - top * q0 + c) % p, (u * b + v * a - top * q1) % p
            zeros += u == v == 0
    return zeros // 2


def _modp_quotient(b, a, p):
    b = list(b)
    da = len(a) - 1
    out = [0] * (len(b) - da)
    while len(b) - 1 >= da:
        c = b[-1]
        k = len(b) - 1 - da
        out[k] = c
        for j, ca in enumerate(a):
            b[j + k] = (b[j + k] - c * ca) % p
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
    return out


def modp_rem(a: list[int], g: list[int], p: int) -> list[int]:
    """a mod (g, p) for monic g, as deg g coefficients in [0, p)."""
    a = [c % p for c in a]
    n = len(g) - 1
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top]
        for j, gj in enumerate(g):
            a[top - n + j] = (a[top - n + j] - c * gj) % p
    return (a + [0] * n)[:n]


def modp_mulmod(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    """a * b mod (g, p): the schoolbook product, then the remainder."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return modp_rem(prod, g, p)


def modp_powmod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    """a^e mod (g, p) by right-to-left binary powering."""
    out, base = modp_rem([1], g, p), modp_rem(a, g, p)
    while e:
        if e & 1:
            out = modp_mulmod(out, base, g, p)
        base = modp_mulmod(base, base, g, p)
        e >>= 1
    return out


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion (odd prime p)."""
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


def long_division_remainder(f: Poly, g: Poly) -> Poly:
    """Plain schoolbook remainder, written independently of divmod."""
    rem = list(f.coeffs)
    dg = g.degree
    while len(rem) - 1 >= dg and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < dg:
            break
        factor = rem[-1] / g.lead
        shift = len(rem) - 1 - dg
        for i, c in enumerate(g.coeffs):
            rem[i + shift] -= factor * c
        rem.pop()
    return Poly(rem)


def sampled_density_counts(
    form: Sequence[int], box: int, congruence: tuple[int, int, int], samples: int, seed: int,
    bound: int,
) -> tuple[int, int, int]:
    """(sampled, squarefree, undecided) of ``counting.greaves_density`` in
    its sampled mode: each coordinate drawn as c0 + M * randint(lo, hi), for
    lo and hi the least and largest j with c0 + M * j in [-box, box], and
    each value F(u, v) = sum(form[i] u^(m-i) v^i) settled by
    ``squarefree_status_walk``."""
    u0, v0, mod = congruence
    m = len(form) - 1
    rng = random.Random(seed)
    squarefree = undecided = 0
    for _ in range(samples):
        u, v = (c0 + mod * rng.randint(-((box + c0) // mod), (box - c0) // mod) for c0 in (u0, v0))
        status = squarefree_status_walk(sum(c * u ** (m - i) * v**i for i, c in enumerate(form)), bound)
        squarefree += status is True
        undecided += status is None
    return samples, squarefree, undecided
