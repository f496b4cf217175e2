"""Independent oracles for the test suite.

These deliberately avoid the code paths they check: the Sylvester
determinant is expanded by exact Gaussian elimination instead of the
subresultant sequence, bivariate discriminants come from specialization
plus Lagrange interpolation, mod-p factorizations are found by exhaustive
trial division over all monic polynomials, and specializations, point
checks and whole sweep candidates are computed in ``Fraction`` arithmetic
from P itself, with the public galois entry points, instead of from the
integer forms a sweep uses.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sdtwists import galois
from sdtwists.counting import KERNEL_ZERO, FieldCandidate, squarefree_kernel
from sdtwists.polyarith import BivarPoly, Poly, discriminant, reduce_mod


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
    spec = value.primitive()
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


def reference_candidate(family, u, v, budgets, modulus=None) -> FieldCandidate:
    """One sweep record from the Fraction references, the subresultant
    discriminant and the public ``collect_evidence`` (no cycle-type table)."""
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
        cert = galois.SdCertificate(galois.INCONCLUSIVE, evidence)
    else:
        evidence = galois.collect_evidence(
            poly, family.d, budgets.prime_budget,
            polygon_primes=budgets.polygon_primes, trial_bound=budgets.trial_bound,
        )
        cert = galois.certify_sd(evidence)
    if disc == 0:
        kernel, flag, cofactor = 0, KERNEL_ZERO, 0
    else:
        kernel, flag, cofactor = squarefree_kernel(disc, budgets.kernel_bound)
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


def modp_irreducibles(max_degree: int, p: int) -> list[list[int]]:
    """Monic irreducibles of degree <= max_degree, by sieving trial division."""
    irr: list[list[int]] = []
    for deg in range(1, max_degree + 1):
        for cand in modp_all_monic(deg, p):
            if not any(
                modp_divides(q, cand, p) for q in irr if len(q) - 1 <= deg // 2
            ):
                irr.append(cand)
    return irr


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
