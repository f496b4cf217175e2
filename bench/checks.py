"""Oracle checks on the benchmark's output, run outside the timed region.

None of them reuses the code under test:

* discriminants from ``sympy.discriminant`` on a seeded sample;
* Galois groups from ``sympy``'s ``galois_group`` (d <= 6) on a seeded
  sample of certified candidates, which must have order d!;
* every counted class: |disc| / |kernel| is a perfect square, the signs
  agree, and the kernel is squarefree (trial division here, then sympy);
* sweeps cover every t = u/v of their box;
* on a seeded sample of sweep candidates, the polynomial is P(x, u/v) up to
  a constant, and y = F/G satisfies y^2 = f(x) modulo it exactly when the
  program says the point is verified (sympy remainders);
* EV instances: H = F^2 - f G^2 recomputed on plain coefficient lists;
* a smaller sweep unit covers its box and agrees with the count pass on
  every pair, and counts each polynomial with the count pass's kernel.

Each check returns the number of items it rejected and appends a message per
rejection to ``errors``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy
from sympy.polys.numberfields.galoisgroups import galois_group

from sdtwists import discriminant

import workloads as wl

DISC_SAMPLE = 40
GALOIS_SAMPLE = 8
POINT_SAMPLE = 20
_X = sympy.Symbol("x")
_SMALL_PRIMES = [p for p in range(2, 10_000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _sympy_poly(coeffs) -> sympy.Poly:
    """sympy polynomial from low-to-high Fraction coefficients."""
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], _X, domain="QQ"
    )


def _fail(errors: list[str], message: str) -> int:
    if len(errors) < 20:
        errors.append(message)
    return 1


def check_discriminants(rng: random.Random, polys, program_disc, errors: list[str]) -> int:
    """Compare ``program_disc(poly)`` with sympy on a sample of polys."""
    bad = 0
    for poly in rng.sample(polys, min(DISC_SAMPLE, len(polys))):
        disc = program_disc(poly)
        expected = sympy.discriminant(_sympy_poly(poly.coeffs))
        if Fraction(int(expected.p), int(expected.q)) != disc:
            bad += _fail(errors, f"discriminant of {poly} is {expected}, program says {disc}")
    return bad


def check_galois_groups(rng: random.Random, polys, errors: list[str]) -> int:
    """polys: certified S_d polynomials of degree <= 6."""
    bad = 0
    for poly in rng.sample(polys, min(GALOIS_SAMPLE, len(polys))):
        group, _alt = galois_group(_sympy_poly(poly.coeffs))
        if group.order() != math.factorial(poly.degree):
            bad += _fail(errors, f"Galois group of {poly} has order {group.order()}")
    return bad


def _squarefree(n: int) -> bool:
    m = abs(n)
    for p in _SMALL_PRIMES:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
    if m == 1 or sympy.isprime(m):
        return True
    return all(e == 1 for e in sympy.factorint(m).values())


def check_classes(groups: dict, errors: list[str]) -> int:
    """groups: kernel -> counted candidates with that kernel."""
    bad = 0
    for kernel, members in groups.items():
        if kernel == 0 or not _squarefree(kernel):
            bad += _fail(errors, f"kernel {kernel} is not squarefree")
            continue
        for cand in members:
            quotient, rest = divmod(cand.disc, kernel)
            if rest or quotient <= 0 or math.isqrt(quotient) ** 2 != quotient:
                bad += _fail(errors, f"disc {cand.disc} is not {kernel} times a square")
    return bad


def check_box(results, errors: list[str]) -> int:
    """Every t = u/v of the box is swept; for d >= 4, where P depends on t^2
    only, every |t|."""
    bad = 0
    for res in results:
        d = res.job.family.d

        def key(u, v):
            t = Fraction(u, v)
            return t if d == 3 else abs(t)

        swept = {key(c.u, c.v) for c in res.candidates}
        if swept != {key(u, v) for u, v in wl.coprime_pairs(res.job.box)}:
            bad += _fail(errors, f"sweep at d={d} does not cover its box")
    return bad


def _at_t(biv, t: Fraction) -> sympy.Poly:
    """A polynomial in x and t at the given t, as a polynomial in x."""
    coeffs = []
    for tpoly in biv.xcoeffs:
        acc = Fraction(0)
        for c in reversed(tpoly.coeffs):
            acc = acc * t + c
        coeffs.append(acc)
    return _sympy_poly(coeffs)


def check_points(rng: random.Random, results, errors: list[str]) -> int:
    bad = 0
    for res in results:
        family = res.job.family
        f = _sympy_poly(family.model.f.coeffs)
        for cand in rng.sample(res.candidates, min(POINT_SAMPLE, len(res.candidates))):
            t = Fraction(cand.u, cand.v)
            spec, poly = _at_t(family.P, t), _sympy_poly(cand.poly.coeffs)
            if spec * poly.LC() != poly * spec.LC():
                bad += _fail(errors, f"candidate at t={t} is not P(x, t) up to a constant")
                continue
            num, den = _at_t(family.point_num, t), _at_t(family.point_den, t)
            if (num**2 - f * den**2).rem(poly).is_zero != cand.point_verified:
                bad += _fail(errors, f"point check at t={t} disagrees with sympy")
    return bad


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(a: list) -> tuple:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def check_ev_identity(model, instances, errors: list[str]) -> int:
    f = [model.D, model.C, model.B, Fraction(1)]
    bad = 0
    for inst in instances:
        F, G = list(inst.F.coeffs), list(inst.G.coeffs)
        ff, fgg = _mul(F, F), _mul(f, _mul(G, G))
        size = max(len(ff), len(fgg))
        ff += [Fraction(0)] * (size - len(ff))
        fgg += [Fraction(0)] * (size - len(fgg))
        if _trim(x - y for x, y in zip(ff, fgg)) != inst.H.coeffs:
            bad += _fail(errors, f"H != F^2 - f G^2 for F={inst.F}, G={inst.G}")
    return bad


def check_sweeps(rng: random.Random, results, errors: list[str]) -> int:
    """All oracle checks on the sweeps of a count pass."""
    distinct = {c.poly: c for res in results for c in res.candidates}
    cands = list(distinct.values())
    bad = check_box(results, errors)
    bad += check_points(rng, results, errors)
    discs = {c.poly: c.disc for c in cands}
    bad += check_discriminants(rng, list(discs), discs.__getitem__, errors)
    certified = [c.poly for c in cands if c.eligible and c.poly.degree <= 6]
    bad += check_galois_groups(rng, certified, errors)
    for res in results:
        bad += check_classes(res.dedup.groups, errors)
    return bad


def check_sweep_unit(unit, count, errors: list[str]) -> int:
    """A unit's sweeps against the count-pass sweeps of the same families,
    whose boxes contain the unit's."""
    bad = 0
    for small, full in zip(unit, count):
        by_pair = {(c.u, c.v): c for c in full.candidates}
        if [(c.u, c.v) for c in small.candidates] != wl.coprime_pairs(small.job.box):
            bad += _fail(errors, f"unit sweep at d={small.job.family.d} does not cover its box")
        for cand in small.candidates:
            if by_pair.get((cand.u, cand.v)) != cand:
                message = f"unit candidate at ({cand.u}, {cand.v}) differs from the count pass"
                bad += _fail(errors, message)
        kernels = {c.poly: kernel for kernel, members in full.dedup.groups.items() for c in members}
        for kernel, members in small.dedup.groups.items():
            for cand in members:
                if kernels.get(cand.poly) != kernel:
                    bad += _fail(errors, f"unit counts {cand.poly} with kernel {kernel}")
    return bad


def check_ev(rng: random.Random, model, instances, errors: list[str]) -> int:
    """All oracle checks on a list of EV instances."""
    bad = check_ev_identity(model, instances, errors)
    bad += check_discriminants(rng, [inst.H for inst in instances], discriminant, errors)
    certified = [i.H for i in instances if i.certificate and i.certificate.certified]
    bad += check_galois_groups(rng, certified, errors)
    return bad
