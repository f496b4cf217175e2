"""Symmetric-group certification from cycle types and discriminant witnesses.

A certificate is sound by construction: ``certified_Sd`` is emitted only
when the group-theoretic criterion is met by verified facts, namely

  * the polynomial is certifiably irreducible over Q (transitivity),
  * the group contains a d-cycle,
  * the group contains a transposition, and
  * it contains a (d-1)-cycle, or d >= 5 is odd and it contains a
    (d-2)-cycle;

and then the group is all of S_d.  For d = 3, irreducible with nonsquare
discriminant is an accepted alternate route, and an irreducible quadratic
is S_2 outright.  Everything else is reported ``inconclusive``; there is no
"probably" state.

Irreducibility never factors over Q.  It is certified from reductions mod
good primes (an irreducible reduction, or factor-degree subset sums whose
intersection over the sampled primes is {0, d}) or from a totally ramified
Newton polygon.

The good-prime scan follows the Frobenius sieve behind Hilbert
irreducibility (S. D. Cohen, Proc. LMS 1981; J.-P. Serre, *Topics in Galois
Theory*, ch. 3).  For the primitive integral polynomials it works on, p is
good exactly when p divides neither the leading coefficient nor the exact
discriminant, since disc(g mod p) = disc(g) mod p; a bad prime therefore
costs one integer remainder, and only good primes are reduced and factored
by distinct-degree factorization.  A sweep hands the scan a lookup instead
(``IntegerFamily.cycle_type``): at a good prime p not dividing v (nor the
cleared denominator of P) the cycle type of a specialization P(x, u/v)
depends on t = u/v mod p alone, so it is read off a table keyed by t mod p
and factored only for the first pair with that key.

Transpositions come from a prime p, not dividing the leading coefficient,
with v_p(disc) = 1 exactly, or from an observed cycle type an odd power of
which is a single transposition (one even part, equal to 2).

Each polynomial's discriminant is computed once and serves the good-prime
scan, the square test and the witness search.  The public entry points
compute it themselves from the polynomial they are given; a sweep, which has
already computed it for the report, hands it to the private helpers, so the
value a certificate rests on is always the discriminant of that polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Sequence

from . import padic
from .padic import CycleType
from .polyarith import Poly, _normalize_factor, discriminant
from .primes import PROOF_BOUND, is_prime, is_square, iter_primes_up_to, primes, valuation_int

# cycle_type(coeffs, p) of Frobenius at a good prime p for the integer
# polynomial coeffs, as ``padic.good_prime_cycle_type`` computes it.
CycleLookup = Callable[[list[int], int], CycleType]

# Stop scanning for good primes after this many total candidates; only
# degenerate inputs (e.g. squarefull polynomials, where every prime is bad)
# ever reach the cap.
_SCAN_CAP_FACTOR = 25
_SCAN_CAP_MIN = 400

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"
CERTIFIED_SD = "certified_Sd"


@dataclass(frozen=True)
class GaloisEvidence:
    degree: int
    observed_cycle_types: frozenset[CycleType]
    transposition_prime: Optional[int]
    irreducibility: str  # CERTIFIED | INCONCLUSIVE
    irreducibility_route: Optional[str]  # "mod-p" | "degree-lattice" | "newton-polygon"
    disc_is_square: Optional[bool]
    provenance: tuple[tuple[str, int, str], ...] = ()

    def __post_init__(self):
        for ct in self.observed_cycle_types:
            if ct.degree != self.degree:
                raise ValueError(f"cycle type {ct} does not sum to degree {self.degree}")


@dataclass(frozen=True)
class SdCertificate:
    status: str  # CERTIFIED_SD | INCONCLUSIVE
    evidence: GaloisEvidence
    route: Optional[str] = None  # "standard" | "cubic-disc" | "quadratic"

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED_SD


def contains_n_cycle(types: Sequence[CycleType], n: int) -> bool:
    """Whether some power of an element of one of these cycle types is a
    single n-cycle: a part equal to n whose complementary parts have lcm
    coprime to n (raise to that lcm)."""
    for ct in types:
        parts = list(ct.parts)
        if n not in parts:
            continue
        rest = list(parts)
        rest.remove(n)
        l = math.lcm(*rest) if rest else 1
        if math.gcd(l, n) == 1:
            return True
    return False


def _good_prime_scan(
    g: Poly, disc: Fraction, budget: int, lookup: Optional[CycleLookup] = None
) -> list[tuple[int, CycleType]]:
    """Cycle types of primitive integral g at its first `budget` good primes.

    disc = disc(g).  A prime is good exactly when it divides neither lc(g)
    nor disc(g): the reduction then keeps its degree and has discriminant
    disc(g) mod p != 0, so it is squarefree.  Bad primes are skipped without
    consuming budget, up to a hard cap; when disc(g) = 0 every prime is bad.
    Good primes get their cycle type from ``lookup`` when one is given, and
    from distinct-degree factorization of g mod p otherwise.
    """
    if disc == 0:
        return []
    cycle_type = lookup or padic.good_prime_cycle_type
    coeffs = [c.numerator for c in g.coeffs]
    bad = coeffs[-1] * disc.numerator  # p | bad  <=>  p | lc(g) or p | disc(g)
    found: list[tuple[int, CycleType]] = []
    cap = max(_SCAN_CAP_MIN, _SCAN_CAP_FACTOR * budget)
    for examined, p in enumerate(primes()):
        if len(found) >= budget or examined >= cap:
            break
        if bad % p:
            found.append((p, cycle_type(coeffs, p)))
    return found


def _degree_lattice(patterns: Sequence[CycleType], d: int) -> set[int]:
    """Intersection over patterns of the attainable factor-degree subset sums."""
    possible = set(range(d + 1))
    for ct in patterns:
        sums = {0}
        for part in ct.parts:
            sums |= {s + part for s in sums}
        possible &= sums
    return possible


def _irreducibility(
    g: Poly, disc: Fraction, prime_budget: int, lookup: Optional[CycleLookup] = None
):
    """Good-prime scan of normalized g, disc = disc(g), and the
    irreducibility it proves.

    Returns (scan, status, route): an irreducible reduction proves it
    ("mod-p"), and so do factor-degree patterns whose subset sums meet only
    in {0, d} ("degree-lattice").
    """
    d = g.degree
    scan = _good_prime_scan(g, disc, prime_budget, lookup)
    patterns = [ct for _, ct in scan]
    if any(ct.parts == (d,) for ct in patterns):
        return scan, CERTIFIED, "mod-p"
    if scan and _degree_lattice(patterns, d) == {0, d}:
        return scan, CERTIFIED, "degree-lattice"
    return scan, INCONCLUSIVE, None


def irreducibility_certificate(f: Poly, prime_budget: int) -> str:
    """CERTIFIED when irreducibility over Q is proved within the budget."""
    if f.degree < 2:
        raise ValueError("degree >= 2 required")
    g = _normalize_factor(f)
    _scan, status, _route = _irreducibility(g, discriminant(g), prime_budget)
    return status


def _polygon_totally_ramified(g: Poly, p: int) -> bool:
    if not g.coeff(0):
        return False
    polygon = padic.newton_polygon(g, p)
    if len(polygon.segments) != 1:
        return False
    slope, length = polygon.segments[0]
    return length == g.degree and slope.denominator == g.degree


def transposition_witness(
    f: Poly, trial_bound: int, extra_primes: Sequence[int] = ()
) -> Optional[int]:
    """Smallest prime p, p not dividing lc(f), with v_p(Disc f) = 1.

    Searches primes up to trial_bound and then the supplied extras; absence
    is reported as None, never guessed.  Every extra must be proved prime
    (below ``primes.PROOF_BOUND``), otherwise ValueError.
    """
    g = _normalize_factor(f)
    return _witness(g, discriminant(g), trial_bound, _proved_primes(extra_primes))


def _proved_primes(extra_primes: Sequence[int]) -> tuple[int, ...]:
    """The extras as ints, after proving each one prime; ValueError otherwise."""
    out = tuple(int(p) for p in extra_primes)
    for p in out:
        if p >= PROOF_BOUND or not is_prime(p):
            raise ValueError(f"extra prime {p} is not proved prime")
    return out


def _witness(
    g: Poly, disc: Fraction, trial_bound: int, extra_primes: Sequence[int]
) -> Optional[int]:
    """``transposition_witness`` for normalized g with disc = discriminant(g)
    and extras already proved prime."""
    if disc == 0:
        raise ValueError("discriminant vanishes; no transposition witness exists")
    n = abs(disc.numerator)
    lead = g.lead.numerator
    extras = sorted({p for p in extra_primes if p > trial_bound})
    for p in chain(iter_primes_up_to(trial_bound), extras):
        if p > n:
            break
        if lead % p == 0 or n % p:
            continue
        if valuation_int(n, p) == 1:
            return p
    return None


def collect_evidence(
    f: Poly,
    d: int,
    prime_budget: int,
    polygon_primes: Sequence[int] = (),
    trial_bound: int = 100_000,
    extra_primes: Sequence[int] = (),
    skip_witness_for_cubic: bool = True,
) -> GaloisEvidence:
    """Gather cycle types, irreducibility status and a transposition witness.

    Deterministic for fixed inputs.  The discriminant trial factorization is
    skipped when the d = 3 shortcut (irreducible, nonsquare discriminant)
    already decides the certificate and ``skip_witness_for_cubic`` is set;
    sweeps over many cubics rely on that fast path.
    """
    if f.degree != d:
        raise ValueError(f"degree mismatch: got {f.degree}, expected {d}")
    extras = _proved_primes(extra_primes)
    g = _normalize_factor(f)
    return _evidence(
        g, discriminant(g), prime_budget, polygon_primes, trial_bound, extras,
        skip_witness_for_cubic,
    )


def _evidence(
    g: Poly,
    disc: Fraction,
    prime_budget: int,
    polygon_primes: Sequence[int],
    trial_bound: int,
    extra_primes: Sequence[int] = (),
    skip_witness_for_cubic: bool = True,
    lookup: Optional[CycleLookup] = None,
) -> GaloisEvidence:
    """``collect_evidence`` for normalized g with disc = discriminant(g),
    extras already proved prime, and an optional cycle-type lookup for the
    good-prime scan."""
    d = g.degree
    provenance: list[tuple[str, int, str]] = []
    scan, irred, route = _irreducibility(g, disc, prime_budget, lookup)
    types: set[CycleType] = set()
    for p, ct in scan:
        types.add(ct)
        provenance.append(("frobenius_cycle_type", p, str(ct)))

    for p in polygon_primes:
        if not g.coeff(0):
            break
        polygon = padic.newton_polygon(g, p)
        for ct in padic.cycle_certificate(polygon):
            types.add(ct)
            provenance.append(("cycle_certificate", p, str(ct)))
        if irred == INCONCLUSIVE and _polygon_totally_ramified(g, p):
            irred, route = CERTIFIED, "newton-polygon"
            provenance.append(("irreducibility", p, "totally ramified"))

    disc_square = is_square(disc.numerator) if disc.denominator == 1 else False

    witness = None
    cubic_shortcut = d == 3 and irred == CERTIFIED and not disc_square
    if disc != 0 and irred == CERTIFIED and not (cubic_shortcut and skip_witness_for_cubic):
        witness = _witness(g, disc, trial_bound, extra_primes)
        if witness is not None:
            provenance.append(("transposition_witness", witness, "v_p(disc)=1"))

    return GaloisEvidence(
        degree=d,
        observed_cycle_types=frozenset(types),
        transposition_prime=witness,
        irreducibility=irred,
        irreducibility_route=route,
        disc_is_square=disc_square if disc != 0 else True,
        provenance=tuple(provenance),
    )


def certify_sd(evidence: GaloisEvidence) -> SdCertificate:
    """Decide certified_Sd from verified facts alone."""
    d = evidence.degree
    if d < 2:
        raise ValueError("certification requires degree >= 2")
    types = list(evidence.observed_cycle_types)
    if evidence.irreducibility != CERTIFIED:
        return SdCertificate(INCONCLUSIVE, evidence)

    if d == 2:
        return SdCertificate(CERTIFIED_SD, evidence, route="quadratic")

    if d == 3 and evidence.disc_is_square is False:
        return SdCertificate(CERTIFIED_SD, evidence, route="cubic-disc")

    has_transposition = evidence.transposition_prime is not None or contains_n_cycle(
        types, 2
    )
    has_d_cycle = contains_n_cycle(types, d)
    has_long = contains_n_cycle(types, d - 1) or (
        d >= 5 and d % 2 == 1 and contains_n_cycle(types, d - 2)
    )
    if has_transposition and has_d_cycle and has_long:
        return SdCertificate(CERTIFIED_SD, evidence, route="standard")
    return SdCertificate(INCONCLUSIVE, evidence)
