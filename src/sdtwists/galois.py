"""Symmetric-group certification from cycle types and discriminant witnesses.

A certificate is sound by construction: ``certified_Sd`` is emitted only
when the group-theoretic criterion is met by verified facts, namely

  * the polynomial is certifiably irreducible over Q, so the group G is
    transitive,
  * G contains a transposition, and
  * G is primitive: for every divisor b of d with 1 < b < d, some observed
    cycle type is not the type of any element of the wreath product
    S_b wr S_(d/b), and for prime d transitivity is enough;

and then G is all of S_d by Jordan's theorem (J. D. Dixon and
B. Mortimer, *Permutation Groups*, GTM 163, Thm 3.3A: a primitive group
that contains a transposition is symmetric).  A system of blocks of size b
puts G inside S_b wr S_(d/b), so one observed type outside that group rules
out every such system (``_in_wreath``).  For d = 3, irreducible with
nonsquare discriminant is an accepted alternate route, and an irreducible
quadratic is S_2 outright.  Everything else is reported ``inconclusive``;
there is no "probably" state.

Irreducibility never factors over Q.  It is certified from reductions mod
good primes (an irreducible reduction, or factor-degree subset sums whose
intersection over the sampled primes is {0, d}) or from a totally ramified
Newton polygon.

The good-prime scan follows the Frobenius sieve behind Hilbert
irreducibility (S. D. Cohen, Proc. LMS 1981; J.-P. Serre, *Topics in Galois
Theory*, ch. 3).  For the primitive integral polynomials it works on, p is
good exactly when p divides neither the leading coefficient nor the exact
discriminant, since disc(g mod p) = disc(g) mod p; a bad prime therefore
costs one integer remainder, disc mod p, and only good primes are reduced
and factored by distinct-degree factorization.  The budget of good primes
is a cap.  The scan (``_good_prime_scan``) yields (p, cycle type) and
computes a cycle type only when its caller asks for the next one, so a
caller stops it by leaving its loop once its facts hold: ``_evidence``, the
one loop over it, stops at the first good prime after which the cycle types
found, with the transposition witness, meet the criterion above
(``_sd_route``, its one statement, which ``certify_sd`` applies too), never
before irreducibility is proved.  The loop proves irreducibility as it goes
(``_irreducible_route``), from an irreducible reduction or, for d >= 4, from
the degree lattice reaching {0, d}; a cubic's lattice reaches it only at an
irreducible reduction.  The witness is searched for at most once per
polynomial and only once irreducibility is proved: at the good prime that
first proves it, or after the scan when only a Newton polygon proves it.
Every fact only grows as primes are added, so a scan that stops certifies
by the route the full scan would, and one that does not scans the whole
budget; its irreducibility route is read off the primes it scanned, so it
may be the degree lattice where a longer scan would also have met an
irreducible reduction.

The scan walks a cached plan, a tuple of the first primes
(``_scan_primes``).  Each prime takes one remainder of disc, disc mod p or
disc mod 8 at p = 2, and at a good prime ``padic.frobenius_parity`` reads
the parity of Frobenius off that residue (Stickelberger's theorem: odd
exactly when disc is a non-square mod p, or disc == 5 mod 8 at p = 2).
Every caller, sweeps, ``ev``, ``certify`` and ``collect_evidence`` alike,
then gets the cycle type of each good prime from one function,
``padic.good_prime_cycle_type``, so the scan has one path and keeps nothing
between polynomials.  That factorization stops as soon as the parity and
the factor degrees found so far leave one pattern; ``padic`` sets out how
the parity, a packed root count or the Frobenius matrix settles each prime.

What the stop rule reads off a cycle type is computed once per type
(``_type_facts``): whether an odd power of it is a transposition, the
bitmask of the block sizes b whose wreath product it lies outside, and the
bitmask of its subset sums.  The loop keeps the lattice as the AND of the
last; ``_sd_route`` ORs the first two over the distinct types seen
(``_fold``), and only past the quadratic and cubic-disc routes, so a cubic
folds nothing.

Transpositions come from a prime p, not dividing the leading coefficient,
with v_p(disc) = 1 exactly, or from an observed cycle type an odd power of
which is a single transposition (one even part, equal to 2).  The witness,
the least such prime up to the trial bound, takes one gcd per prime range
and factors nothing (``primes.least_simple_prime``): for s = gcd(disc,
product of the primes of the range), the primes with v_p(disc) = 1 are
those of s / gcd(disc / s, s).

Each polynomial's discriminant is computed once and serves the good-prime
scan, the square test and one shared small-prime pass: its entry in the
``primes.factor_batch`` of a sweep block's discriminants gives a sweep
candidate both its squarefree kernel and the exponents the witness search
reads, and when no witness lies below the kernel's bound the search takes
that one gcd on the cofactor only, over the primes from the kernel's bound
to the trial bound.  Without
a factorization (``ev``, ``transposition_witness``) it takes one gcd over
the primes up to ``primes.SMALL_PRIME_BOUND`` and, if that finds none, one
over the rest of the range.  The private helpers take the
polynomial only as an ``IntPoly``, primitive with positive lead, and that
discriminant as an int.  The public entry points accept any ``Poly`` and
normalize in integers through one ``_normalized``: it clears the
denominators of the polynomial once, takes the primitive part with positive
lead and computes its discriminant by the integer subresultant.  A
sweep's specializations are in that form already, and a sweep, which has
computed the discriminant and its factorization for the report, hands all
three to the private helpers; ``counting.ev_generate`` takes the primitive
part of its integer m*H and hands it over with its discriminant.  So the
value a certificate rests on is always the discriminant of exactly the
polynomial the scan reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Collection, Iterable, Iterator, Optional, Sequence

from . import padic
from .padic import CycleType, NewtonPolygon
from .polyarith import IntPoly, Poly, _discriminant, _primitive_int, clear_denominators
from .primes import SMALL_PRIME_BOUND, is_square, least_simple_prime, primes

# (exponents, cofactor, bound): ``primes.factor_trial(disc, bound)`` and the
# bound it ran to.
Factored = tuple[dict[int, int], int, int]

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


def contains_n_cycle(types: Collection[CycleType], n: int) -> bool:
    """Whether some power of an element of one of these cycle types is a
    single n-cycle: a part equal to n whose complementary parts have lcm
    coprime to n (raise to that lcm)."""
    for ct in types:
        if n in ct.parts:
            rest = list(ct.parts)
            rest.remove(n)
            if math.gcd(math.lcm(*rest), n) == 1:
                return True
    return False


@lru_cache(maxsize=None)
def _scan_primes(cap: int) -> tuple[int, ...]:
    """The scan plan: the first ``cap`` primes, built once per cap."""
    return tuple(islice(primes(), cap))


def _good_prime_scan(g: IntPoly, disc: int, budget: int) -> Iterator[tuple[int, CycleType]]:
    """(p, cycle type) for primitive integral g at its first good primes, at
    most `budget` of them, each cycle type computed only when asked for.

    disc = disc(g).  A prime is good exactly when it divides neither lc(g)
    nor disc(g): the reduction then keeps its degree and has discriminant
    disc(g) mod p != 0, so it is squarefree.  Bad primes are skipped without
    consuming budget, up to a hard cap; when disc(g) = 0 every prime is bad.
    The primes come from the cached plan ``_scan_primes``.  The residue of
    disc the test takes (mod 8 at p = 2) gives each good prime the parity
    of Frobenius through ``padic.frobenius_parity``, and the prime gets its
    cycle type from ``padic.good_prime_cycle_type``, the distinct-degree
    factorization of g mod p.  A caller whose facts hold leaves its loop;
    every later prime could only add to them, and none is factored.
    """
    if disc == 0 or budget < 1:
        return
    coeffs, lead = g.coeffs, g.lead
    for p in _scan_primes(max(_SCAN_CAP_MIN, _SCAN_CAP_FACTOR * budget)):
        residue = disc % (8 if p == 2 else p)  # serves the test and the parity
        if residue % p and lead % p:
            yield p, padic.good_prime_cycle_type(coeffs, p, padic.frobenius_parity(residue, p))
            budget -= 1
            if not budget:
                return


def _irreducible_route(
    route: Optional[str], lattice: int, ct: CycleType
) -> tuple[Optional[str], int]:
    """(route, lattice) after one more good prime of cycle type ct.

    ``route`` is the irreducibility route proved so far, None before any,
    and ``lattice`` the bitmask of the factor degrees over Q still possible,
    -1 before any prime: the AND of the subset sums of the types
    (``_type_facts``).  An irreducible reduction proves irreducibility
    ("mod-p"), also after the lattice has.  The lattice narrows only while
    nothing is proved and only for d >= 4, since below that it reaches
    {0, d} only at an irreducible reduction; when it does, that proves
    irreducibility ("degree-lattice").
    """
    d = ct.degree
    if len(ct.parts) == 1:
        return "mod-p", lattice
    if route is None and d >= 4:
        lattice &= _type_facts(ct)[2]
        if lattice == 1 | 1 << d:
            return "degree-lattice", lattice
    return route, lattice


def _normalized(f: Poly) -> tuple[IntPoly, int]:
    """(g, disc(g)) for g the primitive integral multiple of f with positive
    lead, both computed in integer arithmetic."""
    if f.degree < 1:
        raise ValueError("discriminant requires degree >= 1")
    g = IntPoly(_primitive_int(clear_denominators(f)[0].coeffs)[0])
    return g, _discriminant(g)


def _polygon_totally_ramified(polygon: NewtonPolygon) -> bool:
    if not polygon.spans_constant_term or len(polygon.segments) != 1:
        return False
    slope, length = polygon.segments[0]
    return length == polygon.degree and slope.denominator == polygon.degree


def transposition_witness(f: Poly, trial_bound: int) -> Optional[int]:
    """Smallest prime p <= trial_bound, p not dividing lc(f), with
    v_p(Disc f) = 1; absence is reported as None, never guessed."""
    return _witness(*_normalized(f), trial_bound)


def _witness(
    g: IntPoly, disc: int, trial_bound: int, factored: Optional[Factored] = None
) -> Optional[int]:
    """``transposition_witness`` for normalized g with disc = discriminant(g).

    ``factored`` = (exponents, cofactor, bound) is ``factor_trial(disc,
    bound)`` with its bound, when the caller has it: the least prime of
    exponent 1 among its exponents, else ``primes.least_simple_prime`` of
    the cofactor over (bound, trial_bound].  Without it, nothing is
    factored: ``least_simple_prime`` of disc over (1, min(trial_bound,
    SMALL_PRIME_BOUND)], and then over the rest of the range up to
    trial_bound.
    """
    if disc == 0:
        raise ValueError("discriminant vanishes; no transposition witness exists")
    lead = g.lead
    if factored is None:
        small = min(trial_bound, SMALL_PRIME_BOUND)
        found = least_simple_prime(disc, 1, small, lead)
        if found is None and trial_bound > small:
            found = least_simple_prime(disc, small, trial_bound, lead)
        return found
    exponents, cofactor, bound = factored
    found = min(
        (p for p, e in exponents.items() if e == 1 and p <= trial_bound and lead % p),
        default=None,
    )
    if found is None and trial_bound > bound and cofactor > 1:
        found = least_simple_prime(cofactor, bound, trial_bound, lead)
    return found


def collect_evidence(
    f: Poly,
    d: int,
    prime_budget: int,
    polygon_primes: Sequence[int] = (),
    trial_bound: int = 100_000,
    skip_witness_for_cubic: bool = True,
) -> GaloisEvidence:
    """Gather cycle types, irreducibility status and a transposition witness.

    Deterministic for fixed inputs.  ``prime_budget`` caps the good primes
    scanned: the scan stops at the first good prime after which the cycle
    types found, with the witness, meet the criterion ``certify_sd``
    applies (irreducible, a transposition, primitive), so a polynomial that
    certifies carries a prefix of the full scan, and one that does not
    carries all of it.  The irreducibility route is that of the primes
    scanned: "degree-lattice" when the prefix proves irreducibility without
    an irreducible reduction, though a later prime might show one.  The
    witness is searched for once, at the prime that first proves
    irreducibility, so it is the one a full scan finds.  The discriminant
    trial factorization is skipped when the d = 3 shortcut (irreducible,
    nonsquare discriminant) already decides the certificate and
    ``skip_witness_for_cubic`` is set; sweeps over many cubics rely on that
    fast path.
    """
    if f.degree != d:
        raise ValueError(f"degree mismatch: got {f.degree}, expected {d}")
    g, disc = _normalized(f)
    return _evidence(g, disc, prime_budget, polygon_primes, trial_bound, skip_witness_for_cubic)


def _evidence(
    g: IntPoly,
    disc: int,
    prime_budget: int,
    polygon_primes: Sequence[int],
    trial_bound: int,
    skip_witness_for_cubic: bool = True,
    factored: Optional[Factored] = None,
) -> GaloisEvidence:
    """``collect_evidence`` for normalized g with disc = discriminant(g) and
    an optional factorization of disc for the witness search (see
    ``_witness``).

    One loop over the good-prime scan: each prime's cycle type goes to the
    provenance, and each new type to ``_irreducible_route`` and then to
    ``_sd_route``; the loop ends at the first type that meets it.  The
    witness search runs at the good prime that first proves irreducibility,
    or after the scan and the Newton polygons when only a polygon proves it:
    once per polynomial whose evidence certifies irreducibility, as with a
    full scan.
    """
    d = g.degree
    disc_square = is_square(disc)
    # Cleared once the witness has been searched for.
    wants_witness = disc != 0 and not (skip_witness_for_cubic and d == 3 and not disc_square)
    witness = None
    types: set[CycleType] = set()
    provenance = []
    route, lattice = None, -1
    for p, ct in _good_prime_scan(g, disc, prime_budget):
        provenance.append(("frobenius_cycle_type", p, ct.label))
        if ct in types:  # a repeated type changes no fact, the route included
            continue
        types.add(ct)
        route, lattice = _irreducible_route(route, lattice, ct)
        if route is not None and wants_witness:
            wants_witness, witness = False, _witness(g, disc, trial_bound, factored)
        if _sd_route(d, route is not None, types, disc_square, witness is not None):
            break

    for p in polygon_primes:
        if not g.coeff(0):
            break
        polygon = padic.newton_polygon(g, p)
        for ct in padic.cycle_certificate(polygon):
            types.add(ct)
            provenance.append(("cycle_certificate", p, ct.label))
        if route is None and _polygon_totally_ramified(polygon):
            route = "newton-polygon"
            provenance.append(("irreducibility", p, "totally ramified"))

    if route is not None and wants_witness:
        witness = _witness(g, disc, trial_bound, factored)
    if witness is not None:
        provenance.append(("transposition_witness", witness, "v_p(disc)=1"))

    return GaloisEvidence(
        degree=d,
        observed_cycle_types=frozenset(types),
        transposition_prime=witness,
        irreducibility=INCONCLUSIVE if route is None else CERTIFIED,
        irreducibility_route=route,
        disc_is_square=disc_square if disc != 0 else True,
        provenance=tuple(provenance),
    )


def _in_wreath(ct: CycleType, b: int) -> bool:
    """Whether some element of S_b wr S_(d/b), the group that keeps a system
    of d/b blocks of size b, has cycle type ct (d = ct.degree).

    An element moves the blocks by a permutation whose cycles have lengths
    l summing to d/b; the l*b points of the blocks in one such cycle form
    cycles of lengths l times the parts of a partition of b, every partition
    arising.  So ct is a type of the group exactly when its parts split into
    groups, each with every part divisible by its l and summing to l*b.  The
    search places the largest part first, in each group it could lead.
    """

    def splits(parts: tuple[int, ...]) -> bool:
        if not parts:
            return True
        m, rest = parts[0], parts[1:]
        return any(
            splits(left)
            for ell in range(-(-m // b), m + 1)
            if m % ell == 0
            for left in removals(rest, ell, ell * b - m)
        )

    def removals(parts: tuple[int, ...], ell: int, need: int):
        # What is left of descending ``parts`` after taking out a
        # sub-multiset of multiples of ell summing to ``need``.
        if need == 0:
            yield parts
            return
        for i, part in enumerate(parts):
            if part <= need and part % ell == 0 and part not in parts[:i]:
                for left in removals(parts[i + 1 :], ell, need - part):
                    yield parts[:i] + left

    return splits(ct.parts)


@lru_cache(maxsize=None)
def _block_sizes(d: int) -> int:
    """The bitmask of the divisors b of d with 1 < b < d."""
    return sum(1 << b for b in range(2, d) if d % b == 0)


@lru_cache(maxsize=None)
def _type_facts(ct: CycleType) -> tuple[bool, int, int]:
    """The facts one cycle type gives, computed once per type: whether an
    odd power of it is a single transposition (``contains_n_cycle``); the
    bitmask of the block sizes b (``_block_sizes``) with ct not the type of
    any element of S_b wr S_(d/b) (``_in_wreath``); and the bitmask of the
    degrees of the factors over Q it allows, the sums of subsets of its
    parts."""
    d = ct.degree
    blocks = sum(1 << b for b in range(2, d) if d % b == 0 and not _in_wreath(ct, b))
    sums = 1
    for part in ct.parts:
        sums |= sums << part
    return contains_n_cycle((ct,), 2), blocks, sums


def _fold(types: Iterable[CycleType]) -> tuple[bool, int]:
    """(whether an odd power of some type is a transposition, the OR of the
    block-size masks of the types), from ``_type_facts``."""
    transposition, blocks = False, 0
    for ct in types:
        odd_power, outside, _ = _type_facts(ct)
        transposition, blocks = transposition or odd_power, blocks | outside
    return transposition, blocks


def _sd_route(
    d: int,
    irreducible: bool,
    types: Iterable[CycleType],
    disc_square: Optional[bool],
    witnessed: bool,
) -> Optional[str]:
    """The route by which these facts prove the Galois group of a degree-d
    polynomial to be S_d, or None when they do not.

    The one statement of the criterion: ``certify_sd`` applies it to the
    evidence, and the good-prime loop of ``_evidence`` stops once the facts
    found so far meet it.  ``types`` are the observed cycle types; they are
    folded (``_fold``) only past the quadratic and cubic-disc routes, so
    that those read none of them.  ``witnessed`` says that a prime
    with v_p(disc) = 1 was found.  The standard route is Jordan's theorem
    (module docstring).  Irreducibility makes G transitive.  A system of
    blocks of size b would put G inside S_b wr S_(d/b), so a type, each that
    of an element of G, outside that group for every divisor 1 < b < d of d
    makes G primitive; at prime d there is no such b.  A primitive group
    with a transposition, from the witness or from a type an odd power of
    which is one, is S_d.
    """
    if not irreducible:
        return None
    if d == 2:
        return "quadratic"
    if d == 3 and disc_square is False:
        return "cubic-disc"
    transposition, blocks = _fold(types)
    if (witnessed or transposition) and blocks == _block_sizes(d):
        return "standard"
    return None


def certify_sd(evidence: GaloisEvidence) -> SdCertificate:
    """Decide certified_Sd from verified facts alone."""
    d = evidence.degree
    if d < 2:
        raise ValueError("certification requires degree >= 2")
    route = _sd_route(
        d,
        evidence.irreducibility == CERTIFIED,
        evidence.observed_cycle_types,
        evidence.disc_is_square,
        evidence.transposition_prime is not None,
    )
    if route is None:
        return SdCertificate(INCONCLUSIVE, evidence)
    return SdCertificate(CERTIFIED_SD, evidence, route=route)
